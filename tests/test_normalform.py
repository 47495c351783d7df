"""The exact algebra model: products, involution, levels, fibers, modules."""

import random
from fractions import Fraction

import pytest

from zsalg.cocycle import (
    ConstantHomotopy,
    GridFunction,
    LinearHomotopy,
    PhaseSum,
    RotationForm,
    trivial_cocycle,
)
from zsalg.errors import (
    DegreeMismatchError,
    NoSourcesRequiredError,
    NotApplicableError,
    NotInModuleFormError,
    OffGridError,
    WindowExceededError,
)
from zsalg.fixtures import (
    kgraph_k1,
    kgraph_source_1graph,
    pair_groupoid_2,
    swap2_pair,
    swap_pair,
    trivial_pair,
    two_orbit_groupoid,
)
from zsalg.kgraph import KGraph, KGraphPresentation, validate_kgraph
from zsalg.normalform import (
    AlgebraModel,
    ModuleVector,
    corner_decomposition,
    correspondence_pair,
    random_element,
)
from zsalg.selfsim import ActionTable, MatchedPair, ZSCategory


def swap_model(m=1):
    zs = ZSCategory(swap_pair())
    return AlgebraModel(zs, ConstantHomotopy(trivial_cocycle(), m=m), (8,))


def rot_model(m=11, theta=Fraction(1, 4)):
    zs = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    fam = LinearHomotopy(RotationForm([[0, 0], [theta, 0]]), m=m)
    return AlgebraModel(zs, fam, (8, 8))


def swap2_model(m=5, theta=Fraction(1, 3)):
    zs = ZSCategory(swap2_pair())
    fam = LinearHomotopy(RotationForm([[0, 0], [theta, 0]]), m=m)
    return AlgebraModel(zs, fam, (8, 8))


def test_term_product_flip_example():
    model = swap_model()
    D = model.D
    a, b = D.paths("v", (1,))
    v = D.identity("v")
    t1 = model.term(model.one_fn(), a, "g", b)
    t2 = model.term(model.one_fn(), b, "v", v)
    out = t1 * t2
    assert list(out.terms) == [(a, "g", v)]
    assert out.terms[(a, "g", v)].same_as(model.one_fn())


def test_term_product_involution_square():
    model = swap_model()
    tg = model.tail_gen("g")
    assert (tg * tg).same_as(model.vertex("v"))


def test_term_product_rotation_degenerate_phase():
    model = rot_model()
    D = model.D
    e = D.paths("v", (1, 0))[0]
    f = D.paths("v", (0, 1))[0]
    v = D.identity("v")
    se = model.term(model.one_fn(), e, "v", v)
    sf = model.term(model.one_fn(), f, "v", v)
    out = se * sf
    ef = D.compose(e, f)
    assert list(out.terms) == [(ef, "v", v)]
    assert out.terms[(ef, "v", v)].same_as(model.one_fn())
    # the reversed product carries the climbing phase t/4
    out = sf * se
    coeff = out.terms[(ef, "v", v)]
    assert coeff.at(10).same_as(PhaseSum.e(Fraction(1, 4)))
    assert coeff.at(0).same_as(PhaseSum.one())


def test_product_range_mismatch_is_zero():
    model = swap_model()
    D = model.D
    a, b = D.paths("v", (1,))
    x = model.term(model.one_fn(), a, "g", b)
    y = model.path_gen(a)
    # (.. S_b*)(S_a ..) has MCE(b, a) empty
    assert (x * y).is_zero()


def test_window_exceeded():
    """A term pair past the level bound raises on every ask, and its core
    keeps no record."""
    zs = ZSCategory(swap_pair())
    model = AlgebraModel(zs, ConstantHomotopy(trivial_cocycle(), m=1), (1,))
    D = model.D
    aa = D.nf(("a", "a"))
    x = model.term(model.one_fn(), aa, "v", D.identity("v"))
    for _ in range(2):
        with pytest.raises(WindowExceededError):
            x.star() * x
    assert model._cores == {}


def test_involution_examples():
    model = swap_model()
    D = model.D
    a, b = D.paths("v", (1,))
    sv = model.vertex("v")
    assert sv.star().same_as(sv)
    t = model.term(model.one_fn(), a, "g", b)
    flipped = t.star()
    assert list(flipped.terms) == [(b, "g", a)]
    rng = random.Random(7)
    for _ in range(200):
        x = random_element(model, rng)
        assert x.star().star().same_as(x)


def test_associativity_and_antimultiplicativity_fuzz():
    rng = random.Random(11)
    for model in (swap_model(), rot_model(m=5), swap2_model(m=3)):
        for _ in range(150):
            x = random_element(model, rng)
            y = random_element(model, rng)
            z = random_element(model, rng)
            assert ((x * y) * z).same_as(x * (y * z))
            assert (x * y).star().same_as(y.star() * x.star())


def test_level_raise_vertex():
    model = swap_model()
    sv = model.vertex("v")
    raised = model.level_raise(sv, (1,))
    D = model.D
    a, b = D.paths("v", (1,))
    assert set(raised.terms) == {(a, "v", a), (b, "v", b)}


def test_level_raise_examples():
    model = swap_model()
    D = model.D
    a, b = D.paths("v", (1,))
    pa = model.range_projection(a)
    raised = model.level_raise(pa, (2,))
    aa, ab = D.compose(a, a), D.compose(a, b)
    assert set(raised.terms) == {(aa, "v", aa), (ab, "v", ab)}
    assert model.level_raise(pa, (1,)).same_as(pa)
    with pytest.raises(DegreeMismatchError):
        model.level_raise(model.range_projection(aa), (1,))


def test_equal_up_to_level_ck():
    for model in (swap_model(), rot_model(m=3)):
        D = model.D
        k = D.k
        from zsalg.kgraph import deg_splits

        for n, _ in deg_splits((2,) * k):
            for v in D.vertices:
                total = model.zero()
                for lam in D.paths(v, n):
                    total = total + model.range_projection(lam)
                assert model.equal_up_to_level(model.vertex(v), total, n)


def test_equal_up_to_level_distinguishes():
    model = swap_model()
    D = model.D
    a, b = D.paths("v", (1,))
    assert not model.equal_up_to_level(
        model.range_projection(a), model.range_projection(b), (2,)
    )


def test_zero_coefficient_noise_dropped():
    model = swap_model()
    x = model.vertex("v")
    noisy = x + model.path_gen(model.D.paths("v", (1,))[0]).scale(0)
    assert noisy.same_as(x) and set(noisy.terms) == set(x.terms)


def test_level_raise_needs_no_sources():
    graph = kgraph_source_1graph((3,))
    model = AlgebraModel(
        ZSCategory(trivial_pair(graph)), ConstantHomotopy(trivial_cocycle(), m=1), (3,)
    )
    with pytest.raises(NoSourcesRequiredError):
        model.level_raise(model.vertex("v"), (1,))


def test_fiber_evaluation():
    model = rot_model(m=11)
    rng = random.Random(3)
    x = random_element(model, rng)
    with pytest.raises(OffGridError):
        model.evaluate_fiber(x, 11)
    x0 = model.evaluate_fiber(x, 0)
    assert all(f.m == 1 for f in x0.terms.values())
    for _ in range(100):
        x = random_element(model, rng)
        y = random_element(model, rng)
        for j in (0, 5, 10):
            assert model.evaluate_fiber(x * y, j).same_as(
                model.evaluate_fiber(x, j) * model.evaluate_fiber(y, j)
            )
            assert model.evaluate_fiber(x.star(), j).same_as(
                model.evaluate_fiber(x, j).star()
            )


def test_fiber_models_share_the_exponent_table(monkeypatch):
    """The model and all its fiber models read one exponent table: across
    products and adjoints in the model and in every fiber model, each id
    pair reaches the form once."""
    fam = LinearHomotopy(RotationForm([[0, 0], [Fraction(1, 4), 0]]), m=11)
    calls, exponent = {}, fam.form.exponent

    def counting(c1, c2):
        calls[c1, c2] = calls.get((c1, c2), 0) + 1
        return exponent(c1, c2)

    monkeypatch.setattr(fam.form, "exponent", counting)
    model = AlgebraModel(ZSCategory(trivial_pair(kgraph_k1((3, 3)))), fam, (8, 8))
    rng = random.Random(8)
    for _ in range(10):
        x, y = random_element(model, rng), random_element(model, rng)
        xy = x * y
        for j in range(model.m):
            xj, yj = model.evaluate_fiber(x, j), model.evaluate_fiber(y, j)
            assert model.evaluate_fiber(xy, j).same_as(xj * yj)
            assert model.evaluate_fiber(x.star(), j).same_as(xj.star())
    assert calls and set(calls.values()) == {1}


def test_fiber_zero_untwisted():
    model = rot_model(m=11)
    D = model.D
    e = D.paths("v", (1, 0))[0]
    f = D.paths("v", (0, 1))[0]
    v = D.identity("v")
    sf = model.term(model.one_fn(), f, "v", v)
    se = model.term(model.one_fn(), e, "v", v)
    prod0 = model.evaluate_fiber(sf * se, 0)
    coeff = list(prod0.terms.values())[0]
    assert coeff.at(0).same_as(PhaseSum.one())


def test_zhat_apply_central():
    model = swap2_model(m=3)
    rng = random.Random(5)
    for _ in range(100):
        x = random_element(model, rng)
        y = random_element(model, rng)
        fn = GridFunction([PhaseSum.e(Fraction(rng.randrange(8), 8)) for _ in range(model.m)])
        lhs = (x * y).scale_fn(fn)
        assert lhs.same_as(x.scale_fn(fn) * y)
        assert lhs.same_as(x * y.scale_fn(fn))
    one = GridFunction.one(model.m)
    x = random_element(model, rng)
    assert x.scale_fn(one).same_as(x)


def test_vertex_support_identity():
    model = swap_model()
    rng = random.Random(9)
    for _ in range(50):
        x = random_element(model, rng)
        assert model.vertex_support_identity(x, ["v"]).same_as(x)
        assert model.vertex_support_identity(x, []).is_zero()
        assert model.vertex_support_identity(x, ["v"]).same_as(
            model.vertex_filter(x, ["v"])
        )


def test_vertex_support_partial():
    # two-vertex graph: the support sum keeps exactly the matching terms
    graph = kgraph_source_1graph((3,))
    model = AlgebraModel(
        ZSCategory(trivial_pair(graph)), ConstantHomotopy(trivial_cocycle(), m=1), (3,)
    )
    e = graph.paths("v", (1,))[0]
    x = model.path_gen(e) + model.vertex("w")
    kept = model.vertex_support_identity(x, ["v"])
    assert set(kept.terms) == set(model.path_gen(e).terms)
    assert model.vertex_support_identity(x, ["v", "w"]).same_as(x)


def test_correspondence_pairing_edges():
    model = swap2_model(m=3)
    D = model.D
    z = D.paths("v", (0, 1))[0]
    xi = ModuleVector(model, [(z, model.vertex("v"))])
    assert correspondence_pair(xi, xi).same_as(model.vertex("v"))
    gvec = ModuleVector(model, [(z, model.tail_gen("g"))])
    assert correspondence_pair(gvec, gvec).same_as(model.vertex("v"))


def test_correspondence_axioms_random():
    model = swap2_model(m=3)
    D = model.D
    z = D.paths("v", (0, 1))[0]
    rng = random.Random(13)

    def vec():
        return ModuleVector(model, [(z, random_element(model, rng, gen_degree=(1, 0)))])

    for _ in range(100):
        xi, eta = vec(), vec()
        b = random_element(model, rng, gen_degree=(1, 0))
        inner = correspondence_pair(xi, eta)
        assert inner.star().same_as(correspondence_pair(eta, xi))
        assert correspondence_pair(xi, eta.rmul(b)).same_as(inner * b)
        norm = correspondence_pair(xi, xi)
        assert norm.star().same_as(norm)


def test_correspondence_rejects_bad_forms():
    model = swap2_model(m=3)
    D = model.D
    a = D.paths("v", (1, 0))[0]
    z = D.paths("v", (0, 1))[0]
    with pytest.raises(NotInModuleFormError):
        ModuleVector(model, [(a, model.vertex("v"))])  # wrong color edge
    with pytest.raises(NotInModuleFormError):
        bad_coeff = model.path_gen(z)  # coefficient leaves the subalgebra
        ModuleVector(model, [(z, bad_coeff)])


def test_corner_decomposition_fixtures():
    for gpd, units in (
        (pair_groupoid_2(), ["u", "w"]),
        (two_orbit_groupoid(), ["u", "w", "z"]),
    ):
        zero_graph, rep = validate_kgraph(KGraphPresentation(0, units, [], []), ())
        assert rep.passed
        pair = MatchedPair(gpd, zero_graph, ActionTable())
        model = AlgebraModel(
            ZSCategory(pair), ConstantHomotopy(trivial_cocycle(), m=1), ()
        )
        X = gpd.transversal()[0]
        assert corner_decomposition(model, X)


def test_corner_decomposition_single_object():
    from zsalg.fixtures import z2_groupoid

    gpd = z2_groupoid()
    zero_graph, _ = validate_kgraph(KGraphPresentation(0, ["v"], [], []), ())
    pair = MatchedPair(gpd, zero_graph, ActionTable())
    model = AlgebraModel(ZSCategory(pair), ConstantHomotopy(trivial_cocycle(), m=1), ())
    assert corner_decomposition(model, ["v"])


def test_model_requires_groupoid_tail():
    from zsalg.fixtures import x_monoid

    with pytest.raises(NotApplicableError):
        AlgebraModel(x_monoid(), ConstantHomotopy(trivial_cocycle(), m=1), (4,))


def test_element_json_roundtrippable_shape():
    model = swap_model()
    D = model.D
    a, b = D.paths("v", (1,))
    x = model.term(model.one_fn(), a, "g", b) + model.vertex("v")
    doc = x.to_json()
    assert [t["path"] for t in doc] == [["@v"], ["a"]]
    assert doc[1]["tail"] == "g" and doc[1]["adjoint_path"] == ["b"]
    assert doc[0]["coefficient"] == [{"re": 1.0, "im": 0.0}]


@pytest.fixture
def meet_calls(monkeypatch):
    """The number of KGraph.meet calls so far, as calls[0]."""
    calls = [0]
    meet = KGraph.meet

    def counting(self, a, b, bound):
        calls[0] += 1
        return meet(self, a, b, bound)

    monkeypatch.setattr(KGraph, "meet", counting)
    return calls


def test_explain_product_transcript(meet_calls):
    """A transcript names exactly the terms its product produces, on the
    first ask and on a repeated one, which reads the kept records and
    computes no meet."""
    import json

    model = swap_model()
    D = model.D
    a, b = D.paths("v", (1,))
    x = model.term(model.one_fn(), a, "g", b)
    y = model.term(model.one_fn(), b, "v", D.identity("v"))
    records = model.explain_product(x, y)
    json.dumps(records)
    assert len(records) == 1
    rec = records[0]
    assert rec["common_extension"] == "b"
    assert rec["result"] == ["a", "g", "<v>"]
    # the transcript names exactly the terms the product produces
    assert set(map(tuple, [r["result"] for r in records])) == {
        tuple(map(str, k)) for k in (x * y).terms
    }
    # random elements on the k1 rotation model and on swap
    rng = random.Random(5)
    for model in (rot_model(), swap_model()):
        for _ in range(20):
            x, y = random_element(model, rng), random_element(model, rng)
            terms = {tuple(map(str, key)) for key in (x * y).terms}
            first = model.explain_product(x, y)
            asked = meet_calls[0]
            assert model.explain_product(x, y) == first
            assert meet_calls[0] == asked
            assert {tuple(r["result"]) for r in first} == terms


def test_a_repeated_product_computes_no_meet(meet_calls):
    model = rot_model()
    rng = random.Random(2)
    x, y = random_element(model, rng), random_element(model, rng)
    xy = x * y
    asked = meet_calls[0]
    assert asked
    assert (x * y).same_as(xy)
    assert meet_calls[0] == asked


def test_fiber_models_share_the_record_table(meet_calls):
    """A fiber model reads the records its model kept: its products
    compute no meet the model has computed."""
    model = rot_model(m=11)
    rng = random.Random(4)
    pairs = [(random_element(model, rng), random_element(model, rng)) for _ in range(5)]
    for x, y in pairs:
        x * y
    asked = meet_calls[0]
    for j in (0, 5, 10):
        fiber = model.fiber_model(j)
        assert fiber._cores is model._cores
        for x, y in pairs:
            assert model.evaluate_fiber(x * y, j).same_as(
                model.evaluate_fiber(x, j) * model.evaluate_fiber(y, j)
            )
    assert meet_calls[0] == asked


@pytest.mark.parametrize(
    "fixture, triples, meets, extends",
    [("swap", 50, 102, 156), ("k1", 10, 37, 74)],
    ids=["swap", "k1"],
)
def test_nf_mult_reduces_each_core_once(
    tmp_path, monkeypatch, meet_calls, fixture, triples, meets, extends
):
    """One nf-mult reduces each distinct core (g1, m1, l2, g2) once: on
    swap, 1,162 term pairs share 102 cores, and on k1, 236 share 37.  Each
    core asks meet once and pushes two tails per common extension."""
    from zsalg.cli import main

    pushes = [0]
    extend = MatchedPair.extend

    def counting(self, c, d):
        pushes[0] += 1
        return extend(self, c, d)

    monkeypatch.setattr(MatchedPair, "extend", counting)
    out = tmp_path / "report.json"
    argv = ["nf-mult", "--fixture", fixture, "--triples", str(triples), "--seed", "7"]
    assert main([*argv, "--out", str(out)]) == 0
    assert meet_calls[0] <= meets
    assert pushes[0] <= extends
