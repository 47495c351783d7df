"""Matched pairs, action extension, and the product category."""

import pytest

from zsalg.categories import (
    SmallCategory,
    id_triples,
    principal_ideal,
    validate_category,
)
from zsalg.errors import BadActionError, NotApplicableError, UndefinedGeneratorError
from zsalg.fixtures import (
    badswap_pair,
    kgraph_e2,
    kgraph_k1,
    pair_groupoid_2,
    klein_unfaithful_pair,
    swap2_pair,
    swap_pair,
    trivial_pair,
    x_elem,
    x_monoid,
)
from zsalg.groupoid import FiniteGroupoid, GroupoidPresentation
from zsalg.kgraph import Edge, KGraphPresentation, deg_add, validate_kgraph
from zsalg.selfsim import (
    ActionTable,
    MatchedPair,
    ZSCategory,
    ZSMorphism,
    check_jointly_faithful,
    check_self_similar,
    verify_matched_pair,
)


def test_extend_flip_on_word():
    pair = swap_pair()
    ab = pair.acted.nf(("a", "b"))
    moved, res = pair.extend("g", ab)
    assert (str(moved), res) == ("ba", "g")


def test_product_composes_through_the_pairs_extensions():
    """One extension memo: the product composes through the pair's
    extensions, kept by (tail id, path id), and keeps none of its own; so
    extending the parts of every composed window pair by morphisms makes no
    new entry and reads the same answer."""
    pair = swap2_pair()
    zs = ZSCategory(pair)
    window = zs.morphisms((2, 2))
    pairs = [(a, b) for a in window for b in window if zs.s(a) == zs.r(b)]
    for a, b in pairs:
        zs.compose(a, b)
    kept = dict(pair._extensions)
    for a, b in pairs:
        moved, rest = kept[pair.acting.id_of(a.tail), pair.acted.id_of(b.path)]
        assert pair.extend(a.tail, b.path) == (pair.acted.morphs[moved], pair.acting.morphs[rest])
    assert pair._extensions == kept
    assert not hasattr(zs, "_extensions")


def test_extend_units():
    pair = swap_pair()
    d = pair.acted.nf(("a",))
    assert pair.extend("v", d) == (d, "v")
    v = pair.acted.identity("v")
    assert pair.extend("g", v) == (v, "g")


def test_extend_respects_every_split():
    pair = swap_pair()
    graph = pair.acted
    for word in ("ab", "ba", "aab", "bab", "abab"):
        d = graph.nf(tuple(word))
        full = pair.extend("g", d)
        for cut in range(1, len(word)):
            d1 = graph.nf(tuple(word[:cut]))
            d2 = graph.nf(tuple(word[cut:]))
            moved1, res1 = pair.extend("g", d1)
            moved2, res2 = pair.extend(res1, d2)
            assert full == (graph.compose(moved1, moved2), res2)


def test_verify_matched_pair_swap():
    assert verify_matched_pair(swap_pair(), (3,))


def test_verify_matched_pair_badswap_witness():
    rep = verify_matched_pair(badswap_pair(), (2,))
    assert not rep
    label, c1, c2, d = rep.witness
    assert (c1, c2, str(d)) == ("g", "g", "a")


def test_verify_trivial_action():
    pair = trivial_pair(kgraph_e2((3,)))
    assert verify_matched_pair(pair, (2,))


def _unit_law_cases():
    """(name, pair, acting window, acted window)."""
    from perfbench.workloads import CLI_WORKSPACES
    from zsalg.cli import Workspace, builtin_workspace

    for name in ("swap", "swap2", "k1"):
        ws = builtin_workspace(name)
        yield name, ws.pair, ws.bound, ws.bound
    ws = Workspace(CLI_WORKSPACES["broken_flip"])
    yield "broken_flip", ws.pair, ws.bound, ws.bound
    yield "x_monoid", x_monoid().pair, 2, (2,)


_UNIT_LAW_CASES = list(_unit_law_cases())


@pytest.mark.parametrize(
    "name, pair, c_bound, d_bound", _UNIT_LAW_CASES, ids=[case[0] for case in _UNIT_LAW_CASES]
)
def test_extension_keeps_the_unit_laws(name, pair, c_bound, d_bound):
    """The unit laws that verify_matched_pair does not check, on every
    window morphism: c |> id = id, c <| id = c, id |> d = d, id <| d = id."""
    C, D = pair.acting, pair.acted
    for c in C.morphisms(c_bound):
        assert pair.extend(c, D.identity(C.s(c))) == (D.identity(C.r(c)), c), c
    for d in D.morphisms(d_bound):
        assert pair.extend(C.identity(D.r(d)), d) == (d, C.identity(D.s(d))), d


def test_zs_compose_examples():
    zs = ZSCategory(swap_pair())
    a = zs.D.nf(("a",))
    b = zs.D.nf(("b",))
    out = zs.compose(ZSMorphism(a, "g"), ZSMorphism(b, "v"))
    assert (str(out.path), out.tail) == ("aa", "g")
    unit = zs.identity("v")
    x = ZSMorphism(a, "g")
    assert zs.compose(unit, x) == x
    # an undefined product is None, as for every SmallCategory
    bad = ZSMorphism(a, "g")
    assert zs.compose(bad, ZSMorphism(zs.D.identity("nowhere_expected"), "v")) is None


def test_x_monoid_composition():
    X = x_monoid()
    out = X.compose(x_elem(X, 0, "a"), x_elem(X, 1, ""))
    assert out == x_elem(X, 1, "a")
    # b.1 = 1a = a.1 is the collision the concordance failure rides on
    assert X.compose(x_elem(X, 0, "b"), x_elem(X, 1, "")) == x_elem(X, 1, "a")
    # restriction closed form: w <| n = a^{|w|} for n >= 1
    for w in ("a", "b", "ab", "ba", "bb"):
        for n in (1, 2, 3):
            d = X.D.nf(("1",) * n)
            assert X.pair.extend(w, d) == (d, "a" * len(w))
        assert X.pair.extend(w, X.D.identity("*")) == (X.D.identity("*"), w)


def test_zs_associativity_window():
    for pair, bound in ((swap_pair(), (2,)), (swap2_pair(), (1, 1))):
        zs = ZSCategory(pair)
        window = zs.morphisms(bound)
        for x in window:
            for y in window:
                if zs.s(x) != zs.r(y):
                    continue
                xy = zs.compose(x, y)
                for z in window:
                    if zs.s(y) != zs.r(z):
                        continue
                    assert zs.compose(xy, z) == zs.compose(x, zs.compose(y, z))


def test_equal_zs_composites_are_one_object():
    zs = ZSCategory(swap_pair())
    window = zs.morphisms((2,))
    canonical = {m: m for m in window}
    assert all(m is canonical[m] for m in zs.morphisms((1,)))
    morphs = zs.morphs
    for i, j, k, ij, jk in id_triples(zs, [zs.id_of(m) for m in window]):
        x, y, z, xy, yz = morphs[i], morphs[j], morphs[k], morphs[ij], morphs[jk]
        assert zs.compose(xy, z) is zs.compose(x, yz)
        assert xy not in canonical or xy is canonical[xy]
    # a fresh but equal pair hits the same memo entry
    x, y = window[1], window[2]
    assert zs.compose(ZSMorphism(x.path, x.tail), y) is zs.compose(x, y)
    # the conveniences hand out the canonical objects too
    a = zs.D.nf(("a",))
    assert zs.identity("v") is canonical[zs.identity("v")]
    assert zs.from_path(a) is canonical[ZSMorphism(a, "v")]
    assert zs.from_tail("g") is canonical[ZSMorphism(zs.D.identity("v"), "g")]
    assert zs.divisors_into(zs.identity("v"), x, (2,)) == [x]
    assert zs.divisors_into(zs.identity("v"), x, (2,))[0] is x


def test_zs_degree_additivity():
    zs = ZSCategory(swap2_pair())
    window = zs.morphisms((1, 1))
    for x in window:
        for y in window:
            if zs.s(x) == zs.r(y):
                xy = zs.compose(x, y)
                assert xy.path.degree == deg_add(x.path.degree, y.path.degree)


def test_zs_unit_and_inverse_ideal_law():
    zs = ZSCategory(swap_pair())
    validate_category(zs, (2,))
    window = zs.morphisms((2,))
    for x in window:
        unit = zs.identity(zs.s(x))
        assert zs.compose(x, unit) == x
        ginv = zs.C.inverse(x.tail)
        inv_mor = zs.from_tail(ginv)
        collapsed = zs.compose(x, inv_mor)
        assert collapsed == zs.from_path(x.path)
        assert principal_ideal(x, zs, (2,)) == principal_ideal(collapsed, zs, (2,))


def test_check_self_similar():
    assert check_self_similar(swap_pair(), (2,))
    assert check_self_similar(swap2_pair(), (1, 1))
    with pytest.raises(NotApplicableError):
        check_self_similar(x_monoid().pair, 2)


def test_degree_breaking_table_detected():
    from zsalg.fixtures import kgraph_e2, z2_groupoid
    from zsalg.selfsim import ActionTable, MatchedPair

    graph = kgraph_e2((3,))
    gpd = z2_groupoid()
    table = ActionTable(
        left={("g", "a"): graph.nf(("a", "a")), ("g", "b"): graph.nf(("a",))},
        right={("g", "a"): "g", ("g", "b"): "g"},
    )
    pair = MatchedPair(gpd, graph, table)
    rep = check_self_similar(pair, (1,))
    assert not rep
    g, lam = rep.witness
    assert g == "g" and str(lam) == "a"


def test_jointly_faithful_swap():
    rep = check_jointly_faithful(swap_pair(), "v", (1,))
    assert rep
    assert str(rep.details["witness_path"]) == "a"


def test_jointly_faithful_trivial_action():
    pair = trivial_pair(kgraph_e2((2,)))
    rep = check_jointly_faithful(pair, "v", (1,))
    assert rep and str(rep.details["witness_path"]) == "a"


def test_jointly_faithful_klein_failure():
    pair = klein_unfaithful_pair()
    assert verify_matched_pair(pair, (2,))
    assert check_self_similar(pair, (2,))
    rep = check_jointly_faithful(pair, "v", (1,))
    assert not rep
    for lam, (g1, g2) in rep.witness:
        assert {g1, g2} == {"p", "q"}


def test_undefined_generator_raises():
    from zsalg.errors import UndefinedGeneratorError
    from zsalg.fixtures import kgraph_e2, z2_groupoid
    from zsalg.selfsim import ActionTable, MatchedPair

    graph = kgraph_e2((2,))
    pair = MatchedPair(z2_groupoid(), graph, ActionTable(left={}, right={}))
    with pytest.raises(UndefinedGeneratorError):
        pair.extend("g", graph.nf(("a",)))


def square_breaking_pair():
    """swap2 with g <| z = v: extending g along az gives (bz, v) and along
    za gives (az, v), so the square az = za is broken."""
    pair = swap2_pair()
    pair.table.right[("g", "z")] = "v"
    return pair


def pair_groupoid_pair(inverse=True):
    """The pair groupoid on {u, w} moving the loops aw, bw at w to bu, au
    at u.  With inverse=False, m_wu does not undo m_uw (bu -> bw, au -> aw),
    so the product is not associative; two vertices leave window pairs
    that do not compose."""
    loops = (("au", "u"), ("bu", "u"), ("aw", "w"), ("bw", "w"))
    edges = [Edge(name, 1, v, v) for name, v in loops]
    graph = validate_kgraph(KGraphPresentation(1, ["u", "w"], edges, []), (3,))[0]
    back = {"bu": "aw", "au": "bw"} if inverse else {"bu": "bw", "au": "aw"}
    moves = [("m_uw", "aw", "bu"), ("m_uw", "bw", "au")] + [("m_wu", e, f) for e, f in back.items()]
    left = {(g, e): graph.nf((f,)) for g, e, f in moves}
    return MatchedPair(pair_groupoid_2(), graph, ActionTable(left, {key: key[0] for key in left}))


@pytest.mark.parametrize(
    "make, bound, failing",
    [
        (lambda: trivial_pair(kgraph_k1((2, 2))), (2, 2), 0),
        (swap_pair, (3,), 0),
        (swap2_pair, (2, 2), 0),
        (badswap_pair, (2,), 252),
        (square_breaking_pair, (2, 2), 21168),
        (pair_groupoid_pair, (2,), 0),
        (lambda: pair_groupoid_pair(inverse=False), (2,), 1176),
    ],
    ids=[
        "k1",
        "swap",
        "swap2",
        "broken-flip",
        "broken-square",
        "pair-groupoid",
        "pair-groupoid-broken",
    ],
)
def test_array_sweep_matches_the_reference_loop(monkeypatch, make, bound, failing):
    """A product with a groupoid tail sweeps associativity on arrays and
    yields exactly the triples of the reference loop, in its order, without
    running it, whatever the number of window rows in a block."""
    reference = ZSCategory(make())
    want = list(SmallCategory.associativity_failures(reference, reference.morphisms(bound)))
    assert len(want) == failing

    def no_reference(self, window):
        raise AssertionError("the reference loop ran")

    monkeypatch.setattr(SmallCategory, "associativity_failures", no_reference)
    for rows in (ZSCategory._SWEEP_ROWS, 1, 3):
        monkeypatch.setattr(ZSCategory, "_SWEEP_ROWS", rows)
        zs = ZSCategory(make())
        window = zs.morphisms(bound)
        assert list(zs.associativity_failures(window)) == want
        # the sweep compares parts: it interns no composite
        assert len(zs.morphs) == len(window)


def test_missing_action_entry_raises_at_construction():
    """A table entry missing from the left table raises the extension's
    UndefinedGeneratorError, with its message, when the product is built:
    check_action extends every entry once."""
    pair = swap_pair()
    del pair.table.left[("g", "b")]
    with pytest.raises(UndefinedGeneratorError) as err:
        ZSCategory(pair)
    assert str(err.value) == "no action entry for ('g', 'b')"


def two_vertex_pair(left, right):
    """g: v -> v acting on the loops a at v and b at w by g |> a = left and
    g <| a = right.  (a, w) breaks s(g |> a) = r(g <| a), and (b, g) breaks
    r(g |> a) = r(g)."""
    edges = [Edge("a", 1, "v", "v"), Edge("b", 1, "w", "w")]
    graph = validate_kgraph(KGraphPresentation(1, ["v", "w"], edges, []), (2,))[0]
    gpd = FiniteGroupoid(
        GroupoidPresentation(
            ["v", "w"], ["v", "w", "g"], {"g": "v"}, {"g": "v"}, {"g": "g"}, {("g", "g"): "v"}
        )
    )
    table = ActionTable({("g", "a"): graph.nf((left,))}, {("g", "a"): right})
    return MatchedPair(gpd, graph, table)


def source_breaking_pair():
    """The pair groupoid's action with m_uw <| aw = u: s(u) is not s(aw) = w."""
    pair = pair_groupoid_pair()
    pair.table.right[("m_uw", "aw")] = "u"
    return pair


@pytest.mark.parametrize(
    "make, witness",
    [
        (lambda: two_vertex_pair("a", "w"), ("endpoint_mismatch", "g", "a")),
        (lambda: two_vertex_pair("b", "g"), ("range_of_left", "g", "a")),
        (source_breaking_pair, ("source_of_right", "m_uw", "aw")),
    ],
    ids=["right-to-w", "left-to-b", "right-to-u"],
)
def test_product_refuses_an_endpoint_breaking_action(make, witness):
    """ZSCategory checks the action on its table and raises with the
    failing matched_pair report, whose witness is verify_matched_pair's."""
    kind, c, edge = witness
    pair = make()
    with pytest.raises(BadActionError) as err:
        ZSCategory(pair)
    report = err.value.report
    assert report.name == "matched_pair" and not report
    assert report.witness == (kind, c, pair.acted.nf((edge,)))
    assert verify_matched_pair(pair, (2,)).witness == report.witness


def test_groupoid_over_other_objects_is_not_applicable():
    """A groupoid whose units are not the graph's vertices acts on no
    k-graph: no product is built on it."""
    graph = kgraph_e2((2,))
    gpd = FiniteGroupoid(GroupoidPresentation(["v", "w"], ["v", "w"]))
    pair = MatchedPair(gpd, graph, ActionTable())
    with pytest.raises(NotApplicableError, match="not a groupoid over the vertices"):
        ZSCategory(pair)
    with pytest.raises(NotApplicableError, match="not a groupoid over the vertices"):
        check_self_similar(pair, (2,))


def test_monoid_product_runs_the_reference_loop(monkeypatch):
    """The counterexample's tail is a free monoid, not a groupoid: its
    product keeps the reference loop."""
    calls, swept = [], []
    reference = SmallCategory.associativity_failures

    def counted(self, window):
        calls.append(len(window))
        return reference(self, window)

    def array_sweep(self, window):
        swept.append(len(window))
        raise AssertionError("the array sweep ran")

    monkeypatch.setattr(SmallCategory, "associativity_failures", counted)
    monkeypatch.setattr(ZSCategory, "_array_sweep", array_sweep)
    X = x_monoid()
    window = X.morphisms(3)
    assert list(X.associativity_failures(window)) == []
    assert calls == [len(window)] and swept == []


def test_check_self_similar_runs_no_action_check(monkeypatch):
    """check_self_similar reads the pair's shape from the one shape helper
    that check_action also calls: it does not re-run check_action, which
    extends every table entry."""
    import zsalg.selfsim as selfsim

    pairs = [(swap_pair(), (2,)), (swap2_pair(), (1, 1))]
    calls, real = [], selfsim.check_action

    def counted(pair):
        calls.append(pair)
        return real(pair)

    monkeypatch.setattr(selfsim, "check_action", counted)
    for pair, bound in pairs:
        assert check_self_similar(pair, bound)
    assert calls == []
