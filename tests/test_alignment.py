"""Alignment engine: independence, meets, exhaustive sets, concordance."""

import itertools

import pytest

from zsalg.alignment import (
    _routes,
    builtin_counterexample,
    check_concordant,
    check_exhaustive,
    check_exhaustive_lifting,
    divides,
    divisors_into,
    equivalent_sets,
    independent,
    meet_ideal,
    minimal_exhaustive_sets,
    path_inclusion,
    zs_inclusion,
)
from zsalg.categories import SmallCategory, size_fits, validate_category
from zsalg.errors import NotIndependentError
from zsalg.fixtures import (
    kgraph_e2,
    kgraph_k1,
    pair_groupoid_2,
    swap2_pair,
    swap_pair,
    x_elem,
    x_monoid,
)
from zsalg.kgraph import deg_le, sub_kgraph, validate_kgraph
from zsalg.selfsim import ZSCategory, ZSMorphism, restrict_pair


def test_independent_examples():
    k1 = kgraph_k1((2, 2))
    e = k1.paths("v", (1, 0))[0]
    f = k1.paths("v", (0, 1))[0]
    assert independent([e, f], k1, (2, 2))
    e2 = kgraph_e2((3,))
    a = e2.paths("v", (1,))[0]
    aa = e2.compose(a, a)
    rep = independent([a, aa], e2, (3,))
    assert not rep and rep.witness == (aa, a)
    assert independent([], e2, (3,))


def test_equivalent_sets():
    k1 = kgraph_k1((2, 2))
    e = k1.paths("v", (1, 0))[0]
    assert equivalent_sets([e], [e], k1, (2, 2))
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    assert not equivalent_sets([a], [b], e2, (3,))
    gpd = pair_groupoid_2()
    assert equivalent_sets(["m_uw"], ["u"], gpd, 0)
    with pytest.raises(NotIndependentError):
        equivalent_sets([a, e2.compose(a, a)], [b], e2, (3,))


def test_meet_ideal_methods():
    k1 = kgraph_k1((2, 2))
    e = k1.paths("v", (1, 0))[0]
    f = k1.paths("v", (0, 1))[0]
    generators, method = meet_ideal(e, f, k1, (2, 2))
    assert method == "MCE" and [str(p) for p in generators] == ["ef"]
    assert meet_ideal(e, e, k1, (2, 2))[0] == (e,)

    zs = ZSCategory(swap_pair())
    x = zs.from_path(zs.D.nf(("a",)))
    assert meet_ideal(x, x, zs, (2,)) == ((x,), "ZS-path-lift")

    X = x_monoid()
    validate_category(X, 4)
    generators, method = meet_ideal(x_elem(X, 0, "a"), x_elem(X, 0, "b"), X, 4)
    assert method == "brute"
    assert [str(g) for g in generators] == ["(1|'a')"]


def test_meet_ideal_matches_brute_oracle_and_symmetry():
    zs = ZSCategory(swap_pair())
    validate_category(zs, (3,))
    window = zs.morphisms((2,))
    for c1 in window[:8]:
        for c2 in window[:8]:
            fast, _ = meet_ideal(c1, c2, zs, (3,))
            assert independent(fast, zs, (3,))
            slow, _ = SmallCategory.meet(zs, c1, c2, (3,))
            if fast or slow:
                assert equivalent_sets(list(fast), list(slow), zs, (3,))
            sym, _ = meet_ideal(c2, c1, zs, (3,))
            if fast or sym:
                assert equivalent_sets(list(fast), list(sym), zs, (3,))


@pytest.mark.parametrize("name", ["k1", "swap"])
def test_overrides_match_brute_force_defaults(name):
    """The exact KGraph and ZSCategory answers agree with the window search
    of the SmallCategory defaults, called unbound on the same category."""
    if name == "k1":
        cat, bound, method = kgraph_k1((3, 3)), (2, 2), "MCE"
    else:
        cat, bound, method = ZSCategory(swap_pair()), (2,), "ZS-path-lift"
    validate_category(cat, bound)
    window = cat.morphisms(bound)
    for a in window:
        for b in window:
            assert SmallCategory.divisors_into(cat, a, b, bound) == divisors_into(a, b, cat, bound)
            assert SmallCategory.divides(cat, a, b, bound) == divides(a, b, cat, bound)
            assert SmallCategory.meets(cat, a, b, bound) == cat.meets(a, b, bound)
            slow, slow_method = SmallCategory.meet(cat, a, b, bound)
            fast, fast_method = meet_ideal(a, b, cat, bound)
            assert (slow_method, fast_method) == ("brute", method)
            assert equivalent_sets(list(fast), list(slow), cat, bound)


@pytest.mark.parametrize("name", ["k1", "swap"])
def test_meet_is_kept_once_per_unordered_pair(name, monkeypatch):
    """meet(a, b) then meet(b, a) computes one MCE and gives one answer,
    on a k-graph and on a product with a groupoid tail."""
    if name == "k1":
        cat = graph = kgraph_k1((3, 3))
        a, b = graph.nf(("f",)), graph.nf(("e",))
    else:
        cat = ZSCategory(swap_pair())
        graph = cat.D
        a, b = (cat.from_path(graph.nf(edges)) for edges in (("a", "a"), ("a",)))
    calls = []
    mce = type(graph).mce

    def counting(self, mu, nu):
        calls.append((mu, nu))
        return mce(self, mu, nu)

    monkeypatch.setattr(type(graph), "mce", counting)
    first = cat.meet(a, b, None)
    assert first[0] and cat.meet(b, a, None) == first
    assert len(calls) == 1


def test_tail_invariance_of_meets():
    zs = ZSCategory(swap_pair())
    validate_category(zs, (3,))
    a = zs.D.nf(("a",))
    b = zs.D.nf(("b",))
    for tail1 in ("v", "g"):
        for tail2 in ("v", "g"):
            got, _ = meet_ideal(ZSMorphism(a, tail1), ZSMorphism(b, tail2), zs, (3,))
            plain, _ = meet_ideal(zs.from_path(a), zs.from_path(b), zs, (3,))
            if got or plain:
                assert equivalent_sets(list(got), list(plain), zs, (3,))


def test_check_exhaustive():
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    assert check_exhaustive([a, b], "v", e2, (3,))
    rep = check_exhaustive([a], "v", e2, (3,))
    assert not rep and str(rep.witness) == "b"
    k1 = kgraph_k1((2, 2))
    e = k1.paths("v", (1, 0))[0]
    assert check_exhaustive([e], "v", k1, (2, 2))


def test_minimal_exhaustive_sets_free_monoid():
    e2 = kgraph_e2((2,))
    sets = {frozenset(map(str, F)) for F in minimal_exhaustive_sets("v", e2, (2,))}
    assert frozenset(["a", "b"]) in sets
    assert frozenset(["<v>"]) in sets
    for F in sets:
        assert len(F) <= 6


def test_concordant_self_inclusion():
    e2 = kgraph_e2((3,))
    validate_category(e2, (2,))
    inc = path_inclusion(e2, e2)
    assert check_concordant(inc, (2,), (2,))


def test_concordant_subgraph_of_one_square():
    k1 = kgraph_k1((2, 2))
    validate_category(k1, (2, 2))
    gamma, rep = validate_kgraph(sub_kgraph(k1, [1]), (2,))
    validate_category(gamma, (2,))
    inc = path_inclusion(gamma, k1)
    assert check_concordant(inc, (2,), (2, 2))
    assert check_exhaustive_lifting(inc, (2,), (2, 2))


def test_concordant_zs_inclusion():
    swap2 = swap2_pair()
    amb = ZSCategory(swap2)
    validate_category(amb, (2, 2))
    gamma, _ = validate_kgraph(sub_kgraph(swap2.acted, [1]), (2,))
    sub = ZSCategory(restrict_pair(swap2, gamma))
    validate_category(sub, (2,))
    inc = zs_inclusion(sub, amb)
    assert check_concordant(inc, (2,), (2, 2))
    assert check_exhaustive_lifting(inc, (2,), (2, 2))


def _inclusion(name):
    """(inclusion, sub bound, ambient bound) of three genuine categories:
    k1's color-1 paths, swap2's restricted product, and swap at split 0,
    whose subcategory is the Z/2 groupoid."""
    if name == "k1":
        k1 = kgraph_k1((2, 2))
        gamma, _ = validate_kgraph(sub_kgraph(k1, [1]), (2,))
        return path_inclusion(gamma, k1), (2,), (2, 2)
    pair = swap2_pair() if name == "swap2" else swap_pair()
    colors, sub_bound, amb_bound = ([1], (2,), (2, 2)) if name == "swap2" else ([], (), (2,))
    gamma, _ = validate_kgraph(sub_kgraph(pair.acted, colors), sub_bound)
    return zs_inclusion(ZSCategory(restrict_pair(pair, gamma)), ZSCategory(pair)), sub_bound, amb_bound


def _invertibles(cat, bound):
    """The window's morphisms with a two-sided inverse in the window."""
    window = cat.morphisms(bound)
    return [
        u for u in window
        if any(
            cat.s(w) == cat.r(u) and cat.r(w) == cat.s(u)
            and cat.compose(u, w) == cat.identity(cat.r(u))
            and cat.compose(w, u) == cat.identity(cat.s(u))
            for w in window
        )
    ]


@pytest.mark.parametrize("name", ["k1", "swap2", "swap-split-0"])
def test_routing_does_not_see_invertible_swaps(name):
    """The property check_concordant rests on: on a category, a solution
    c1 x1 = c2 x2 routes through the canonical generating set F exactly
    when it routes through every F u, each member f swapped for some f u
    with u invertible.  The swaps are built here, for every checked pair
    and every solution of the window."""
    inc, sub_bound, amb_bound = _inclusion(name)
    sub, amb, embed = inc.sub, inc.amb, inc.embed
    validate_category(sub, sub_bound)
    validate_category(amb, amb_bound)
    assert check_concordant(inc, sub_bound, amb_bound)
    invs = _invertibles(sub, sub_bound)
    solutions = swapped_sets = 0
    for c1, c2 in itertools.combinations_with_replacement(sub.morphisms(sub_bound), 2):
        if sub.r(c1) != sub.r(c2):
            continue
        e1, e2 = embed(c1), embed(c2)
        F, _ = meet_ideal(c1, c2, sub, sub_bound)
        swaps = [{sub.compose(f, u) for u in invs if sub.s(f) == sub.r(u)} for f in F]
        variants = [G for G in itertools.product(*swaps) if G != tuple(F)]
        for x1 in amb.morphisms_from(amb.s(e1), amb_bound):
            z = amb.compose(e1, x1)
            if not size_fits(amb.size(z), amb_bound):
                continue
            for x2 in amb.divisors_into(e2, z, amb_bound):
                solutions += 1
                swapped_sets += len(variants)
                routed = _routes(inc, c1, c2, x1, x2, F, sub_bound, amb_bound)
                for G in variants:
                    assert _routes(inc, c1, c2, x1, x2, G, sub_bound, amb_bound) == routed
    assert solutions
    # only k1 has no invertible but its identities: elsewhere swaps were tried
    assert (swapped_sets == 0) == (name == "k1")


def test_zs_inclusion_morphisms_get_ambient_answers():
    """A morphism interned by the subcategory is looked up in the ambient
    category by value: it never reads the composition row or size that the
    ambient category keeps under the same integer id."""
    swap2 = swap2_pair()
    amb = ZSCategory(swap2)
    validate_category(amb, (1, 1))  # fills amb's rows for its low ids
    gamma, _ = validate_kgraph(sub_kgraph(swap2.acted, [1]), (2,))
    sub = ZSCategory(restrict_pair(swap2, gamma))
    inc = zs_inclusion(sub, amb)
    sub_window = sub.morphisms((2,))
    amb_window = amb.morphisms((1, 1))
    # the same integers name other morphisms in amb
    assert any(amb.morphs[sub.id_of(m)] != m for m in sub_window)
    for m in sub_window:
        by_value = ZSMorphism(m.path, m.tail)
        assert amb.size(m) == amb.size(by_value) == m.path.degree
        assert amb.id_of(inc.embed(m)) == amb.id_of(ZSMorphism(inc.embed(m).path, m.tail))
        for y in amb_window:
            assert amb.compose(m, y) == amb.compose(by_value, y)
            assert amb.compose(y, m) == amb.compose(y, by_value)


def test_counterexample_transcript():
    tr = builtin_counterexample()
    assert tr["left_cancellative"]["passed"]
    assert tr["ideal_formula"]["all_match"]
    assert tr["ideal_formula"]["branches_seen"] == ["disjoint", "join"]
    assert not tr["concordant"]["passed"]
    assert tr["concordant"]["witness"] == ["a", "b", "(1|'')", "(1|'')"]
    # both branches genuinely exercised
    cases = tr["ideal_formula"]["cases"]
    joins = [c for c in cases if c["branch"] == "join"]
    disjoints = [c for c in cases if c["branch"] == "disjoint"]
    assert joins and disjoints
    # spot-check both branches: disjoint words leave only the collapsed
    # generator; comparable words absorb it into their join
    lookup = {tuple(c["pair"]): c for c in cases}
    assert lookup[("0.a", "0.b")]["formula"] == ["(1|'a')"]
    join_case = lookup[("0.a", "0.ab")]
    assert join_case["branch"] == "join"
    assert join_case["formula"] == ["(<*>|'ab')"]
    assert join_case["brute"] == ["(<*>|'ab')"]


def test_counterexample_transcript_deterministic():
    assert builtin_counterexample() == builtin_counterexample()


def test_combinatorial_blowup_budget():
    from zsalg.errors import CombinatorialBlowupError

    e2 = kgraph_e2((3,))
    with pytest.raises(CombinatorialBlowupError):
        minimal_exhaustive_sets("v", e2, (3,), window_cap=3)


#: the categories whose answers are kept, with a window bound: a k-graph, two
#: products with a groupoid tail, and the counterexample's monoid product,
#: whose tail is not a groupoid (brute-force answers kept on the window)
KEPT_CASES = {
    "k1": (lambda: kgraph_k1((2, 2)), (2, 2)),
    "swap": (lambda: ZSCategory(swap_pair()), (2,)),
    "swap2": (lambda: ZSCategory(swap2_pair()), (2, 2)),
    "x-monoid": (x_monoid, 3),
}


def _answers(cat, bound, pairs):
    return [
        (
            cat.divisors_into(a, b, bound),
            cat.divides(a, b, bound),
            cat.meets(a, b, bound),
            cat.meet(a, b, bound),
        )
        for a, b in pairs
    ]


def _window_pairs(cat, bound):
    window = cat.morphisms(bound)
    return [(a, b) for a in window for b in window]


@pytest.mark.parametrize("name", sorted(KEPT_CASES))
def test_kept_answers_equal_fresh_answers(name):
    """Every answer read back from what a category keeps equals the answer
    of a fresh category, which computes each one on its first ask; the
    fresh one is asked in the reverse order, so no answer there is derived
    from a neighbor's."""
    make, bound = KEPT_CASES[name]
    cat = make()
    pairs = _window_pairs(cat, bound)
    first = _answers(cat, bound, pairs)
    assert _answers(cat, bound, pairs) == first
    fresh = make()
    fresh_pairs = _window_pairs(fresh, bound)
    assert fresh_pairs == pairs
    assert _answers(fresh, bound, fresh_pairs[::-1])[::-1] == first
    assert isinstance(first[0][0], list) and isinstance(first[0][3], tuple)


@pytest.mark.parametrize("name", sorted(KEPT_CASES))
def test_second_pass_of_questions_does_no_path_work(name, monkeypatch):
    """Once every question has been asked over the window pairs, asking
    them all again makes no factorization, prefix test, MCE, action
    extension or composition: the brute-force answers are kept too."""
    from zsalg.kgraph import KGraph
    from zsalg.selfsim import MatchedPair

    make, bound = KEPT_CASES[name]
    cat = make()
    pairs = _window_pairs(cat, bound)
    _answers(cat, bound, pairs)
    calls = []
    for owner, attr in (
        (KGraph, "factorize"),
        (KGraph, "extends"),
        (KGraph, "mce"),
        (MatchedPair, "extend"),
        (type(cat), "compose_ids"),
    ):
        def counted(*args, _inner=getattr(owner, attr), _name=attr):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(owner, attr, counted)
    _answers(cat, bound, pairs)
    assert calls == []


def test_brute_force_references_never_read_an_override_answer():
    """A KGraph whose divisors_into and meets are wrong, and kept, asked
    first: the SmallCategory defaults, called unbound on it, still give the
    window search's answers, and the same as on a plain k1."""
    from zsalg.fixtures import FIXTURE_DOCS, parse_kgraph
    from zsalg.kgraph import KGraph

    class WrongAnswers(KGraph):
        def divisors_into(self, a, b, bound):
            return list(self.kept("divisors_into", a, b, lambda a, b: (a,)))

        def meets(self, a, b, bound):
            return self.kept("meets", a, b, lambda a, b: not KGraph.meets(self, a, b, bound))

    bound = (2, 2)
    cat = WrongAnswers(parse_kgraph(FIXTURE_DOCS["k1"]["kgraph"]))
    plain = kgraph_k1(bound)
    window = cat.morphisms(bound)
    for a in window:
        for b in window:
            assert cat.divisors_into(a, b, bound) == [a]
            assert cat.meets(a, b, bound) != plain.meets(a, b, bound)
    for a in window:
        ideal_a = {cat.compose(a, x) for x in window if cat.s(a) == cat.r(x)} | {a}
        for b in window:
            divisors = [x for x in window if cat.s(a) == cat.r(x) and cat.compose(a, x) == b]
            ideal_b = {cat.compose(b, x) for x in window if cat.s(b) == cat.r(x)} | {b}
            common = {c for c in ideal_a & ideal_b if deg_le(c.degree, bound)}
            assert SmallCategory.divisors_into(cat, a, b, bound) == divisors
            assert SmallCategory.divides(cat, a, b, bound) == (a == b or bool(divisors))
            assert SmallCategory.meets(cat, a, b, bound) == bool(common)
            assert SmallCategory.meet(cat, a, b, bound) == SmallCategory.meet(plain, a, b, bound)
