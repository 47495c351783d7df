"""Relational layer: cancellativity, equivalence, principal ideals."""

import pytest

from zsalg.categories import (
    SmallCategory,
    TableCategory,
    check_left_cancellative,
    equivalent,
    id_triples,
    invertibles,
    principal_ideal,
    size_fits,
    validate_category,
)
from zsalg.fixtures import (
    badswap_pair,
    kgraph_e2,
    kgraph_k1,
    pair_groupoid_2,
    swap2_pair,
    swap_pair,
    x_elem,
    x_monoid,
)
from zsalg.selfsim import FreeMonoidCategory, ZSCategory


def three_morphism_counterexample():
    # p composed with either p or q lands on p, so cancellation fails
    return TableCategory(
        objects=["v"],
        morphisms=["v", "p", "q"],
        r_map={"p": "v", "q": "v"},
        s_map={"p": "v", "q": "v"},
        compose_table={("p", "p"): "p", ("p", "q"): "p"},
    )


def test_free_monoid_paths_cancel():
    graph = kgraph_e2((4,))
    validate_category(graph, (4,))
    assert check_left_cancellative(graph, (4,))


def test_x_monoid_cancels_within_bound():
    cat = x_monoid()
    assert validate_category(cat, 4)
    assert validate_category(cat.C, 4)
    assert check_left_cancellative(cat, 4)


def test_table_counterexample_witness():
    cat = three_morphism_counterexample()
    assert validate_category(cat, 2)
    report = check_left_cancellative(cat, 2)
    assert not report
    a, b, c = report.witness
    assert (a, b, c) == ("p", "q", "p")


def test_left_cancellative_runs_without_prior_validation():
    """A check answers on its own window: no earlier validate_category is
    needed to read the counterexample's witness."""
    a, b, c = check_left_cancellative(three_morphism_counterexample(), 2).witness
    assert (a, b, c) == ("p", "q", "p")


def test_equivalent_reflexive_and_distinct_edges():
    graph = kgraph_e2((3,))
    validate_category(graph, (3,))
    a, b = graph.paths("v", (1,))
    assert equivalent(a, a, graph, (3,))
    assert not equivalent(a, b, graph, (3,))


def test_x_monoid_only_trivial_invertible():
    cat = x_monoid()
    validate_category(cat, 4)
    invs = invertibles(cat, 4)
    assert len(invs) == 1 and cat.is_identity(invs[0])
    a = x_elem(cat, 0, "a")
    b = x_elem(cat, 0, "b")
    assert not equivalent(a, b, cat, 4)


def test_groupoid_elements_all_equivalent_to_range():
    gpd = pair_groupoid_2()
    for g in gpd.names:
        assert equivalent(g, gpd.identity(gpd.r(g)), gpd, 0)


def test_principal_ideal_of_vertex():
    graph = kgraph_e2((3,))
    v = graph.identity("v")
    ideal = principal_ideal(v, graph, (1,))
    assert [str(p) for p in ideal] == ["<v>", "a", "b"]


def test_principal_ideal_x_monoid():
    cat = x_monoid()
    validate_category(cat, 4)
    a = x_elem(cat, 0, "a")
    ideal = principal_ideal(a, cat, 2)
    assert set(map(str, ideal)) == {"(<*>|'a')", "(<*>|'aa')", "(<*>|'ab')", "(1|'a')"}


def test_equivalence_is_equivalence_relation_on_range_fibers():
    gpd = pair_groupoid_2()
    elems = gpd.names
    for a in elems:
        assert equivalent(a, a, gpd, 0)
        for b in elems:
            if equivalent(a, b, gpd, 0):
                assert equivalent(b, a, gpd, 0)
                for c in elems:
                    if equivalent(b, c, gpd, 0):
                        assert equivalent(a, c, gpd, 0)


def test_equivalent_morphisms_generate_equal_ideals():
    gpd = pair_groupoid_2()
    for a in gpd.names:
        for b in gpd.names:
            if equivalent(a, b, gpd, 0):
                assert principal_ideal(a, gpd, 0) == principal_ideal(b, gpd, 0)


def _triples(cat, window):
    """(a, b, c, ab, bc) for each of id_triples, read through cat.morphs."""
    morphs = cat.morphs
    for i, j, k, ij, jk in id_triples(cat, [cat.id_of(m) for m in window]):
        ab = None if ij is None else morphs[ij]
        bc = None if jk is None else morphs[jk]
        yield morphs[i], morphs[j], morphs[k], ab, bc


def _nested_triples(cat, window):
    """The plain nested loop that id_triples replaces."""
    for a in window:
        for b in window:
            if cat.s(a) != cat.r(b):
                continue
            ab = cat.compose(a, b)
            for c in window:
                if cat.s(b) == cat.r(c):
                    yield a, b, c, ab, cat.compose(b, c)


def partial_two_object_table():
    # x: v -> v, y: w -> v, z: w -> w; x x and z z are undefined
    return TableCategory(
        objects=["v", "w"],
        morphisms=["v", "w", "x", "y", "z"],
        r_map={"x": "v", "y": "v", "z": "w"},
        s_map={"x": "v", "y": "w", "z": "w"},
        compose_table={("x", "y"): "y", ("y", "z"): "y"},
    )


def _nested_associativity_failures(cat, window):
    for a, b, c, ab, bc in _nested_triples(cat, window):
        left = cat.compose(ab, c) if ab is not None else None
        right = cat.compose(a, bc) if bc is not None else None
        if left is not None and right is not None and left != right:
            yield a, b, c


def _nested_left_cancellative(cat, window):
    """check_left_cancellative's (passed, witness), by the plain loop."""
    for a in window:
        seen = {}
        for c in window:
            if cat.s(a) != cat.r(c):
                continue
            ac = cat.compose(a, c)
            if ac is None:
                continue
            if ac in seen and seen[ac] != c:
                return False, (a, c, seen[ac])
            seen[ac] = c
    return True, None


def _nested_principal_ideal(cat, a, window, bound):
    out = {a} if size_fits(cat.size(a), bound) else set()
    for x in window:
        if cat.s(a) == cat.r(x):
            ax = cat.compose(a, x)
            if ax is not None and size_fits(cat.size(ax), bound):
                out.add(ax)
    return tuple(sorted(out, key=cat.sort_key))


def _nested_divisors(cat, a, b, window):
    """The brute divisor search: every window x with a x = b."""
    return [x for x in window if cat.s(a) == cat.r(x) and cat.compose(a, x) == b]


@pytest.mark.parametrize(
    "cat, bound, associative_fails",
    [
        (kgraph_k1((2, 2)), (2, 2), False),
        (ZSCategory(swap_pair()), (2,), False),
        (ZSCategory(swap2_pair()), (1, 1), False),
        (x_monoid(), 4, False),
        (ZSCategory(badswap_pair()), (2,), True),
        (partial_two_object_table(), 1, False),
    ],
    ids=["k1", "swap", "swap2", "x-monoid", "badswap", "partial-table"],
)
def test_composable_triples_match_nested_loop(cat, bound, associative_fails):
    """The id-level sweeps give the answers of plain loops over cat.compose:
    triples, associativity failures, left cancellativity, principal ideals
    and the brute-force divisor search.  a divides b exactly when b is in
    a's principal ideal, also on the table, whose sizes are not additive
    (x y = y)."""
    window = cat.morphisms(bound)
    got = list(_triples(cat, window))
    assert got == list(_nested_triples(cat, window))
    if isinstance(cat, TableCategory):
        assert any(ab is None for *_, ab, _ in got) and any(bc is None for *_, bc in got)

    failures = list(cat.associativity_failures(window))
    assert failures == list(_nested_associativity_failures(cat, window))
    assert bool(failures) == associative_fails
    report = check_left_cancellative(cat, bound)
    assert (report.passed, report.witness) == _nested_left_cancellative(cat, window)
    for a in window:
        assert principal_ideal(a, cat, bound) == _nested_principal_ideal(cat, a, window, bound)
        for b in window:
            assert SmallCategory.divisors_into(cat, a, b, bound) == _nested_divisors(
                cat, a, b, window
            )
            assert cat.divides(a, b, bound) == (b in principal_ideal(a, cat, bound))


def test_composable_triples_raise_where_the_nested_loop_would():
    class Raising(TableCategory):
        def compose(self, a, b):
            if (a, b) == ("y", "z"):
                raise ValueError("no composite")
            return super().compose(a, b)

    base = partial_two_object_table()
    cat = Raising(base.objects(), base.names, base._r, base._s, base._table)
    window = cat.morphisms(1)

    def until_raise(triples):
        seen = []
        with pytest.raises(ValueError):
            for triple in triples:
                seen.append(triple)
        return seen

    got = until_raise(_triples(cat, window))
    assert got and got == until_raise(_nested_triples(cat, window))


@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda: kgraph_k1((2, 2)), (2, 2)),
        (pair_groupoid_2, None),
        (lambda: FreeMonoidCategory("ab"), 2),
        (partial_two_object_table, 1),
        (lambda: ZSCategory(swap_pair()), (2,)),
    ],
    ids=["kgraph", "groupoid", "free-monoid", "partial-table", "product"],
)
def test_every_category_is_its_own_id_view(make, bound):
    """Each kind numbers its own morphisms: window(b) is memoized and holds
    morphisms(b) in order, and compose_ids composes each pair at most once,
    an undefined product included, then answers from rows."""
    cat = make()
    win = cat.window(bound)
    assert cat.window(bound) is win
    assert cat.morphisms(bound) == list(win.members)
    assert [cat.morphs[i] for i in win.ids] == win.members

    composed, extended = [], []

    def counting(fn, log):
        def wrapper(*args):
            log.append(args)
            return fn(*args)

        return wrapper

    compose = cat.compose
    cat.compose = counting(compose, composed)
    if isinstance(cat, ZSCategory):
        cat.pair.extend = counting(cat.pair.extend, extended)
    pairs = [(i, j) for i in win.ids for j in win.ids]
    first = [cat.compose_ids(i, j) for i, j in pairs]
    assert len(set(composed)) == len(composed) <= len(pairs)
    del composed[:], extended[:]
    assert [cat.compose_ids(i, j) for i, j in pairs] == first
    assert composed == extended == []
    for (i, j), k in zip(pairs, first):
        ab = compose(cat.morphs[i], cat.morphs[j])
        assert k == (None if ab is None else cat.id_of(ab))
