"""Path arithmetic: validation, enumeration, factorization, extensions."""

import hashlib

import pytest

from zsalg.errors import DegreeMismatchError, MalformedSquaresError
from zsalg.fixtures import (
    kgraph_convex_with_source,
    kgraph_e2,
    kgraph_k1,
    kgraph_not_locally_convex,
    kgraph_source_1graph,
    random_kgraph,
)
from zsalg.kgraph import (
    Edge,
    KGraphPresentation,
    deg_le,
    deg_splits,
    skeleton_split,
    structural_predicates,
    sub_kgraph,
    validate_kgraph,
)


def broken_three_graph():
    """Perturbing the color-2/3 squares of a valid flip 3-graph: the path
    c b1 a1 of degree (1,1,1) acquires two normal forms."""
    edges = (
        [Edge(n, 1, "v", "v") for n in ("a1", "a2")]
        + [Edge(n, 2, "v", "v") for n in ("b1", "b2")]
        + [Edge("c", 3, "v", "v")]
    )
    squares = [
        (("a1", "b1"), ("b1", "a1")),
        (("a1", "b2"), ("b1", "a2")),
        (("a2", "b1"), ("b2", "a1")),
        (("a2", "b2"), ("b2", "a2")),
        (("a1", "c"), ("c", "a1")),
        (("a2", "c"), ("c", "a2")),
        (("b1", "c"), ("c", "b2")),
        (("b2", "c"), ("c", "b1")),
    ]
    return KGraphPresentation(3, ["v"], edges, squares)


def test_validate_one_square():
    _, rep = validate_kgraph(
        KGraphPresentation(
            2,
            ["v"],
            [Edge("e", 1, "v", "v"), Edge("f", 2, "v", "v")],
            [(("e", "f"), ("f", "e"))],
        ),
        (2, 2),
    )
    assert rep.passed


def test_validate_free_1graph():
    graph = kgraph_e2((4,))
    assert graph._validated_bound == (4,)


def test_validate_broken_three_graph_witness():
    graph, rep = validate_kgraph(broken_three_graph(), (1, 1, 1))
    assert not rep.passed
    kind, seq, forms = rep.witness
    assert kind == "critical_triple"
    assert seq == ("c", "b1", "a1")
    assert sorted(forms) == [("a1", "b2", "c"), ("a2", "b1", "c")]


def test_malformed_squares_rejected():
    pres = KGraphPresentation(
        2,
        ["v"],
        [Edge("e", 1, "v", "v"), Edge("f", 2, "v", "v")],
        [],  # missing the mandatory square
    )
    with pytest.raises(MalformedSquaresError):
        validate_kgraph(pres, (1, 1))


def test_paths_counts():
    k1 = kgraph_k1((2, 2))
    assert [str(p) for p in k1.paths("v", (1, 1))] == ["ef"]
    e2 = kgraph_e2((2,))
    assert [str(p) for p in e2.paths("v", (2,))] == ["aa", "ab", "ba", "bb"]
    assert [str(p) for p in e2.paths("v", (0,))] == ["<v>"]


def test_factorize_examples():
    k1 = kgraph_k1((2, 2))
    ef = k1.paths("v", (1, 1))[0]
    mu, nu = k1.factorize(ef, (0, 1), (1, 0))
    assert (str(mu), str(nu)) == ("f", "e")
    assert k1.factorize(ef, ef.degree, (0, 0)) == (ef, k1.identity("v"))
    e2 = kgraph_e2((4,))
    abab = e2.nf(("a", "b", "a", "b"))
    mu, nu = e2.factorize(abab, (1,), (3,))
    assert (str(mu), str(nu)) == ("a", "bab")
    with pytest.raises(DegreeMismatchError):
        e2.factorize(abab, (1,), (1,))


def test_factorize_bijection_on_window():
    for seed in (0, 3):
        graph = random_kgraph(seed)
        bound = (2,) * graph.k
        for lam in graph.morphisms(bound):
            for m, n in deg_splits(lam.degree):
                mu, nu = graph.factorize(lam, m, n)
                assert graph.compose(mu, nu) == lam
                assert mu.degree == m and nu.degree == n


def test_random_kgraph_corpus_is_pinned():
    """Criterion 2 and the mce-random benchmark run on random_kgraph(0..19):
    their presentations (rank, vertices, edges, squares) must not drift."""
    parts = []
    for seed in range(20):
        graph = random_kgraph(seed)
        edges = sorted((e.name, e.color, e.rng, e.src) for e in graph.edge.values())
        parts.append(repr((graph.k, graph.vertices, edges, sorted(graph.fwd.items()))))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "7b2adfa9d20580ef6dcdfd9dbf1dc9aa6846e925627bff6ea019ab643c7a21e0"


def test_le_paths():
    k1 = kgraph_k1((2, 2))
    assert [str(p) for p in k1.le_paths("v", (1, 1))] == ["ef"]
    src = kgraph_source_1graph((3,))
    le = src.le_paths("v", (2,))
    assert [str(p) for p in le] == ["e"]  # s(e) emits nothing, so e qualifies
    assert [str(p) for p in src.le_paths("v", (0,))] == ["<v>"]


def test_mce_examples_and_oracle():
    k1 = kgraph_k1((2, 2))
    e = k1.paths("v", (1, 0))[0]
    f = k1.paths("v", (0, 1))[0]
    assert [str(p) for p in k1.mce(e, f)] == ["ef"]
    assert k1.mce(e, e) == (e,)
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    assert e2.mce(a, b) == ()
    for seed in range(4):
        graph = random_kgraph(seed)
        window = graph.morphisms((2,) * graph.k)
        for mu in window:
            for nu in window:
                assert set(graph.mce(mu, nu)) == set(graph.mce_oracle(mu, nu))


def test_structural_predicates():
    k1 = kgraph_k1((2, 2))
    preds = structural_predicates(k1, (2, 2))
    assert all(preds[name].passed for name in ("row_finite", "no_sources", "locally_convex"))

    src = kgraph_source_1graph((2,))
    preds = structural_predicates(src, (2,))
    assert not preds["no_sources"].passed
    assert preds["no_sources"].witness == ("w", 1)

    ugly = kgraph_not_locally_convex((1, 1))
    preds = structural_predicates(ugly, (1, 1))
    assert not preds["locally_convex"].passed
    assert preds["locally_convex"].witness == "e"


def test_le_factorization_law_on_locally_convex():
    for graph in (kgraph_k1((2, 2)), kgraph_convex_with_source((2, 2)), kgraph_source_1graph((2,))):
        bound = (2,) * graph.k
        for total, _ in deg_splits(bound):
            for m, n in deg_splits(total):
                lhs = {p for v in graph.vertices for p in graph.le_paths(v, total)}
                rhs = {
                    graph.compose(p, q)
                    for v in graph.vertices
                    for p in graph.le_paths(v, m)
                    for q in graph.le_paths(p.src, n)
                }
                assert lhs == rhs


def test_le_rigidity():
    graph = kgraph_convex_with_source((2, 2))
    for n, _ in deg_splits((2, 2)):
        for v in graph.vertices:
            les = graph.le_paths(v, n)
            for mu in les:
                for nu in les:
                    if graph.mce(mu, nu):
                        assert mu == nu
            for mu in graph.morphisms((2, 2)):
                if mu.rng != v or not deg_le(mu.degree, n):
                    continue
                for nu in les:
                    if graph.mce(mu, nu):
                        assert graph.extends(nu, mu)


def test_sub_kgraph():
    k1 = kgraph_k1((2, 2))
    sub, rep = validate_kgraph(sub_kgraph(k1, [1]), (2,))
    assert rep.passed and sub.k == 1 and sorted(sub.edge) == ["e"]
    full, rep = validate_kgraph(sub_kgraph(k1, [1, 2]), (2, 2))
    assert rep.passed and sorted(full.edge) == ["e", "f"]
    zero, rep = validate_kgraph(sub_kgraph(k1, []), ())
    assert rep.passed and zero.k == 0 and zero.vertices == ("v",)


def test_skeleton_split():
    k1 = kgraph_k1((2, 2))
    acting, acted, left, right = skeleton_split(k1, 1, 1)
    assert left[("e", "f")] == "f" and right[("e", "f")] == "e"
    acting_all, acted_none, left0, right0 = skeleton_split(k1, 2, 0)
    assert acting_all.k == 2 and acted_none.k == 0 and not left0 and not right0
    # degree bookkeeping: the moved edge keeps the acted color, the residue
    # keeps the acting color
    for (a, d), out in left.items():
        assert k1.color(out) == k1.color(d)
    for (a, d), out in right.items():
        assert k1.color(out) == k1.color(a)
