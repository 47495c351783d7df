"""Path arithmetic: validation, enumeration, factorization, extensions."""

import hashlib
import itertools
import sys

import pytest

from zsalg.errors import DegreeMismatchError, MalformedSquaresError, NotAPathError
from zsalg.fixtures import (
    FIXTURE_DOCS,
    kgraph_convex_with_source,
    kgraph_e2,
    kgraph_k1,
    kgraph_not_locally_convex,
    kgraph_source_1graph,
    parse_kgraph,
    random_kgraph,
)
from zsalg.kgraph import (
    Edge,
    KGraph,
    KGraphPresentation,
    Path,
    deg_le,
    deg_splits,
    deg_sub,
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
    _, rep = validate_kgraph(parse_kgraph(FIXTURE_DOCS["e2"]["kgraph"]), (4,))
    assert rep.passed and rep.bound == (4,)


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


def test_builtin_fixture_failing_validation_raises(monkeypatch):
    """A builtin fixture that fails its own validation is an internal bug:
    it raises RuntimeError naming the report, also under python -O."""
    from zsalg import fixtures
    from zsalg.kgraph import KGraph
    from zsalg.report import failing

    def broken(pres, bound=None):
        return KGraph(pres), failing("kgraph_factorization", witness="planted", bound=bound)

    monkeypatch.setattr(fixtures, "validate_kgraph", broken)
    with pytest.raises(RuntimeError, match="kgraph_factorization"):
        fixtures.kgraph_k1()


def test_compose_reads_the_normal_form_memo():
    """KGraph keeps one memo of composites, its id rows: after a validate
    run on k1, every composite of the window equals the normal form of the
    concatenated edges on a fresh graph, and there is no second memo."""
    from zsalg.cli import build_parser, builtin_workspace, cmd_validate

    ws = builtin_workspace("k1")
    cmd_validate(ws, build_parser().parse_args(["validate", "--fixture", "k1"]))
    graph, fresh = ws.graph, kgraph_k1(ws.bound)
    assert not hasattr(graph, "_compose_memo")
    window = graph.morphisms(ws.bound)
    for p in window:
        for q in window:
            want = fresh.nf(p.edges + q.edges, rng=p.rng) if p.src == q.rng else None
            assert graph.compose(p, q) == want


def _full_pass_nf(graph, rev, seq, log):
    """KGraph.nf's rewrite loop as it was before its passes were bounded,
    kept as the oracle: whole bubble passes until one makes no swap.  Each
    square it applies is logged."""
    work = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            a, b = work[i], work[i + 1]
            if graph.color(a) > graph.color(b):
                log.append((a, b))
                work[i], work[i + 1] = rev[(a, b)]
                changed = True
    return tuple(work)


class _LoggedSquares(dict):
    """A square table that logs every lookup."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def __getitem__(self, key):
        self.log.append(key)
        return super().__getitem__(key)


def _assert_nf_matches_full_passes(pres, seqs):
    from zsalg.kgraph import KGraph

    graph = KGraph(pres)
    graph.check_squares()
    plain, got_log, want_log = dict(graph.rev), [], []
    graph.rev = _LoggedSquares(plain, got_log)
    for seq in seqs:
        got_log.clear()
        want_log.clear()
        want = _full_pass_nf(graph, plain, seq, want_log)
        assert (graph.nf(seq).edges, got_log) == (want, want_log), seq


def test_nf_applies_the_squares_of_full_bubble_passes():
    """Bounded passes apply the same squares in the same order as whole
    passes: on every edge sequence of length <= 5 of the non-confluent
    broken_three_graph, where the order decides the normal form, and on
    every concatenation of two window paths of k1 and swap2."""
    pres = broken_three_graph()
    names = [e.name for e in pres.edges]
    seqs = [s for n in range(1, 6) for s in itertools.product(names, repeat=n)]
    assert len(seqs) == 3905
    _assert_nf_matches_full_passes(pres, seqs)
    for name in ("k1", "swap2"):
        pres = parse_kgraph(FIXTURE_DOCS[name]["kgraph"])
        window = validate_kgraph(pres, (3, 3))[0].morphisms((3, 3))
        concats = {p.edges + q.edges for p in window for q in window if p.src == q.rng}
        concats.discard(())
        _assert_nf_matches_full_passes(pres, sorted(concats))


def _exactness_cases():
    """(name, presentation, window bound): every fixture graph at twice its
    default bound, broken_three_graph at twice the bound its witness is
    found at, and random_kgraph(0..19) at a window capped at degree 2 per
    color."""
    for name in ("k1", "e2", "swap", "swap2"):
        doc = FIXTURE_DOCS[name]
        yield name, parse_kgraph(doc["kgraph"]), tuple(2 * b for b in doc["bounds"]["degree"])
    yield "broken_three_graph", broken_three_graph(), (2, 2, 2)
    for seed in range(20):
        graph = random_kgraph(seed)
        yield f"random_kgraph({seed})", graph._pres, (2,) * graph.k


_EXACTNESS_CASES = list(_exactness_cases())


@pytest.mark.parametrize(
    "pres, bound", [case[1:] for case in _EXACTNESS_CASES], ids=[case[0] for case in _EXACTNESS_CASES]
)
def test_compose_is_the_normal_form_of_the_concatenation(pres, bound):
    """compose(p, q) == nf(p.edges + q.edges) for every composable pair of
    non-vertex window paths, and compose_ids gives that composite's id, on
    three graphs of one presentation, so that no memo is shared.  This
    holds on broken_three_graph too, whose rewriting is not confluent."""
    from zsalg.kgraph import KGraph

    graph, ids, oracle = KGraph(pres), KGraph(pres), KGraph(pres)
    window = [p for p in graph.morphisms(bound) if p.edges]
    for p in window:
        for q in window:
            got, k = graph.compose(p, q), ids.compose_ids(ids.id_of(p), ids.id_of(q))
            if p.src != q.rng:
                assert got is None and k is None
                continue
            want = oracle.nf(p.edges + q.edges)
            assert got == want and ids.morphs[k] == want, (p, q)


def _counting_nf(graph):
    calls = []
    nf = graph.nf

    def counted(*args, **kwargs):
        calls.append(args)
        return nf(*args, **kwargs)

    graph.nf = counted
    return calls


def test_repeated_compose_makes_no_nf_call():
    """A repeated compose is one memo lookup; a 1-graph never sorts."""
    graph = kgraph_k1((2, 2))
    window = graph.morphisms((2, 2))
    pairs = [(p, q) for p in window for q in window if p.src == q.rng]
    first = [graph.compose(p, q) for p, q in pairs]
    calls = _counting_nf(graph)
    assert [graph.compose(p, q) for p, q in pairs] == first
    assert calls == []

    e2 = kgraph_e2((3,))
    calls = _counting_nf(e2)
    window = e2.morphisms((3,))
    for p in window:
        for q in window:
            e2.compose_ids(e2.id_of(p), e2.id_of(q))
            e2.compose(p, q)
    assert calls == []


def _prefix_oracle_cases():
    """(name, graph): k1, e2, swap2's graph and random_kgraph(0..9)."""
    yield "k1", kgraph_k1()
    yield "e2", kgraph_e2()
    yield "swap2", validate_kgraph(parse_kgraph(FIXTURE_DOCS["swap2"]["kgraph"]))[0]
    for seed in range(10):
        yield f"random_kgraph({seed})", random_kgraph(seed)


_PREFIX_ORACLE_CASES = list(_prefix_oracle_cases())


@pytest.mark.parametrize(
    "graph", [case[1] for case in _PREFIX_ORACLE_CASES], ids=[case[0] for case in _PREFIX_ORACLE_CASES]
)
def test_extends_matches_a_composition_oracle(graph):
    """extends(lam, mu), one factorization of lam, holds exactly when some
    x of degree d(lam) - d(mu) at s(mu) has mu x = lam: an oracle by
    composition, on a second graph of the same presentation, that never
    factorizes.  Every same-range pair of the window at degree 2 per color."""
    oracle = KGraph(graph._pres)
    window = graph.morphisms((2,) * graph.k)
    seen = set()
    for lam in window:
        for mu in window:
            if lam.rng != mu.rng:
                continue
            want = deg_le(mu.degree, lam.degree) and any(
                oracle.compose(mu, x) == lam
                for x in oracle.paths(mu.src, deg_sub(lam.degree, mu.degree))
            )
            assert graph.extends(lam, mu) == want, (lam, mu)
            seen.add(want)
    assert seen == {True, False}


def test_compose_keeps_no_composite_in_the_normal_form_memo():
    """Composites live in the id rows only: composing every window pair of
    e2, a 1-graph, which never sorts, adds nothing to nf's memo."""
    graph = kgraph_e2((3,))
    window = graph.morphisms((3,))
    before = len(graph._nf_memo)
    for p in window:
        for q in window:
            graph.compose(p, q)
    assert len(graph._nf_memo) == before


@pytest.mark.parametrize(
    "graph", [case[1] for case in _PREFIX_ORACLE_CASES], ids=[case[0] for case in _PREFIX_ORACLE_CASES]
)
def test_each_path_is_one_object(graph):
    """Every path the graph hands out is its id's object: the window's
    paths, nf of their edges, identities, composites and both factors."""
    window = graph.morphisms((2,) * graph.k)
    for p in window:
        assert graph.morphs[graph.id_of(p)] is p
        assert graph.nf(p.edges, p.rng) is p
    for v in graph.vertices:
        assert graph.identity(v) is graph.identity(v) is graph.nf((), v)
    for p in window:
        for q in window:
            if p.src == q.rng:
                assert graph.compose(p, q) is graph.nf(p.edges + q.edges, p.rng)
        for m, n in deg_splits(p.degree):
            mu, nu = graph.factorize(p, m, n)
            assert mu is graph.morphs[graph.id_of(mu)] is graph.nf(mu.edges, p.rng)
            assert nu is graph.morphs[graph.id_of(nu)] is graph.nf(nu.edges, mu.src)


@pytest.mark.parametrize("name", [case[0] for case in _PREFIX_ORACLE_CASES])
def test_composing_the_window_compares_no_paths(monkeypatch, name):
    """After validate_kgraph, composing every window pair looks each path
    up by identity: Path.__eq__ is never called."""
    graph = next(graph for case, graph in _prefix_oracle_cases() if case == name)
    window = graph.morphisms((2,) * graph.k)
    calls, real = [], Path.__eq__

    def counted(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Path, "__eq__", counted)
    for p in window:
        for q in window:
            graph.compose(p, q)
    assert calls == []


@pytest.mark.parametrize("name", ["k1", "swap2"])
def test_cofactor_compares_edges_not_paths(monkeypatch, name):
    """_cofactor compares the head's edges with a's: over every window pair
    it makes no Path.__eq__ call, and a path equal to one of the graph's
    own but a different object gives the same answer."""
    graph = validate_kgraph(parse_kgraph(FIXTURE_DOCS[name]["kgraph"]))[0]
    window = graph.morphisms((2,) * graph.k)
    calls, real = [], Path.__eq__

    def counted(self, other):
        if sys._getframe(1).f_code.co_name == "_cofactor":
            calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Path, "__eq__", counted)
    answers = set()
    for a in window:
        twin = Path(a.edges, a.rng, a.src, a.degree)
        for b in window:
            answer = graph._cofactor(a, b)
            assert graph._cofactor(twin, b) == answer
            answers.add(bool(answer))
    assert calls == []
    assert answers == {True, False}


def _sampled_graphs(monkeypatch, seeds):
    """(graph, report) for every presentation random_kgraph validates over
    ``seeds``: the samples its retry discards as well as the one it keeps.
    A sample whose square table is malformed raises and is not recorded."""
    from zsalg import fixtures

    seen = []

    def recorded(pres, bound=None):
        seen.append(validate_kgraph(pres, bound))
        return seen[-1]

    monkeypatch.setattr(fixtures, "validate_kgraph", recorded)
    for seed in seeds:
        random_kgraph(seed)
    return seen


def test_critical_triples_decide_confluence(monkeypatch):
    """Newman's lemma, cross-checked: whenever a sampled presentation's
    critical triples resolve, every composable edge sequence of up to 4
    edges has one normal form under every rewrite order.  Some samples
    fail the triples and some of rank >= 2 resolve them, so neither side
    is vacuous."""
    failed_triples = resolved = 0
    for graph, report in _sampled_graphs(monkeypatch, range(100)):
        if not report and report.witness[0] == "critical_triple":
            failed_triples += 1
            continue
        resolved += graph.k >= 2
        edges = graph.edge.values()
        seqs = [(e.name,) for e in edges]
        for _ in range(3):
            seqs = [s + (e.name,) for s in seqs for e in edges if graph.edge[s[-1]].src == e.rng]
            for seq in seqs:
                assert len(graph.nf_closure(seq)) == 1, seq
    assert failed_triples and resolved


@pytest.mark.parametrize(
    "seq, message",
    [
        (("a", "q"), "no edge 'q'"),
        (("e", "e"), "'e' then 'e': s(e) = 'w' is not r(e) = 'v'"),
        (("m", "e", "l", "e"), "'l' then 'e': s(l) = 'w' is not r(e) = 'v'"),
    ],
    ids=["unknown-edge", "pair", "later-pair"],
)
def test_nf_refuses_an_edge_list_that_is_no_path(seq, message):
    """nf names the first unknown edge, or the first adjacent pair whose
    endpoints do not meet, and keeps nothing for it."""
    # e: w -> v, a loop l at w, loops a and m at v
    edges = [Edge("e", 1, "v", "w"), Edge("l", 1, "w", "w")]
    edges += [Edge(name, 1, "v", "v") for name in ("a", "m")]
    graph, report = validate_kgraph(KGraphPresentation(1, ["v", "w"], edges, []), (2,))
    assert report
    with pytest.raises(NotAPathError) as err:
        graph.nf(seq)
    assert str(err.value) == message
    assert seq not in graph._nf_memo
