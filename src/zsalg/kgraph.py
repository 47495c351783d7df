"""Higher-rank graph presentations and path arithmetic.

A rank-k graph is presented by a finite colored graph together with a
commuting-square table: for each pair of colors i < j, a bijection between
the composable edge pairs (e: color i, f: color j) and (f': color j,
e': color i) with matching endpoints, read as the relation ef = f'e'.

Paths are stored in a color-sorted normal form (all color-1 edges first,
then color-2, ...) reached by square rewriting.  Validation certifies that
the rewriting is confluent -- which makes composition well defined and the
degree-wise factorization unique -- by checking the square table is a
complete bijection, resolving every strictly color-descending edge triple
both ways (the only overlapping redexes, so by Newman's lemma this certifies
confluence at every degree), and sweeping a small window of paths through an
exhaustive factorization round-trip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .categories import SmallCategory
from .errors import DegreeMismatchError, MalformedSquaresError
from .report import failing, passing


# ---------------------------------------------------------------------------
# degree vectors (elements of N^k as tuples)


def deg_zero(k):
    return (0,) * k


def deg_unit(k, i):
    """The i-th standard generator of N^k, colors 1-based."""
    return tuple(1 if c == i else 0 for c in range(1, k + 1))


def deg_add(m, n):
    return tuple(a + b for a, b in zip(m, n))


def deg_sub(m, n):
    return tuple(a - b for a, b in zip(m, n))


def deg_le(m, n):
    return all(a <= b for a, b in zip(m, n))


def deg_join(m, n):
    return tuple(max(a, b) for a, b in zip(m, n))


def deg_splits(n):
    """All (m, n - m) with 0 <= m <= n, lexicographically ordered."""
    ranges = [range(c + 1) for c in n]
    return [(m, deg_sub(n, m)) for m in map(tuple, itertools.product(*ranges))]


@dataclass(frozen=True)
class Edge:
    name: str
    color: int  # 1-based
    rng: str    # r(e)
    src: str    # s(e)


@dataclass(frozen=True, eq=False)
class Path:
    """A morphism of the path category in color-sorted normal form."""

    edges: tuple  # edge names; () for a vertex
    rng: str
    src: str
    degree: tuple

    def __post_init__(self):
        # paths are hashed heavily by the composition memos; degree is part
        # of identity so paths of different-rank graphs never collide
        object.__setattr__(self, "_hash", hash((self.edges, self.rng, self.degree)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            self is other
            or isinstance(other, Path)
            and self.edges == other.edges
            and self.rng == other.rng
            and self.degree == other.degree
        )

    def is_vertex(self):
        return not self.edges

    def __repr__(self):
        return self.edges and "".join(self.edges) or f"<{self.rng}>"


@dataclass
class KGraphPresentation:
    k: int
    vertices: list
    edges: list              # of Edge
    squares: list = field(default_factory=list)  # ((e, f), (f2, e2)) name pairs, color(e) < color(f)


class KGraph(SmallCategory):
    """Validated k-graph: the category of normal-form paths.

    Construct via ``validate_kgraph``; the constructor only indexes the
    presentation and trusts nothing.
    """

    def __init__(self, pres: KGraphPresentation):
        self.k = pres.k
        self.vertices = tuple(sorted(pres.vertices))
        self.edge = {e.name: e for e in pres.edges}
        if len(self.edge) != len(pres.edges):
            raise MalformedSquaresError("duplicate edge names")
        self.edges_by_color = {
            i: tuple(sorted(e.name for e in pres.edges if e.color == i))
            for i in range(1, self.k + 1)
        }
        #: edges of color i with range v (the extension points of v-rooted paths)
        self.edges_at = {}
        for e in pres.edges:
            self.edges_at.setdefault((e.rng, e.color), []).append(e.name)
        for key in self.edges_at:
            self.edges_at[key].sort()
        # square table, both directions: fwd[(e, f)] = (f2, e2) with
        # color(e) < color(f) and ef = f2 e2; rev is its inverse.
        self.fwd = {}
        self.rev = {}
        for (e, f), (f2, e2) in pres.squares:
            self.fwd[(e, f)] = (f2, e2)
            self.rev[(f2, e2)] = (e, f)
        self._paths_memo = {}
        self._compose_memo = {}
        self._nf_memo = {}
        self._window_memo = {}
        self._pres = pres

    # -- presentation-level sanity (raises MalformedSquaresError)

    def check_squares(self):
        pairs_asc = set()   # composable (e, f), color(e) < color(f)
        pairs_desc = set()  # composable (f, e), color(f) > color(e)
        for a, b in itertools.product(self.edge.values(), repeat=2):
            if a.src != b.rng:
                continue
            if a.color < b.color:
                pairs_asc.add((a.name, b.name))
            elif a.color > b.color:
                pairs_desc.add((a.name, b.name))
        if set(self.fwd) != pairs_asc:
            missing = pairs_asc - set(self.fwd)
            extra = set(self.fwd) - pairs_asc
            raise MalformedSquaresError(
                f"square table domain mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        if set(self.rev) != pairs_desc or len(self.rev) != len(self.fwd):
            raise MalformedSquaresError("square table is not a bijection onto descending pairs")
        for (e, f), (f2, e2) in self.fwd.items():
            ee, ff, ff2, ee2 = self.edge[e], self.edge[f], self.edge[f2], self.edge[e2]
            if ff2.color != ff.color or ee2.color != ee.color:
                raise MalformedSquaresError(f"square {e}{f} = {f2}{e2} mixes colors")
            if ff2.rng != ee.rng or ff2.src != ee2.rng or ee2.src != ff.src:
                raise MalformedSquaresError(f"square {e}{f} = {f2}{e2} has inconsistent endpoints")

    # -- rewriting

    def color(self, name):
        return self.edge[name].color

    def nf(self, seq, rng=None):
        """Normalize an edge sequence to a color-sorted Path.

        Sorting is by adjacent-descent rewriting through the square table;
        validation certifies the result is independent of rewrite order.
        """
        seq = tuple(seq)
        if not seq:
            if rng is None:
                raise ValueError("vertex path needs an explicit vertex")
            return Path((), rng, rng, deg_zero(self.k))
        cached = self._nf_memo.get(seq)
        if cached is not None:
            return cached
        work = list(seq)
        changed = True
        while changed:
            changed = False
            for i in range(len(work) - 1):
                a, b = work[i], work[i + 1]
                if self.color(a) > self.color(b):
                    work[i], work[i + 1] = self.rev[(a, b)]
                    changed = True
        degree = [0] * self.k
        for name in work:
            degree[self.color(name) - 1] += 1
        path = Path(
            tuple(work),
            self.edge[work[0]].rng,
            self.edge[work[-1]].src,
            tuple(degree),
        )
        self._nf_memo[seq] = path
        return path

    def nf_closure(self, seq, memo=None):
        """All normal forms reachable from ``seq`` under every rewrite order.

        The confluence oracle: a valid presentation yields a singleton.
        """
        seq = tuple(seq)
        if memo is None:
            memo = {}
        if seq in memo:
            return memo[seq]
        memo[seq] = frozenset()  # cycle guard; rewriting terminates, so unused
        redexes = [
            i for i in range(len(seq) - 1) if self.color(seq[i]) > self.color(seq[i + 1])
        ]
        if not redexes:
            memo[seq] = frozenset([seq])
            return memo[seq]
        out = set()
        for i in redexes:
            repl = self.rev[(seq[i], seq[i + 1])]
            out |= self.nf_closure(seq[:i] + repl + seq[i + 2 :], memo)
        memo[seq] = frozenset(out)
        return memo[seq]

    # -- SmallCategory interface

    def objects(self):
        return self.vertices

    def identity(self, v):
        return Path((), v, v, deg_zero(self.k))

    def is_identity(self, m):
        return m.is_vertex()

    def r(self, m):
        return m.rng

    def s(self, m):
        return m.src

    def size(self, m):
        return m.degree

    def compose(self, p: Path, q: Path):
        if p.src != q.rng:
            return None
        if p.is_vertex():
            return q
        if q.is_vertex():
            return p
        key = (p.edges, q.edges)
        out = self._compose_memo.get(key)
        if out is None:
            out = self.nf(p.edges + q.edges)
            self._compose_memo[key] = out
        return out

    def sort_key(self, m):
        return (m.degree, m.edges, m.src)

    def morphisms(self, bound):
        bound = tuple(bound)
        out = self._window_memo.get(bound)
        if out is None:
            out = []
            for n in sorted(m for m, _ in deg_splits(bound)):
                out.extend(self.all_paths(n))
            self._window_memo[bound] = out
        return list(out)

    # -- enumeration

    def paths(self, v, n):
        """vLambda^n: paths of degree n with range v, in normal-form order."""
        n = tuple(n)
        key = (v, n)
        cached = self._paths_memo.get(key)
        if cached is not None:
            return cached
        if n == deg_zero(self.k):
            out = (self.identity(v),)
        else:
            i = next(c + 1 for c, x in enumerate(n) if x > 0)
            rest = deg_sub(n, deg_unit(self.k, i))
            out = tuple(
                Path((e,) + tail.edges, v, tail.src, n)
                for e in self.edges_at.get((v, i), ())
                for tail in self.paths(self.edge[e].src, rest)
            )
        self._paths_memo[key] = out
        return out

    def all_paths(self, n):
        return [p for v in self.vertices for p in self.paths(v, n)]

    def le_paths(self, v, n):
        """vLambda^{<=n}: degree <= n, and no color-i edge leaves the source
        whenever the degree falls short of n in color i."""
        n = tuple(n)
        out = []
        for m, _ in deg_splits(n):
            for p in self.paths(v, m):
                if all(
                    m[i - 1] >= n[i - 1] or not self.edges_at.get((p.src, i))
                    for i in range(1, self.k + 1)
                ):
                    out.append(p)
        return out

    # -- factorization

    def pull_color(self, seq, i):
        """Extract the leftmost color-i edge: seq = (e,) . rest as morphisms.

        Moves the edge left through lower-color edges by forward square
        applications; the remainder stays color-sorted.
        """
        work = list(seq)
        pos = next(j for j, name in enumerate(work) if self.color(name) == i)
        while pos > 0:
            x, y = work[pos - 1], work[pos]
            y2, x2 = self.fwd[(x, y)]
            work[pos - 1], work[pos] = y2, x2
            pos -= 1
        return work[0], tuple(work[1:])

    def factorize(self, lam: Path, m, n):
        """The unique (mu, nu) with lam = mu nu, d(mu) = m, d(nu) = n."""
        m, n = tuple(m), tuple(n)
        if deg_add(m, n) != lam.degree or not all(x >= 0 for x in m + n):
            raise DegreeMismatchError(f"d(lam)={lam.degree} does not split as {m}+{n}")
        head = []
        work = lam.edges
        for i in range(1, self.k + 1):
            for _ in range(m[i - 1]):
                e, work = self.pull_color(work, i)
                head.append(e)
        mu = self.nf(head, rng=lam.rng) if head else self.identity(lam.rng)
        mid = self.edge[head[-1]].src if head else lam.rng
        nu = self.nf(work, rng=mid) if work else self.identity(mid)
        return mu, nu

    def prefix(self, lam: Path, m):
        return self.factorize(lam, m, deg_sub(lam.degree, m))[0]

    def extends(self, lam: Path, mu: Path):
        """mu is an initial factor of lam."""
        return (
            lam.rng == mu.rng
            and deg_le(mu.degree, lam.degree)
            and self.prefix(lam, mu.degree) == mu
        )

    # -- minimal common extensions

    def mce(self, mu: Path, nu: Path):
        """MCE(mu, nu): common extensions of degree d(mu) v d(nu), computed by
        filtering the degree window through prefix tests."""
        if mu.rng != nu.rng:
            return ()
        j = deg_join(mu.degree, nu.degree)
        return tuple(
            lam
            for lam in self.paths(mu.rng, j)
            if self.extends(lam, mu) and self.extends(lam, nu)
        )

    def mce_oracle(self, mu: Path, nu: Path):
        """Independent double-extension oracle: extend both sides to the join
        degree and intersect the resulting sets."""
        if mu.rng != nu.rng:
            return ()
        j = deg_join(mu.degree, nu.degree)
        left = {self.compose(mu, x) for x in self.paths(mu.src, deg_sub(j, mu.degree))}
        right = {self.compose(nu, y) for y in self.paths(nu.src, deg_sub(j, nu.degree))}
        return tuple(sorted(left & right, key=self.sort_key))

    # -- the SmallCategory divisibility and splitting protocol, answered by
    #    factorization (exact, so the window bound is not needed)

    def divisors_into(self, a: Path, b: Path, bound):
        if not self.extends(b, a):
            return []
        return [self.factorize(b, a.degree, deg_sub(b.degree, a.degree))[1]]

    def divides(self, a: Path, b: Path, bound) -> bool:
        return a == b or self.extends(b, a)

    def meets(self, a: Path, b: Path, bound) -> bool:
        return bool(self.mce(a, b))

    def meet(self, c1: Path, c2: Path, bound):
        return self.mce(c1, c2), "MCE"

    def peel_right(self, m: Path):
        if len(m.edges) <= 1:
            return None
        return self.nf(m.edges[:-1]), self.nf(m.edges[-1:])

    def peel_left(self, m: Path):
        if len(m.edges) <= 1:
            return None
        return self.nf(m.edges[:1]), self.nf(m.edges[1:])

    def generator_key(self, m: Path):
        return m.edges[0]


# ---------------------------------------------------------------------------
# validation


def validate_kgraph(pres: KGraphPresentation, bound=None) -> tuple:
    """Certify the factorization property; returns (KGraph, Report).

    Raises MalformedSquaresError for structural table defects.  The report
    fails with a witness path if rewriting is not confluent.  Confluence is
    certified for every degree via the critical color-descending triples;
    additionally all paths of degree <= bound (default 3 per color) with at
    most 4 edges are swept through an exhaustive factorization round-trip.
    """
    graph = KGraph(pres)
    if bound is None:
        bound = (3,) * pres.k
    if pres.k < 0:
        raise MalformedSquaresError("rank must be >= 0")
    if pres.k == 0 and pres.edges:
        raise MalformedSquaresError("a 0-graph has no edges")
    if pres.k == 1 and pres.squares:
        raise MalformedSquaresError("a 1-graph has no squares")
    graph.check_squares()
    bound = tuple(bound)

    # critical triples: every strictly color-descending composable triple
    # must reach a single normal form under both rewrite starts.
    for a in graph.edge.values():
        for b in graph.edge.values():
            if a.src != b.rng or a.color <= b.color:
                continue
            for c in graph.edge.values():
                if b.src != c.rng or b.color <= c.color:
                    continue
                forms = graph.nf_closure((a.name, b.name, c.name))
                if len(forms) != 1:
                    return graph, failing(
                        "kgraph_factorization",
                        witness=("critical_triple", (a.name, b.name, c.name), sorted(forms)),
                        bound=bound,
                    )

    # window sweep: normal-form uniqueness and factorization round-trip.
    seqs = [()]
    for _ in range(min(4, sum(bound))):
        grown = []
        for seq in seqs:
            src = graph.edge[seq[-1]].src if seq else None
            for e in graph.edge.values():
                if src is not None and e.rng != src:
                    continue
                cand = seq + (e.name,)
                degree = [0] * graph.k
                for name in cand:
                    degree[graph.color(name) - 1] += 1
                if deg_le(tuple(degree), bound):
                    grown.append(cand)
        seqs.extend(grown)
        if not grown:
            break
    memo = {}
    for seq in seqs:
        if not seq:
            continue
        forms = graph.nf_closure(seq, memo)
        if len(forms) != 1:
            return graph, failing(
                "kgraph_factorization",
                witness=("non_confluent_path", seq, sorted(forms)),
                bound=bound,
            )
    checked = set()
    for seq in seqs:
        if not seq:
            continue
        lam = graph.nf(seq)
        if lam in checked:
            continue
        checked.add(lam)
        for m, n in deg_splits(lam.degree):
            mu, nu = graph.factorize(lam, m, n)
            if graph.compose(mu, nu) != lam:
                return graph, failing(
                    "kgraph_factorization",
                    witness=("factorize_roundtrip", lam, m, n, mu, nu),
                    bound=bound,
                )
    # the factorization property both ways: composing any window pair and
    # re-factorizing must return exactly that pair.
    for mu in sorted(checked, key=graph.sort_key):
        for nu in sorted(checked, key=graph.sort_key):
            if mu.src != nu.rng or not deg_le(deg_add(mu.degree, nu.degree), bound):
                continue
            lam = graph.compose(mu, nu)
            if graph.factorize(lam, mu.degree, nu.degree) != (mu, nu):
                return graph, failing(
                    "kgraph_factorization",
                    witness=("factorization_not_unique", mu, nu, lam),
                    bound=bound,
                )
    graph.mark_validated(bound)
    return graph, passing(
        "kgraph_factorization", bound=bound, swept_paths=len(checked), critical_triples=True
    )


def structural_predicates(graph: KGraph, bound) -> dict:
    """Row-finiteness, no-sources and local convexity, with witnesses.

    A finite presentation is row-finite outright; the other two are genuine
    checks.  Values are Reports keyed by predicate name.
    """
    bound = tuple(bound)
    max_row = 0
    for v in graph.vertices:
        for n, _ in deg_splits(bound):
            max_row = max(max_row, len(graph.paths(v, n)))
    row = passing("row_finite", bound=bound, max_row=max_row)

    no_sources = passing("no_sources", bound=bound)
    for v in graph.vertices:
        for i in range(1, graph.k + 1):
            if not graph.edges_at.get((v, i)):
                no_sources = failing("no_sources", witness=(v, i), bound=bound)
                break
        if not no_sources:
            break

    convex = passing("locally_convex", bound=bound)
    for e in graph.edge.values():
        for j in range(1, graph.k + 1):
            if j == e.color:
                continue
            if graph.edges_at.get((e.rng, j)) and not graph.edges_at.get((e.src, j)):
                convex = failing("locally_convex", witness=e.name, bound=bound)
                break
        if not convex:
            break
    return {"row_finite": row, "no_sources": no_sources, "locally_convex": convex}


def sub_kgraph(graph: KGraph, colors) -> KGraphPresentation:
    """Restriction to the paths whose degree is supported on ``colors``.

    Colors are renumbered 1..|S| preserving order; for S = {} this is the
    0-graph on the vertex set.
    """
    keep = sorted(set(colors))
    remap = {old: new + 1 for new, old in enumerate(keep)}
    edges = [
        Edge(e.name, remap[e.color], e.rng, e.src)
        for e in graph.edge.values()
        if e.color in remap
    ]
    squares = [
        ((e, f), (f2, e2))
        for (e, f), (f2, e2) in sorted(graph.fwd.items())
        if graph.color(e) in remap and graph.color(f) in remap
    ]
    return KGraphPresentation(len(keep), list(graph.vertices), edges, squares)


def skeleton_split(graph: KGraph, p: int, q: int):
    """Split off the last q colors as a matched pair of sub-path-categories.

    Returns (acting_pres, acted_pres, left, right): the first p colors form
    the acting category, the last q the acted one;
    ``left[(a, d)]`` / ``right[(a, d)]`` give the generator-level actions
    obtained from the factorization ad = (a |> d)(a <| d).
    """
    graph.require_validated()
    if p + q != graph.k or p < 0 or q < 0:
        raise DegreeMismatchError(f"p+q={p}+{q} != k={graph.k}")
    acting = sub_kgraph(graph, range(1, p + 1))
    acted = sub_kgraph(graph, range(p + 1, graph.k + 1))
    left, right = {}, {}
    for a in graph.edge.values():
        if a.color > p:
            continue
        for d in graph.edge.values():
            if d.color <= p or a.src != d.rng:
                continue
            lam = graph.nf((a.name, d.name))
            d2, a2 = graph.factorize(lam, deg_unit(graph.k, d.color), deg_unit(graph.k, a.color))
            left[(a.name, d.name)] = d2.edges[0]
            right[(a.name, d.name)] = a2.edges[0]
    return acting, acted, left, right
