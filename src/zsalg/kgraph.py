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

Each path is one object with one id, built by one routine (_path_id); nf
refuses an edge list that is not a path, and compose, divisors_into and
meet keep their answers by id (see their docstrings).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .categories import SmallCategory
from .errors import DegreeMismatchError, MalformedSquaresError, NotAPathError
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
        super().__init__()
        self.k = pres.k
        self.vertices = tuple(sorted(pres.vertices))
        self.edge = {e.name: e for e in pres.edges}
        if len(self.edge) != len(pres.edges):
            raise MalformedSquaresError("duplicate edge names")
        self._color = {e.name: e.color for e in pres.edges}
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
        #: edge sequence -> its normal form; composites live in the id rows
        self._nf_memo = {}
        #: normal-form edge tuple, or vertex for a vertex path -> id: every
        #: path the graph hands out, filled by _path_id
        self._ids_by_edges = {}
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
        return self._color[name]

    def nf(self, seq, rng=None):
        """Normalize an edge sequence to a color-sorted Path.

        Sorting is by adjacent-descent rewriting through the square table;
        validation certifies the result is independent of rewrite order.
        A sequence that is not a path raises NotAPathError.
        """
        seq = tuple(seq)
        if not seq:
            if rng is None:
                raise NotAPathError("an empty edge list names no vertex")
            return self.identity(rng)
        cached = self._nf_memo.get(seq)
        if cached is not None:
            return cached
        for name in seq:
            if name not in self.edge:
                raise NotAPathError(f"no edge {name!r}")
        for a, b in zip(seq, seq[1:]):
            s_a, r_b = self.edge[a].src, self.edge[b].rng
            if s_a != r_b:
                raise NotAPathError(f"{a!r} then {b!r}: s({a}) = {s_a!r} is not r({b}) = {r_b!r}")
        # bubble passes: each swaps every descent it meets, left to right.
        # Squares keep colors (check_squares), so a swap swaps two colors,
        # the pairs before the pass's first swap stay sorted, and the
        # largest color bubbles to its last swap: the next pass scans only
        # the pairs from one before the first swap to before the last.
        work = list(seq)
        color, rev = self._color, self.rev
        cols = [color[name] for name in work]
        lo, hi = 0, len(work) - 1
        while lo < hi:
            first = last = -1
            for i in range(lo, hi):
                if cols[i] > cols[i + 1]:
                    work[i], work[i + 1] = rev[(work[i], work[i + 1])]
                    cols[i], cols[i + 1] = cols[i + 1], cols[i]
                    if first < 0:
                        first = i
                    last = i
            lo, hi = max(first - 1, 0), last
        self._nf_memo[seq] = path = self.morphs[self._path_id(tuple(work))]
        return path

    def _path_id(self, edges, v=None):
        """The id of the path with normal-form ``edges``, or of the vertex
        v when edges is (): the one place a Path is built.  Each path the
        graph hands out is morphs[id], so id_of finds it by identity."""
        key = edges or v
        k = self._ids_by_edges.get(key)
        if k is None:
            colors = list(map(self._color.__getitem__, edges))
            degree = tuple(map(colors.count, range(1, self.k + 1)))
            ends = (self.edge[edges[0]].rng, self.edge[edges[-1]].src) if edges else (v, v)
            k = self._ids_by_edges[key] = self.id_of(Path(edges, *ends, degree))
        return k

    def nf_closure(self, seq):
        """All normal forms reachable from ``seq`` under every rewrite order.

        The confluence oracle: a valid presentation yields a singleton.
        """
        seq = tuple(seq)
        out = set()
        for i in range(len(seq) - 1):
            if self.color(seq[i]) > self.color(seq[i + 1]):
                out |= self.nf_closure(seq[:i] + self.rev[(seq[i], seq[i + 1])] + seq[i + 2 :])
        return frozenset(out or [seq])

    # -- SmallCategory interface

    def objects(self):
        return self.vertices

    def identity(self, v):
        return self.morphs[self._path_id((), v)]

    def is_identity(self, m):
        return not m.edges

    def r(self, m):
        return m.rng

    def s(self, m):
        return m.src

    def size(self, m):
        return m.degree

    def compose(self, p: Path, q: Path):
        """p q, or None where undefined: read from the id rows, which
        compose_ids fills.  So each composite is kept once, by id."""
        k = self.compose_ids(self.id_of(p), self.id_of(q))
        return None if k is None else self.morphs[k]

    def _joined_edges(self, a, b):
        """The edges of nf(a + b) for normal forms a and b.  Only the
        unsorted middle goes through nf: the trailing edges of a above the
        color of b's first edge and the leading edges of b below the color
        of a's last edge.  The middle's colors lie between those of the
        sorted prefix and suffix, so no bubble swap crosses either boundary
        and the result is nf's, confluent or not; a 1-graph never sorts."""
        color = self._color
        first, last = color[b[0]], color[a[-1]]
        if last <= first:
            return a + b
        lo, hi = len(a), 0
        while lo > 0 and color[a[lo - 1]] > first:
            lo -= 1
        while hi < len(b) and color[b[hi]] < last:
            hi += 1
        return a[:lo] + self.nf(a[lo:] + b[:hi]).edges + b[hi:]

    def compose_ids(self, i, j):
        """SmallCategory.compose_ids, with a composite's id found by its
        edge tuple (_path_id).  compose reads its answers, so this is the
        one composition."""
        row = self.rows[i]
        k = row.get(j, -1)
        if k == -1:
            p, q = self.morphs[i], self.morphs[j]
            if p.src != q.rng:
                return None
            if not p.edges:
                k = j
            elif not q.edges:
                k = i
            else:
                k = self._path_id(self._joined_edges(p.edges, q.edges))
            row[j] = k
        return k

    def sort_key(self, m):
        return (m.degree, m.edges, m.src)

    def morphisms(self, bound):
        out = []
        for n in sorted(m for m, _ in deg_splits(tuple(bound))):
            out.extend(self.all_paths(n))
        return out

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
                self.morphs[self._path_id((e,) + tail.edges)]
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

    def extends(self, lam: Path, mu: Path):
        """mu is an initial factor of lam: the cofactor test, one
        factorization of lam whose head is compared with mu."""
        return bool(self._cofactor(mu, lam))

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
    #    factorization.  The answers are exact, so the window bound is not
    #    needed, and each is kept per id pair (SmallCategory.kept), meet's
    #    per unordered pair since MCE(mu, nu) = MCE(nu, mu) in paths order:
    #    the derived divides and meets read these kept answers.

    def divisors_into(self, a: Path, b: Path, bound):
        return list(self.kept("divisors_into", a, b, self._cofactor))

    def _cofactor(self, a: Path, b: Path):
        """(x,) with a x = b, else (): one factorization of b, whose head
        is compared with a.  The head has a's range and degree, so their
        edges decide."""
        if a.rng != b.rng or not deg_le(a.degree, b.degree):
            return ()
        head, rest = self.factorize(b, a.degree, deg_sub(b.degree, a.degree))
        return (rest,) if head.edges == a.edges else ()

    def meet(self, c1: Path, c2: Path, bound):
        return self.kept("meet", c1, c2, lambda a, b: (self.mce(a, b), "MCE"), symmetric=True)

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

    Raises MalformedSquaresError for structural defects: an edge color
    outside 1..k, an undeclared endpoint, a broken square table.  The report
    fails with a ``critical_triple`` witness if rewriting is not confluent.

    Confluence at every degree follows from the strictly color-descending
    edge triples alone, by Newman's lemma (Ann. of Math. 43, 1942).  A
    rewrite replaces two adjacent edges of falling colors by the other side
    of their square, which keeps colors, so it removes exactly one color
    inversion: rewriting terminates.  Two redexes that do not overlap
    commute, and two that do sit on three adjacent edges of strictly
    falling colors.  So once every such triple reaches a single normal
    form, rewriting is locally confluent, and hence confluent.

    The window's paths of 1 to 4 edges with degree <= bound (default 3 per
    color) are then swept through an exhaustive factorization round-trip,
    and every window pair through compose and factorize: the only runtime
    check of those two on composites longer than 4 edges.
    """
    graph = KGraph(pres)
    if bound is None:
        bound = (3,) * pres.k
    if pres.k < 0:
        raise MalformedSquaresError("rank must be >= 0")
    if pres.k == 1 and pres.squares:
        raise MalformedSquaresError("a 1-graph has no squares")
    for e in pres.edges:
        if not 1 <= e.color <= pres.k:
            raise MalformedSquaresError(f"edge {e.name!r} has color {e.color}, not in 1..{pres.k}")
        if e.rng not in graph.vertices or e.src not in graph.vertices:
            raise MalformedSquaresError(f"edge {e.name!r} joins an undeclared vertex")
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

    # window sweep: factorization round-trip on the paths of 1 to 4 edges
    degrees = [n for n, _ in deg_splits(tuple(min(b, 4) for b in bound)) if 0 < sum(n) <= 4]
    window = sorted((lam for n in degrees for lam in graph.all_paths(n)), key=graph.sort_key)
    for lam in window:
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
    for mu in window:
        for nu in window:
            if mu.src != nu.rng or not deg_le(deg_add(mu.degree, nu.degree), bound):
                continue
            lam = graph.compose(mu, nu)
            if graph.factorize(lam, mu.degree, nu.degree) != (mu, nu):
                return graph, failing(
                    "kgraph_factorization",
                    witness=("factorization_not_unique", mu, nu, lam),
                    bound=bound,
                )
    return graph, passing(
        "kgraph_factorization", bound=bound, swept_paths=len(window), critical_triples=True
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
