"""Matched pairs, action extension, and Zappa-Szep product categories.

A matched pair is an acting category C and an acted category D over the same
objects, with a left action (c, d) -> c |> d into D and a right action
(c, d) -> c <| d into C, subject to unit laws, the endpoint condition
s(c |> d) = r(c <| d), and the two interchange identities

    c |> (d1 d2) = (c |> d1)((c <| d1) |> d2)
    (c1 c2) <| d = (c1 <| (c2 |> d))(c2 <| d).

Actions are stored on generators only (edge level for path categories,
element level for groupoids, letter level for free monoids) and extended by
recursion through the interchange identities.  verify_matched_pair certifies
the identities and the independence of the extension from the chosen
factorizations, exhaustively on a window.

The Zappa-Szep product has morphisms dc (path part first) with composition
d1c1 . d2c2 = d1 (c1 |> d2) (c1 <| d2) c2.  When the acting category is a
groupoid with units the vertices and the left action preserves degrees, the
pair is a self-similar action and the product carries the path degree as its
truncation gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .categories import SmallCategory, size_fits
from .errors import NotApplicableError, NotComposableError, UndefinedGeneratorError
from .groupoid import FiniteGroupoid
from .kgraph import KGraph, Path
from .report import Report, failing, passing


class FreeMonoidCategory(SmallCategory):
    """Free monoid on a letter set, as a category of words on the one
    object ``"*"``."""

    obj = "*"

    def __init__(self, letters):
        self.letters = tuple(sorted(letters))

    def objects(self):
        return (self.obj,)

    def identity(self, v):
        return ""

    def is_identity(self, w):
        return w == ""

    def r(self, w):
        return self.obj

    def s(self, w):
        return self.obj

    def size(self, w):
        return len(w)

    def morphisms(self, bound):
        out = [""]
        frontier = [""]
        for _ in range(bound):
            frontier = [w + x for w in frontier for x in self.letters]
            out.extend(frontier)
        return out

    def compose(self, w1, w2):
        return w1 + w2

    def sort_key(self, w):
        return (len(w), w)

    def peel_right(self, w):
        """w = prefix . letter; None when w is a letter or empty."""
        if len(w) <= 1:
            return None
        return w[:-1], w[-1]

    def peel_left(self, w):
        if len(w) <= 1:
            return None
        return w[0], w[1:]


@dataclass
class ActionTable:
    """Generator-level action data: (acting key, acted key) -> morphism."""

    left: dict = field(default_factory=dict)
    right: dict = field(default_factory=dict)


class MatchedPair:
    """An acting/acted pair of categories with generator action tables."""

    def __init__(self, acting: SmallCategory, acted: SmallCategory, table: ActionTable):
        self.acting = acting
        self.acted = acted
        self.table = table
        self._memo = {}

    def is_self_similar_shape(self):
        return isinstance(self.acting, FiniteGroupoid) and set(
            self.acting.units
        ) == set(self.acted.objects())

    def extend(self, c, d):
        """(c |> d, c <| d), by recursion through the interchange identities."""
        key = (c, d)
        out = self._memo.get(key)
        if out is not None:
            return out
        C, D = self.acting, self.acted
        if D.is_identity(d):
            out = (D.identity(C.r(c)), c)
        elif C.is_identity(c):
            out = (d, C.identity(D.s(d)))
        else:
            split_c = C.peel_right(c)
            if split_c is not None:
                c1, gamma = split_c
                mid, tail = self.extend(gamma, d)
                top, head = self.extend(c1, mid)
                out = (top, C.compose(head, tail))
            else:
                split_d = D.peel_left(d)
                if split_d is not None:
                    delta, d2 = split_d
                    first, c_after = self.extend(c, delta)
                    second, c_final = self.extend(c_after, d2)
                    out = (D.compose(first, second), c_final)
                else:
                    k = (C.generator_key(c), D.generator_key(d))
                    if k not in self.table.left or k not in self.table.right:
                        raise UndefinedGeneratorError(f"no action entry for {k}")
                    out = (self.table.left[k], self.table.right[k])
        self._memo[key] = out
        return out

    def left_act(self, c, d):
        return self.extend(c, d)[0]

    def right_act(self, c, d):
        return self.extend(c, d)[1]


def extend_action(pair: MatchedPair, c, d):
    """Public wrapper for the recursive extension."""
    if pair.acting.s(c) != pair.acted.r(d):
        raise NotComposableError(f"s({c}) != r({d})")
    return pair.extend(c, d)


def restrict_pair(pair: MatchedPair, subgraph: KGraph) -> MatchedPair:
    """Restrict a self-similar action to a color-restricted sub-path-category.

    Degree preservation sends each remaining edge to an edge of the same
    color, so the generator tables restrict cleanly; values are re-expressed
    as paths of the subgraph.
    """
    left, right = {}, {}
    for (g, ename), val in pair.table.left.items():
        if ename in subgraph.edge:
            left[(g, ename)] = subgraph.nf(val.edges)
    for (g, ename), val in pair.table.right.items():
        if ename in subgraph.edge:
            right[(g, ename)] = val
    return MatchedPair(pair.acting, subgraph, ActionTable(left, right))


def verify_matched_pair(pair: MatchedPair, bound) -> Report:
    """Exhaustively check the matched-pair laws on a window.

    Stage one checks unit laws and endpoint compatibility; stage two checks
    both interchange identities over all composable (c1, c2, d) and
    (c, d1, d2) tuples drawn from the window -- which simultaneously
    certifies that the extension is independent of how morphisms are
    factorized, since every split appears as a tuple.
    """
    C, D = pair.acting, pair.acted
    cs = C.morphisms(bound)
    ds = D.morphisms(bound)

    for c in cs:
        d_unit = D.identity(C.s(c))
        if pair.extend(c, d_unit) != (D.identity(C.r(c)), c):
            return failing("matched_pair", witness=("unit_law_c", c), bound=bound)
    for d in ds:
        c_unit = C.identity(D.r(d))
        if pair.extend(c_unit, d) != (d, C.identity(D.s(d))):
            return failing("matched_pair", witness=("unit_law_d", d), bound=bound)
    for c in cs:
        for d in ds:
            if C.s(c) != D.r(d):
                continue
            ld, rc = pair.extend(c, d)
            if D.r(ld) != C.r(c):
                return failing("matched_pair", witness=("range_of_left", c, d), bound=bound)
            if D.s(ld) != C.r(rc):
                return failing("matched_pair", witness=("endpoint_mismatch", c, d), bound=bound)
            if C.s(rc) != D.s(d):
                return failing("matched_pair", witness=("source_of_right", c, d), bound=bound)

    for c1 in cs:
        for c2 in cs:
            if C.s(c1) != C.r(c2):
                continue
            c12 = C.compose(c1, c2)
            for d in ds:
                if C.s(c2) != D.r(d):
                    continue
                lhs_l, lhs_r = pair.extend(c12, d)
                mid = pair.left_act(c2, d)
                rhs_l = pair.left_act(c1, mid)
                rhs_r = C.compose(pair.right_act(c1, mid), pair.right_act(c2, d))
                if lhs_l != rhs_l or lhs_r != rhs_r:
                    return failing(
                        "matched_pair", witness=("acting_interchange", c1, c2, d), bound=bound
                    )
    for c in cs:
        for d1 in ds:
            if C.s(c) != D.r(d1):
                continue
            l1, r1 = pair.extend(c, d1)
            for d2 in ds:
                if D.s(d1) != D.r(d2):
                    continue
                d12 = D.compose(d1, d2)
                if not size_fits(D.size(d12), bound):
                    continue
                lhs_l, lhs_r = pair.extend(c, d12)
                rhs_l = D.compose(l1, pair.left_act(r1, d2))
                rhs_r = pair.right_act(r1, d2)
                if lhs_l != rhs_l or lhs_r != rhs_r:
                    return failing(
                        "matched_pair", witness=("acted_interchange", c, d1, d2), bound=bound
                    )
    return passing("matched_pair", bound=bound, acting=len(cs), acted=len(ds))


# ---------------------------------------------------------------------------
# the product category


@dataclass(frozen=True, eq=False)
class ZSMorphism:
    """A product morphism dc: path part first, then tail part."""

    path: Path
    tail: object

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.path, self.tail)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            self is other
            or isinstance(other, ZSMorphism)
            and self.path == other.path
            and self.tail == other.tail
        )

    def __repr__(self):
        return f"({self.path!r}|{self.tail!r})"


class ZSCategory(SmallCategory):
    """Zappa-Szep product of a matched pair.

    Whether the tail (acting) factor is a groupoid decides the truncation
    gauge and the divisibility answers alike.  With a groupoid tail the
    gauge is the path-part degree; otherwise it is the total scalar size of
    both parts, which is what the monoid counterexample needs.
    """

    def __init__(self, pair: MatchedPair):
        self.pair = pair
        self.D = pair.acted
        self.C = pair.acting
        self._groupoid_tailed = isinstance(self.C, FiniteGroupoid)
        self._compose_memo = {}
        self._window_memo = {}
        # hash-consing: one canonical object per product morphism, so that
        # memo hits and equality tests of windows and composites are
        # identity checks
        self._interned = {}

    def objects(self):
        return tuple(sorted(self.D.objects()))

    def identity(self, v):
        return ZSMorphism(self.D.identity(v), self.C.identity(v))

    def is_identity(self, m):
        return self.D.is_identity(m.path) and self.C.is_identity(m.tail)

    def r(self, m):
        return self.D.r(m.path)

    def s(self, m):
        return self.C.s(m.tail)

    def size(self, m):
        if self._groupoid_tailed:
            return self.D.size(m.path)
        d = self.D.size(m.path)
        d = sum(d) if isinstance(d, tuple) else d
        return d + self.C.size(m.tail)

    def morphisms(self, bound):
        key = tuple(bound) if isinstance(bound, (tuple, list)) else bound
        cached = self._window_memo.get(key)
        if cached is not None:
            return list(cached)
        out = []
        if self._groupoid_tailed:
            for d in self.D.morphisms(bound):
                for c in self.C.morphisms(None):
                    if self.C.r(c) == self.D.s(d):
                        out.append(self._intern(d, c))
        else:
            for d in self.D.morphisms(self._scalar_tuple(bound)):
                dsize = self.D.size(d)
                dsize = sum(dsize) if isinstance(dsize, tuple) else dsize
                for c in self.C.morphisms(bound - dsize):
                    if self.C.r(c) == self.D.s(d):
                        out.append(self._intern(d, c))
        out.sort(key=self.sort_key)
        self._window_memo[key] = out
        return list(out)

    def _scalar_tuple(self, bound):
        probe = self.D.identity(next(iter(self.D.objects())))
        dsize = self.D.size(probe)
        return (bound,) * len(dsize) if isinstance(dsize, tuple) else bound

    def _intern(self, path, tail) -> ZSMorphism:
        """The one ZSMorphism with these parts."""
        key = (path, tail)
        m = self._interned.get(key)
        if m is None:
            m = self._interned[key] = ZSMorphism(path, tail)
        return m

    def compose(self, x: ZSMorphism, y: ZSMorphism):
        key = (x, y)
        out = self._compose_memo.get(key)
        if out is None:
            # only composable pairs are memoized, so a hit needs no test
            if self.s(x) != self.r(y):
                return None
            moved, tail = self.pair.extend(x.tail, y.path)
            out = self._intern(self.D.compose(x.path, moved), self.C.compose(tail, y.tail))
            self._compose_memo[key] = out
        return out

    def sort_key(self, m):
        return (self.D.sort_key(m.path), self.C.sort_key(m.tail))

    # -- conveniences used throughout the algebra layers

    def from_path(self, p: Path):
        return ZSMorphism(p, self.C.identity(self.D.s(p)))

    def from_tail(self, c):
        return ZSMorphism(self.D.identity(self.C.r(c)), c)

    def is_groupoid_tailed(self):
        return self._groupoid_tailed

    def tail_inverse(self, m: ZSMorphism):
        if not self.is_groupoid_tailed():
            raise NotApplicableError("tail category is not a groupoid")
        return self.C.inverse(m.tail)

    # -- divisibility and meets.  With a groupoid tail, tails are invertible
    #    and never change a principal ideal, so every question lifts from
    #    the path part; otherwise the brute-force defaults apply.

    def divisors_into(self, a: ZSMorphism, b: ZSMorphism, bound):
        if not self.is_groupoid_tailed():
            return super().divisors_into(a, b, bound)
        # solve the path part by factorization and unwind the tail twist
        rests = self.D.divisors_into(a.path, b.path, bound)
        if not rests:
            return []
        xd = self.pair.left_act(self.C.inverse(a.tail), rests[0])
        xc = self.C.compose(self.C.inverse(self.pair.right_act(a.tail, xd)), b.tail)
        if xc is None:
            return []
        x = ZSMorphism(xd, xc)
        return [x] if self.compose(a, x) == b else []

    def divides(self, a: ZSMorphism, b: ZSMorphism, bound) -> bool:
        if not self.is_groupoid_tailed():
            return super().divides(a, b, bound)
        return a == b or self.D.divides(a.path, b.path, bound)

    def meets(self, a: ZSMorphism, b: ZSMorphism, bound) -> bool:
        if not self.is_groupoid_tailed():
            return super().meets(a, b, bound)
        return self.D.meets(a.path, b.path, bound)

    def meet(self, c1: ZSMorphism, c2: ZSMorphism, bound):
        if not self.is_groupoid_tailed():
            return super().meet(c1, c2, bound)
        generators, _ = self.D.meet(c1.path, c2.path, bound)
        return tuple(self.from_path(xi) for xi in generators), "ZS-path-lift"


def zs_compose(cat: ZSCategory, x: ZSMorphism, y: ZSMorphism) -> ZSMorphism:
    out = cat.compose(x, y)
    if out is None:
        raise NotComposableError(f"s({x}) != r({y})")
    return out


def check_self_similar(pair: MatchedPair, bound) -> Report:
    """Degree preservation d(g |> lam) = d(lam) over the window.

    Requires a groupoid acting factor whose units are the vertices; raises
    NotApplicableError otherwise.  Whether g |> - is a bijection on edges is
    reported as a detail, not required.
    """
    if not pair.is_self_similar_shape():
        raise NotApplicableError("acting category is not a groupoid over the vertices")
    G, L = pair.acting, pair.acted
    for g in G.morphisms(None):
        for lam in L.morphisms(bound):
            if G.s(g) != L.r(lam):
                continue
            if L.size(pair.left_act(g, lam)) != L.size(lam):
                return failing("self_similar", witness=(g, lam), bound=bound)
    bijective = True
    edges = [L.nf((name,)) for name in sorted(L.edge)]
    for g in G.morphisms(None):
        imgs = {pair.left_act(g, e).edges for e in edges if G.s(g) == L.r(e)}
        srcs = {e.edges for e in edges if G.s(g) == L.r(e)}
        if len(imgs) != len(srcs):
            bijective = False
    return passing("self_similar", bound=bound, edge_action_bijective=bijective)


def check_jointly_faithful(pair: MatchedPair, v, n) -> Report:
    """Find lam in vLambda^n separating the isotropy at v.

    Scans vLambda^n in normal-form order and returns the first lam for which
    g -> (g |> lam, g <| lam) is injective on vGv; on failure the report
    lists a colliding pair for every lam.
    """
    G, L = pair.acting, pair.acted
    iso = [g for g in G.morphisms(None) if G.r(g) == v and G.s(g) == v]
    collisions = []
    for lam in L.paths(v, n):
        seen = {}
        collision = None
        for g in iso:
            img = pair.extend(g, lam)
            if img in seen:
                collision = (seen[img], g)
                break
            seen[img] = g
        if collision is None:
            return passing("jointly_faithful", bound=n, witness_path=lam)
        collisions.append((lam, collision))
    return failing("jointly_faithful", witness=collisions, bound=n)
