"""Matched pairs, action extension, and Zappa-Szep product categories.

A matched pair is an acting category C and an acted category D over the same
objects, with a left action (c, d) -> c |> d into D and a right action
(c, d) -> c <| d into C, subject to unit laws, the endpoint condition
s(c |> d) = r(c <| d), and the two interchange identities

    c |> (d1 d2) = (c |> d1)((c <| d1) |> d2)
    (c1 c2) <| d = (c1 <| (c2 |> d))(c2 <| d).

Actions are stored on generators only (edge level for path categories,
element level for groupoids, letter level for free monoids) and extended by
recursion through the interchange identities.  check_action checks the
presentation once, for every window: a groupoid acting factor has the
vertices as its units, and each table entry keeps the endpoint laws, which
the recursion then carries to every composable pair.  verify_matched_pair
certifies the identities and the independence of the extension from the
chosen factorizations, exhaustively on a window.

The Zappa-Szep product has morphisms dc (path part first) with composition
d1c1 . d2c2 = d1 (c1 |> d2) (c1 <| d2) c2.  When the acting category is a
groupoid with units the vertices and the left action preserves degrees, the
pair is a self-similar action and the product carries the path degree as its
truncation gauge.

One helper (_groupoid_tail) decides whether the acting category is a
groupoid over the vertices.  A ZSCategory interns its morphisms by the ids
of their parts and composes on those ids (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .categories import SmallCategory, size_fits
from .errors import BadActionError, NotApplicableError, UndefinedGeneratorError
from .groupoid import FiniteGroupoid
from .kgraph import KGraph, Path
from .report import Report, failing, passing


class FreeMonoidCategory(SmallCategory):
    """Free monoid on a letter set, as a category of words on the one
    object ``"*"``."""

    obj = "*"

    def __init__(self, letters):
        super().__init__()
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


@dataclass
class ActionTable:
    """Generator-level action data: (acting key, acted key) -> morphism."""

    left: dict = field(default_factory=dict)
    right: dict = field(default_factory=dict)


class MatchedPair:
    """An acting/acted pair of categories with generator action tables,
    each extension kept once, by ids (extend_ids)."""

    def __init__(self, acting: SmallCategory, acted: SmallCategory, table: ActionTable):
        self.acting = acting
        self.acted = acted
        self.table = table
        self._extensions = {}

    def extend(self, c, d):
        """(c |> d, c <| d), by recursion through the interchange identities."""
        moved, rest = self.extend_ids(self.acting.id_of(c), self.acted.id_of(d))
        return (None if moved is None else self.acted.morphs[moved]), self.acting.morphs[rest]

    def extend_ids(self, t, p):
        """(id of c |> d, id of c <| d) for the acting morphism c of id t and
        the acted morphism d of id p, kept per id pair; the first is None
        where a broken action leaves c |> d undefined."""
        key = (t, p)
        out = self._extensions.get(key)
        if out is not None:
            return out
        C, D = self.acting, self.acted
        c, d = C.morphs[t], D.morphs[p]
        if D.is_identity(d):
            out = (D.id_of(D.identity(C.ranges[t])), t)
        elif C.is_identity(c):
            out = (p, C.id_of(C.identity(D.sources[p])))
        elif (split := C.peel_right(c)) is not None:
            c1, gamma = map(C.id_of, split)
            mid, tail = self.extend_ids(gamma, p)
            top, head = self.extend_ids(c1, mid)
            out = (top, C.compose_ids(head, tail))
        elif (split := D.peel_left(d)) is not None:
            delta, d2 = map(D.id_of, split)
            first, c_after = self.extend_ids(t, delta)
            second, c_final = self.extend_ids(c_after, d2)
            out = (D.compose_ids(first, second), c_final)
        else:
            k = (C.generator_key(c), D.generator_key(d))
            if k not in self.table.left or k not in self.table.right:
                raise UndefinedGeneratorError(f"no action entry for {k}")
            out = (D.id_of(self.table.left[k]), C.id_of(self.table.right[k]))
        self._extensions[key] = out
        return out

    def left_act(self, c, d):
        return self.extend(c, d)[0]

    def right_act(self, c, d):
        return self.extend(c, d)[1]


def _groupoid_tail(pair: MatchedPair) -> bool:
    """The shape of a matched pair: whether the acting category is a
    groupoid (else a monoid, as in the counterexample).  A groupoid whose
    units are not the vertices acts on no k-graph: NotApplicableError."""
    groupoid = isinstance(pair.acting, FiniteGroupoid)
    if groupoid and set(pair.acting.units) != set(pair.acted.objects()):
        raise NotApplicableError("acting category is not a groupoid over the vertices")
    return groupoid


def check_action(pair: MatchedPair) -> Report:
    """The window-free check of a matched pair's presentation: its shape
    (_groupoid_tail, reported as the ``groupoid_tail`` detail) and its
    endpoint laws.  Every ZSCategory runs it and refuses a pair that fails.

    Endpoint laws: each table entry (c, e) with s(c) = r(e) must have
    r(c |> e) = r(c), s(c |> e) = r(c <| e) and s(c <| e) = s(e); the
    first that does not is the witness, of verify_matched_pair's kinds.
    The extension recurses through the interchange identities, so by
    induction on the factorization the laws then hold for every composable
    (c, d), and every composite of the product is defined.  An entry
    missing from one table raises UndefinedGeneratorError.
    """
    C, D = pair.acting, pair.acted
    groupoid_tail = _groupoid_tail(pair)
    # keyed by (acting generator, edge name)
    entries = dict.fromkeys([*pair.table.left, *pair.table.right])
    for c, name in entries:
        e = D.nf((name,))
        if C.s(c) != D.r(e):
            continue
        moved, rest = pair.extend(c, e)
        for kind, holds in (
            ("range_of_left", D.r(moved) == C.r(c)),
            ("endpoint_mismatch", D.s(moved) == C.r(rest)),
            ("source_of_right", C.s(rest) == D.s(e)),
        ):
            if not holds:
                return failing("matched_pair", witness=(kind, c, e), groupoid_tail=groupoid_tail)
    return passing("matched_pair", entries=len(entries), groupoid_tail=groupoid_tail)


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

    Stage one checks endpoint compatibility; stage two checks both
    interchange identities over all composable (c1, c2, d) and (c, d1, d2)
    tuples drawn from the window -- which simultaneously certifies that
    the extension is independent of how morphisms are factorized, since
    every split appears as a tuple.

    The unit laws c |> id = id, c <| id = c and id |> d = d, id <| d = id
    need no check: MatchedPair.extend_ids answers an identity path with
    (id, c) and an identity tail with (d, id) before it reads any table,
    so they hold on every pair, a monoid tail's included.
    """
    C, D = pair.acting, pair.acted
    cs = C.morphisms(bound)
    ds = D.morphisms(bound)

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
    """A product morphism dc: path part first, then tail part.  One that a
    ZSCategory handed out carries its owner token and id there."""

    path: Path
    tail: object

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.path, self.tail)))
        object.__setattr__(self, "_owner", None)
        object.__setattr__(self, "_id", None)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            self is other
            or isinstance(other, ZSMorphism)
            and self.path == other.path
            and self.tail == other.tail
        )

    @property
    def degree(self):  # of the path part
        return self.path.degree

    def __repr__(self):
        return f"({self.path!r}|{self.tail!r})"


class ZSCategory(SmallCategory):
    """Zappa-Szep product of a matched pair.

    The pair must pass check_action, or BadActionError carries its failing
    report; so every composite is defined.  Whether the tail (acting)
    factor is a groupoid, read from that check, decides the truncation
    gauge and the divisibility answers alike.  With a groupoid tail the
    gauge is the path-part degree; otherwise it is the total scalar size of
    both parts, which is what the monoid counterexample needs.

    Each morphism the category hands out is interned once, by the id of its
    path in D and of its tail in C, and stamped with its id, which id_of
    reads back; a morphism it did not intern is looked up by its parts, so
    no other category's id reads a row.  ``path_ids`` and ``tail_ids`` hold
    the parts of every id, and compose_ids composes on them: the extension
    (tail |> path, tail <| path) that the pair keeps by (tail id, path id)
    (MatchedPair.extend_ids), the path part through D.compose_ids and the
    tail through C.compose_ids.
    """

    def __init__(self, pair: MatchedPair):
        super().__init__()
        report = check_action(pair)
        if not report:
            raise BadActionError(f"the action breaks an endpoint law: {report.witness}", report)
        self.pair = pair
        self.D = pair.acted
        self.C = pair.acting
        self._groupoid_tailed = report.details["groupoid_tail"]
        self.path_ids, self.tail_ids = [], []
        self._interned, self._tails = {}, {}
        # stamped on interned morphisms; not self, so that they hold no
        # reference cycle back to the category
        self._token = object()

    def objects(self):
        return tuple(sorted(self.D.objects()))

    def identity(self, v):
        return self.from_tail(self.C.identity(v))

    def is_identity(self, m):
        return self.D.is_identity(m.path) and self.C.is_identity(m.tail)

    def r(self, m):
        return self.D.r(m.path)

    def s(self, m):
        return self.C.s(m.tail)

    def size(self, m):
        return self.sizes[self.id_of(m)]

    def morphisms(self, bound):
        out = []
        if self._groupoid_tailed:
            for d in self.D.morphisms(bound):
                for c in self.C.morphisms(None):
                    if self.C.r(c) == self.D.s(d):
                        out.append(self.intern(d, c))
        else:
            for d in self.D.morphisms((bound,) * self.D.k):
                for c in self.C.morphisms(bound - sum(self.D.size(d))):
                    if self.C.r(c) == self.D.s(d):
                        out.append(self.intern(d, c))
        out.sort(key=self.sort_key)
        return out

    # -- ids

    def intern(self, path, tail) -> ZSMorphism:
        """The one ZSMorphism of this category with these parts."""
        return self.morphs[self._intern_ids(self.D.id_of(path), self.C.id_of(tail))]

    def _intern_ids(self, p, t) -> int:
        """The id of the product morphism with path id p and tail id t."""
        key = (p, t)
        i = self._interned.get(key)
        if i is None:
            D, C = self.D, self.C
            m = ZSMorphism(D.morphs[p], C.morphs[t])
            i = self._interned[key] = len(self.morphs)
            object.__setattr__(m, "_owner", self._token)
            object.__setattr__(m, "_id", i)
            self.morphs.append(m)
            self.path_ids.append(p)
            self.tail_ids.append(t)
            self.ranges.append(D.ranges[p])
            self.sources.append(C.sources[t])
            size = D.sizes[p]
            if not self._groupoid_tailed:
                size = sum(size) + C.sizes[t]
            self.sizes.append(size)
            self.rows.append({})
        return i

    def id_of(self, m: ZSMorphism) -> int:
        if m._owner is self._token:
            return m._id
        return self.intern(m.path, m.tail)._id

    def compose_ids(self, i, j):
        row = self.rows[i]
        k = row.get(j)
        if k is None:
            # only composable pairs are stored, so a hit needs no test
            if self.sources[i] != self.ranges[j]:
                return None
            moved, tail = self.pair.extend_ids(self.tail_ids[i], self.path_ids[j])
            k = row[j] = self._intern_ids(
                self.D.compose_ids(self.path_ids[i], moved),
                self.C.compose_ids(tail, self.tail_ids[j]),
            )
        return k

    def compose(self, x: ZSMorphism, y: ZSMorphism):
        k = self.compose_ids(self.id_of(x), self.id_of(y))
        return None if k is None else self.morphs[k]

    def sort_key(self, m):
        return (self.D.sort_key(m.path), self.C.sort_key(m.tail))

    # -- associativity on parts.  With a groupoid tail the sweep runs on
    #    int arrays, a block of window rows at a time: a triple's two orders
    #    are computed as (path id, tail id) parts from the parts of its
    #    window pairs, and only the distinct extensions and path products
    #    reach Python.  Parts are equal exactly when the interned products
    #    are, so no composite is interned.

    #: window rows per block of the array sweep
    _SWEEP_ROWS = 4

    def associativity_failures(self, window):
        if not self._groupoid_tailed:
            return super().associativity_failures(window)
        return self._array_sweep(window)

    def _array_sweep(self, window):
        # imported here: numpy loaded ahead of the other zsalg modules, as an
        # import of this module would load it, raises every process's peak
        # RSS by about 2.5 MB
        import numpy as np

        D, C, extend = self.D, self.C, self.pair.extend_ids

        def extensions(path_ids):
            """(moved, rest) tables: for tail id t and position n, the ids of
            t |> d and t <| d for the path d of id path_ids[n], or -1 where
            they do not compose."""
            moved = np.full((len(tails), len(path_ids)), -1, dtype=np.int64)
            rest = moved.copy()
            for n, p in enumerate(path_ids.tolist()):
                for t in tails:
                    if p >= 0 and C.sources[t] == D.ranges[p]:
                        moved[t, n], rest[t, n] = extend(t, p)
            return moved, rest

        def path_products(left, right):
            """D.compose_ids on paired path id arrays, once per distinct pair."""
            keys, inverse = np.unique(left << 32 | right, return_inverse=True)
            out = [D.compose_ids(key >> 32, key & 0xFFFFFFFF) for key in keys.tolist()]
            return np.array(out, dtype=np.int64)[inverse.reshape(-1)]

        ids = np.array([self.id_of(m) for m in window], dtype=np.int64)
        if not len(ids):
            return
        for c in C.morphisms(None):
            C.id_of(c)
        tails = range(len(C.morphs))
        P = np.array(self.path_ids)[ids]
        T = np.array(self.tail_ids)[ids]
        objects = {}
        code_r, code_s = (
            np.array([objects.setdefault(ends[i], len(objects)) for i in ids.tolist()])
            for ends in (self.ranges, self.sources)
        )
        comp = code_s[:, None] == code_r[None, :]  # window pair (a, b) composable

        # tail products (-1 where a pair does not compose), and the
        # extensions of every tail along the window's paths
        tail_table = np.full((len(tails), len(tails)), -1, dtype=np.int64)
        for x in tails:
            for y in tails:
                if C.sources[x] == C.ranges[y]:
                    tail_table[x, y] = C.compose_ids(x, y)
        moved1, rest1 = extensions(P)

        # the window pairs' parts
        a, b = np.nonzero(comp)
        pair_path = np.full(comp.shape, -1, dtype=np.int64)
        pair_tail = np.full(comp.shape, -1, dtype=np.int64)
        pair_path[a, b] = path_products(P[a], moved1[T[a], b])
        pair_tail[a, b] = tail_table[rest1[T[a], b], T[b]]
        # the extensions of every tail along the pairs' distinct paths
        pair_paths, pair_col = np.unique(pair_path, return_inverse=True)
        pair_col = pair_col.reshape(comp.shape)
        moved2, rest2 = extensions(pair_paths)

        morphs, rows = self.morphs, self._SWEEP_ROWS
        for start in range(0, len(ids), rows):
            n, j, k = np.nonzero(comp[start : start + rows, :, None] & comp[None, :, :])
            i = n + start
            # (ij)k and i(jk), each as (path id, tail id)
            t_ij = pair_tail[i, j]
            left_path = path_products(pair_path[i, j], moved1[t_ij, k])
            left_tail = tail_table[rest1[t_ij, k], T[k]]
            col = pair_col[j, k]
            right_path = path_products(P[i], moved2[T[i], col])
            right_tail = tail_table[rest2[T[i], col], pair_tail[j, k]]
            bad = np.flatnonzero((left_path != right_path) | (left_tail != right_tail))
            for x, y, z in zip(ids[i[bad]].tolist(), ids[j[bad]].tolist(), ids[k[bad]].tolist()):
                yield morphs[x], morphs[y], morphs[z]

    # -- conveniences used throughout the algebra layers

    def from_path(self, p: Path):
        return self.intern(p, self.C.identity(self.D.s(p)))

    def from_tail(self, c):
        m = self._tails.get(c)
        if m is None:
            m = self._tails[c] = self.intern(self.D.identity(self.C.r(c)), c)
        return m

    def is_groupoid_tailed(self):
        return self._groupoid_tailed

    # -- divisibility and meets.  With a groupoid tail, tails are invertible
    #    and never change a principal ideal, so every question lifts from
    #    the path part, exactly.  The lifted divisors_into answers are kept
    #    per id pair and meet's per unordered id pair (SmallCategory.kept);
    #    divides and meets need no lift and read the path part's kept
    #    answers, one per path pair whatever the tails.  Otherwise the
    #    brute-force defaults apply, with their answers kept on the window.

    def divisors_into(self, a: ZSMorphism, b: ZSMorphism, bound):
        if not self.is_groupoid_tailed():
            return super().divisors_into(a, b, bound)
        return list(self.kept("divisors_into", a, b, self._lifted_divisor))

    def _lifted_divisor(self, a: ZSMorphism, b: ZSMorphism):
        """(x,) with a x = b, else (): the path part solved by
        factorization, then the tail twist unwound."""
        rests = self.D.divisors_into(a.path, b.path, None)
        if not rests:
            return ()
        xd = self.pair.left_act(self.C.inverse(a.tail), rests[0])
        xc = self.C.compose(self.C.inverse(self.pair.right_act(a.tail, xd)), b.tail)
        if xc is None:
            return ()
        x = self.intern(xd, xc)
        return (x,) if self.compose(a, x) == b else ()

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
        return self.kept("meet", c1, c2, self._lifted_meet, symmetric=True)

    def _lifted_meet(self, c1: ZSMorphism, c2: ZSMorphism):
        generators, _ = self.D.meet(c1.path, c2.path, None)
        return tuple(self.from_path(xi) for xi in generators), "ZS-path-lift"


def check_self_similar(pair: MatchedPair, bound) -> Report:
    """Degree preservation d(g |> lam) = d(lam) over the window.

    Requires a groupoid acting factor whose units are the vertices
    (_groupoid_tail); raises NotApplicableError otherwise.  Whether
    g |> - is a bijection on edges is reported as a detail, not required.
    """
    if not _groupoid_tail(pair):
        raise NotApplicableError("acting category is not a groupoid")
    G, L = pair.acting, pair.acted
    window = L.morphisms(bound)
    for g in G.morphisms(None):
        for lam in window:
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
