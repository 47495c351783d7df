"""Small categories with a truncation gauge.

All the categories this toolkit works with are countable but usually
infinite, so every universally quantified check runs on a finite window: the
morphisms whose *size* fits under a stated bound.  A size is either an int
(word length, monoid gauge) or a tuple of ints (the degree of a path in a
higher-rank graph); bounds have the same shape and are compared
componentwise.

Concrete categories subclass SmallCategory: explicit tables here, path
categories in kgraph, groupoids in groupoid, product categories in selfsim.
Every category numbers its own morphisms: dense int ids with cached range,
source and size, each composite kept once, in its id row (compose_ids), and
windows memoized as id views (window).  The path and product categories
answer compose from those rows too.  The window sweeps here run on those ids.
The id view also keeps the answers to the path-pair questions.  A category
whose divisors_into and meet are exact (kgraph, a product with a groupoid
tail) keeps them in ``answers`` by id pair, meet by unordered pair (kept):
they do not depend on the bound.  The brute-force defaults keep theirs on
the Window they search: principal ideals by id and divisor ids by pair.  So
an override and the window search, its reference, never read each other's
answers.  What is kept lives as long as its category, which is one command.

id_triples is the one sweep over the composable triples of a window of
ids; the cocycle, homotopy and additive-generator checks run on it, and so
does SmallCategory.associativity_failures, the reference associativity
loop and the one associativity check its callers use.  A category that
can decide associativity faster overrides that method (a product with a
groupoid tail sweeps on arrays, in selfsim).  Categories are
single-threaded, like the verifier: an id is allocated by appending and
then reading the length back, which is not safe under a race.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedTableError
from .report import Report, failing, passing


# ---------------------------------------------------------------------------
# size/bound helpers


def size_fits(size, bound) -> bool:
    """Componentwise size <= bound; int and tuple gauges both supported."""
    if isinstance(size, tuple):
        return all(a <= b for a, b in zip(size, bound))
    return size <= bound


def _size_gap(sa, sb):
    """sb - sa when that is a valid size, else None."""
    if isinstance(sa, tuple):
        gap = tuple(y - x for x, y in zip(sa, sb))
        return gap if all(g >= 0 for g in gap) else None
    return sb - sa if sb >= sa else None


#: the mark of a question not yet asked (an answer may be falsy)
_UNASKED = object()


class SmallCategory:
    """Interface for truncation-gauged small categories.

    Subclasses provide objects, identities, range/source maps, a size gauge,
    bounded morphism enumeration and (partial, memoized) composition.  The
    divisibility, meet and generator-splitting methods have generic defaults
    that a subclass overrides when it knows its own factorizations.

    Every category is its own id view, set up by ``__init__``: ``morphs``,
    ``ranges``, ``sources`` and ``sizes`` are indexed by id, and
    ``rows[i].get(j)`` answers a composite already stored without a call
    (None also where the product is undefined).  ``answers`` holds an
    override's bound-free answers, keyed by (question, id a, id b); see
    ``kept``.
    """

    def __init__(self):
        self.morphs, self.ranges, self.sources, self.sizes, self.rows = [], [], [], [], []
        self._index, self._windows, self.answers = {}, {}, {}

    #: size(a b) = size(a) + size(b) for every composable pair (true for
    #: groupoids, k-graphs, free monoids and their products), so invertibles
    #: have size 0 and a divisor x of b by a has size(b) - size(a).  Explicit
    #: table categories clear this, and the invertibility and divisor
    #: searches widen to the whole window.
    additive_sizes = True

    def objects(self):
        raise NotImplementedError

    def identity(self, v):
        raise NotImplementedError

    def is_identity(self, m) -> bool:
        raise NotImplementedError

    def r(self, m):
        """Range object of a morphism."""
        raise NotImplementedError

    def s(self, m):
        """Source object of a morphism."""
        raise NotImplementedError

    def size(self, m):
        raise NotImplementedError

    def morphisms(self, bound):
        """All morphisms with size within ``bound``, deterministically ordered."""
        raise NotImplementedError

    def compose(self, a, b):
        """a after b -- defined when s(a) = r(b); None otherwise.

        The composite is computed exactly even when its size exceeds any
        window.
        """
        raise NotImplementedError

    def sort_key(self, m):
        return str(m)

    # -- conveniences

    def morphisms_from(self, v, bound):
        """v-rooted slice of the window: morphisms with range v, in window
        order."""
        morphs = self.morphs
        return [morphs[i] for i in self.window(bound).by_range.get(v, ())]

    # -- generator splitting, for extending actions from generator tables.
    #    The defaults treat every morphism as atomic and as its own key.

    def peel_right(self, m):
        """m = prefix . generator, or None when m is atomic."""
        return None

    def peel_left(self, m):
        """m = generator . rest, or None when m is atomic."""
        return None

    def generator_key(self, m):
        """The action-table key of an atomic morphism."""
        return m

    # -- the ids every window sweep runs on

    def id_of(self, m) -> int:
        """The dense id of m; the default interns hashable morphisms by
        value."""
        i = self._index.get(m)
        if i is None:
            i = self._index[m] = len(self.morphs)
            self.morphs.append(m)
            self.ranges.append(self.r(m))
            self.sources.append(self.s(m))
            self.sizes.append(self.size(m))
            self.rows.append({})
        return i

    def compose_ids(self, i, j):
        """The id of morphs[i] after morphs[j], or None where undefined.
        Each composable pair is composed once; its answer is kept in
        rows[i]."""
        row = self.rows[i]
        k = row.get(j, -1)
        if k == -1:
            if self.sources[i] != self.ranges[j]:
                return None
            ab = self.compose(self.morphs[i], self.morphs[j])
            k = row[j] = None if ab is None else self.id_of(ab)
        return k

    def kept(self, question, a, b, answer, symmetric=False):
        """answer(a, b), computed on the first ask of ``question`` about the
        id pair of (a, b), unordered if ``symmetric``, and kept in
        ``answers`` for the category's lifetime.  Only for answers that do
        not depend on the window bound; the brute-force defaults below keep
        theirs on their Window."""
        i, j = self.id_of(a), self.id_of(b)
        if symmetric and j < i:
            i, j, a, b = j, i, b, a
        out = self.answers.get((question, i, j), _UNASKED)
        if out is _UNASKED:
            out = self.answers[question, i, j] = answer(a, b)
        return out

    def window(self, bound) -> Window:
        """morphisms(bound) with its ids, enumerated once per bound."""
        key = bound_key(bound)
        win = self._windows.get(key)
        if win is None:
            win = self._windows[key] = Window(self, self.morphisms(bound))
        return win

    def associativity_failures(self, window):
        """Yield (a, b, c) for every composable triple of the window whose
        two association orders (ab)c and a(bc) are both defined and differ,
        in window order.  The one associativity check: validate_category
        reports the first failure, the zs command the last, and acceptance
        criterion 4 asks whether there is any.

        This default composes both orders of every triple of id_triples; it
        is the reference for an override."""
        compose, morphs, rows = self.compose_ids, self.morphs, self.rows
        for i, j, k, ij, jk in id_triples(self, [self.id_of(m) for m in window]):
            if ij is None or jk is None:
                continue
            left = rows[ij].get(k)
            if left is None:
                left = compose(ij, k)
            right = rows[i].get(jk)
            if right is None:
                right = compose(i, jk)
            if left != right and left is not None and right is not None:
                yield morphs[i], morphs[j], morphs[k]

    # -- divisibility and ideal meets.  The defaults search the window by
    #    brute force and keep their answers on it; path-like subclasses
    #    override them with exact factorization, which ignores the bound.
    #    Called unbound, the defaults are the reference for an override.

    def divisors_into(self, a, b, bound):
        """All x in the window with a x = b (at most one when
        left-cancellative)."""
        return [self.morphs[x] for x in _divisor_ids(self, self.id_of(a), self.id_of(b), bound)]

    def divides(self, a, b, bound) -> bool:
        """b lies in the principal right ideal of a."""
        return a == b or bool(_divisor_ids(self, self.id_of(a), self.id_of(b), bound))

    def meets(self, a, b, bound) -> bool:
        """a C  n  b C is nonempty within the window."""
        return not _ideal_ids(self, self.id_of(a), bound).isdisjoint(
            _ideal_ids(self, self.id_of(b), bound)
        )

    def meet(self, c1, c2, bound):
        """(F, method): a finite independent F with F C = c1 C  n  c2 C.

        The default intersects the two windowed ideals and keeps one
        representative per class of minimal elements.
        """
        ideal = _ideal_ids(self, self.id_of(c1), bound) & _ideal_ids(self, self.id_of(c2), bound)

        def divides(i, j):
            return i == j or bool(_divisor_ids(self, i, j, bound))

        minimal = [
            m
            for m in ideal
            if not any(divides(m2, m) and not divides(m, m2) for m2 in ideal if m2 != m)
        ]
        # one representative per equivalence class of mutually dividing elements
        chosen = []
        for m in sorted(minimal, key=lambda i: self.sort_key(self.morphs[i])):
            if not any(divides(c, m) for c in chosen):
                chosen.append(m)
        return tuple(self.morphs[i] for i in chosen), "brute"


class Window:
    """A window's morphisms and their ids, bucketed by range and by
    (range, size), with the brute-force searches' answers on it: principal
    ideal ids by id (``ideals``) and divisor ids by id pair
    (``divisors``)."""

    __slots__ = ("members", "ids", "by_range", "buckets", "ideals", "divisors")

    def __init__(self, cat: SmallCategory, members):
        self.members = members
        self.ids = [cat.id_of(m) for m in members]
        self.by_range, self.buckets, self.ideals, self.divisors = {}, {}, {}, {}
        for i in self.ids:
            rng = cat.ranges[i]
            self.by_range.setdefault(rng, []).append(i)
            self.buckets.setdefault((rng, cat.sizes[i]), []).append(i)


def bound_key(bound):
    """A bound as a dict key (a list bound reads as the tuple)."""
    return tuple(bound) if isinstance(bound, list) else bound


@dataclass(frozen=True)
class TableMorphism:
    name: str

    def __repr__(self):
        return self.name


class TableCategory(SmallCategory):
    """Finite category given by explicit tables.

    ``compose_table`` maps (name, name) -> name and may be partial: the
    windowed checks simply skip undefined products.  Identities have size 0
    and every other morphism size 1.  Used for hand-built counterexample
    fixtures.
    """

    additive_sizes = False

    def __init__(self, objects, morphisms, r_map, s_map, compose_table):
        super().__init__()
        self._objects = tuple(sorted(objects))
        self._morphs = {name: TableMorphism(name) for name in morphisms}
        for v in self._objects:
            if v not in self._morphs:
                raise MalformedTableError(f"identity morphism {v!r} missing from morphism list")
        self._r = dict(r_map)
        self._s = dict(s_map)
        for v in self._objects:
            self._r.setdefault(v, v)
            self._s.setdefault(v, v)
        for name in morphisms:
            if name not in self._r or name not in self._s:
                raise MalformedTableError(f"morphism {name!r} lacks range/source")
        self._table = dict(compose_table)

    def objects(self):
        return self._objects

    def identity(self, v):
        return self._morphs[v]

    def is_identity(self, m):
        return m.name in self._objects

    def r(self, m):
        return self._r[m.name]

    def s(self, m):
        return self._s[m.name]

    def size(self, m):
        return 0 if m.name in self._objects else 1

    def morphisms(self, bound):
        out = [m for m in self._morphs.values() if size_fits(self.size(m), bound)]
        out.sort(key=self.sort_key)
        return out

    def compose(self, a, b):
        if self.s(a) != self.r(b):
            return None
        if self.is_identity(a):
            return b
        if self.is_identity(b):
            return a
        name = self._table.get((a.name, b.name))
        return self._morphs[name] if name is not None else None

    def sort_key(self, m):
        return m.name


# ---------------------------------------------------------------------------
# relational layer


def id_triples(cat: SmallCategory, window):
    """(i, j, k, ij, jk) over the composable id triples of a window of ids."""
    ranges, sources, compose = cat.ranges, cat.sources, cat.compose_ids
    by_range = {}
    for n, i in enumerate(window):
        by_range.setdefault(ranges[i], []).append((n, i))
    rows = [None] * len(window)
    for i in window:
        for n, j in by_range.get(sources[i], ()):
            ij = compose(i, j)
            row = rows[n]
            if row is None:
                row = rows[n] = []
                for _, k in by_range.get(sources[j], ()):
                    jk = compose(j, k)
                    row.append((k, jk))
                    yield i, j, k, ij, jk
            else:
                for k, jk in row:
                    yield i, j, k, ij, jk


def validate_category(cat: SmallCategory, bound) -> Report:
    """Check associativity and identity neutrality on the window.

    Composable triples are drawn from morphisms within ``bound``; composites
    are compared whenever both association orders are defined (explicit
    tables may be partial).
    """
    window = cat.morphisms(bound)
    for m in window:
        v, w = cat.r(m), cat.s(m)
        if cat.compose(cat.identity(v), m) != m or cat.compose(m, cat.identity(w)) != m:
            return failing("category_axioms", witness=("identity_not_neutral", m), bound=bound)
    for triple in cat.associativity_failures(window):
        return failing("category_axioms", witness=("associativity", *triple), bound=bound)
    return passing("category_axioms", bound=bound, morphisms=len(window))


def check_left_cancellative(cat: SmallCategory, bound) -> Report:
    """Scan for a, b != c with ac = ab within the window."""
    win = cat.window(bound)
    compose, sources, morphs = cat.compose_ids, cat.sources, cat.morphs
    for i in win.ids:
        seen = {}
        for k in win.by_range.get(sources[i], ()):
            ik = compose(i, k)
            if ik is None:
                continue
            first = seen.setdefault(ik, k)
            if first != k:
                return failing(
                    "left_cancellative", witness=(morphs[i], morphs[k], morphs[first]), bound=bound
                )
    return passing("left_cancellative", bound=bound, morphisms=len(win.ids))


def invertibles(cat: SmallCategory, bound):
    """Morphisms with a two-sided inverse in the window.

    With additive sizes invertibles all have size 0, so the scan is
    restricted there; for explicit tables the whole window is scanned.
    Identities are always included.
    """
    if cat.additive_sizes:
        zero = [m for m in cat.morphisms(bound) if _is_zero(cat.size(m))]
    else:
        zero = cat.morphisms(bound)
    invs = []
    for u in zero:
        if cat.is_identity(u):
            invs.append(u)
            continue
        for w in zero:
            if cat.s(w) == cat.r(u) and cat.r(w) == cat.s(u):
                if cat.compose(u, w) == cat.identity(cat.r(u)) and cat.compose(w, u) == cat.identity(cat.s(u)):
                    invs.append(u)
                    break
    return invs


def _is_zero(size):
    if isinstance(size, tuple):
        return all(x == 0 for x in size)
    return size == 0


def equivalent(a, b, cat: SmallCategory, bound) -> bool:
    """a ~ b: a = bc for an invertible c, i.e. equal principal right ideals."""
    if a == b:
        return True
    if cat.r(a) != cat.r(b):
        return False
    for c in invertibles(cat, bound):
        if cat.s(b) == cat.r(c) and cat.compose(b, c) == a:
            return True
    return False


def principal_ideal(a, cat: SmallCategory, bound):
    """The right ideal {ac : composable} truncated to the window, sorted."""
    ideal = _ideal_ids(cat, cat.id_of(a), bound)
    return tuple(sorted((cat.morphs[i] for i in ideal), key=cat.sort_key))


def _ideal_ids(cat: SmallCategory, a, bound):
    """principal_ideal on ids, as a frozenset kept on the window."""
    win = cat.window(bound)
    out = win.ideals.get(a)
    if out is None:
        sizes, compose = cat.sizes, cat.compose_ids
        ideal = {a} if size_fits(sizes[a], bound) else set()
        for x in win.by_range.get(cat.sources[a], ()):
            ax = compose(a, x)
            if ax is not None and size_fits(sizes[ax], bound):
                ideal.add(ax)
        out = win.ideals[a] = frozenset(ideal)
    return out


def _divisor_ids(cat: SmallCategory, a, b, bound):
    """The window ids x with a x = b, as a tuple kept on the window.  With
    additive sizes only the (range, size(b) - size(a)) bucket can hold
    them; otherwise the whole range bucket is searched."""
    win = cat.window(bound)
    out = win.divisors.get((a, b))
    if out is None:
        if cat.additive_sizes:
            need = _size_gap(cat.sizes[a], cat.sizes[b])
            candidates = () if need is None else win.buckets.get((cat.sources[a], need), ())
        else:
            candidates = win.by_range.get(cat.sources[a], ())
        compose = cat.compose_ids
        out = win.divisors[(a, b)] = tuple(x for x in candidates if compose(a, x) == b)
    return out
