"""Small categories with a truncation gauge.

All the categories this toolkit works with are countable but usually
infinite, so every universally quantified check runs on a finite window: the
morphisms whose *size* fits under a stated bound.  A size is either an int
(word length, monoid gauge) or a tuple of ints (the degree of a path in a
higher-rank graph); bounds have the same shape and are compared
componentwise.

Concrete categories subclass SmallCategory: explicit tables here, path
categories in kgraph, groupoids in groupoid, product categories in selfsim.
composable_triples is the one sweep over the composable triples of a
window: the associativity checks here and in the CLI, and the cocycle,
homotopy and additive-generator checks in cocycle, all run on it.
Validated categories are never mutated, so they are safe to share across
concurrent readers; composition is memoized internally, and the memo caches
only ever insert values that are deterministic functions of their keys, so
racing insert-if-absent writes are idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedTableError, UnvalidatedCategoryError
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


class SmallCategory:
    """Interface for truncation-gauged small categories.

    Subclasses provide objects, identities, range/source maps, a size gauge,
    bounded morphism enumeration and (partial, memoized) composition.  The
    divisibility, meet and generator-splitting methods have generic defaults
    that a subclass overrides when it knows its own factorizations.
    """

    #: invertible morphisms are guaranteed to have size 0 (true for every
    #: in-scope category: groupoids, k-graphs, their products).  Explicit
    #: table categories may clear this, in which case the invertibility scan
    #: widens to the whole window.
    invertibles_size_zero = True

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
        window (sizes are additive in every concrete subclass here).
        """
        raise NotImplementedError

    def sort_key(self, m):
        return str(m)

    # -- validation bookkeeping

    _validated_bound = None

    def mark_validated(self, bound):
        self._validated_bound = bound

    def require_validated(self):
        if self._validated_bound is None:
            raise UnvalidatedCategoryError(
                f"{type(self).__name__} has not been validated; run validate_category first"
            )

    # -- conveniences

    def morphisms_from(self, v, bound):
        """v-rooted slice of the window: morphisms with range v."""
        return [m for m in self.morphisms(bound) if self.r(m) == v]

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

    # -- divisibility and ideal meets.  The defaults search the window by
    #    brute force; path-like subclasses override them with exact
    #    factorization, which ignores the bound.

    def divisors_into(self, a, b, bound):
        """All x in the window with a x = b (at most one when
        left-cancellative)."""
        need = _size_gap(self.size(a), self.size(b))
        if need is None:
            return []
        # sizes are additive in every in-scope category
        return [
            x
            for x in self.morphisms(bound)
            if self.size(x) == need and self.s(a) == self.r(x) and self.compose(a, x) == b
        ]

    def divides(self, a, b, bound) -> bool:
        """b lies in the principal right ideal of a."""
        return a == b or bool(self.divisors_into(a, b, bound))

    def meets(self, a, b, bound) -> bool:
        """a C  n  b C is nonempty within the window."""
        pa = set(principal_ideal(a, self, bound))
        return any(x in pa for x in principal_ideal(b, self, bound))

    def meet(self, c1, c2, bound):
        """(F, method): a finite independent F with F C = c1 C  n  c2 C.

        The default intersects the two windowed ideals and keeps one
        representative per class of minimal elements.
        """
        self.require_validated()
        ideal = set(principal_ideal(c1, self, bound)) & set(principal_ideal(c2, self, bound))
        minimal = [
            m
            for m in ideal
            if not any(
                self.divides(m2, m, bound) and not self.divides(m, m2, bound)
                for m2 in ideal
                if m2 != m
            )
        ]
        # one representative per equivalence class of mutually dividing elements
        chosen = []
        for m in sorted(minimal, key=self.sort_key):
            if not any(self.divides(c, m, bound) for c in chosen):
                chosen.append(m)
        return tuple(chosen), "brute"


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

    invertibles_size_zero = False

    def __init__(self, objects, morphisms, r_map, s_map, compose_table):
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


def composable_triples(cat: SmallCategory, window):
    """Yield (a, b, c, ab, bc) for every composable triple of the window.

    This is the one triple sweep behind every windowed associativity and
    cocycle check.  Triples come in window order (a, then b, then c).  The
    window is indexed by range once, ab is composed once per (a, b) and bc
    once per (b, c): the row of b is filled on b's first use and replayed
    for every later a, so a consumer that stops early, or a composition
    that raises, stops at the same triple as the plain nested loop would.
    Composites may be None where the category is partial.
    """
    by_range = {}
    for i, m in enumerate(window):
        by_range.setdefault(cat.r(m), []).append((i, m))
    rows = [None] * len(window)
    for a in window:
        for i, b in by_range.get(cat.s(a), ()):
            ab = cat.compose(a, b)
            row = rows[i]
            if row is None:
                row = rows[i] = []
                for _, c in by_range.get(cat.s(b), ()):
                    bc = cat.compose(b, c)
                    row.append((c, bc))
                    yield a, b, c, ab, bc
            else:
                for c, bc in row:
                    yield a, b, c, ab, bc


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
    for a, b, c, ab, bc in composable_triples(cat, window):
        left = cat.compose(ab, c) if ab is not None else None
        right = cat.compose(a, bc) if bc is not None else None
        if left is not None and right is not None and left != right:
            return failing("category_axioms", witness=("associativity", a, b, c), bound=bound)
    cat.mark_validated(bound)
    return passing("category_axioms", bound=bound, morphisms=len(window))


def check_left_cancellative(cat: SmallCategory, bound) -> Report:
    """Scan for a, b != c with ac = ab within the window."""
    cat.require_validated()
    window = cat.morphisms(bound)
    by_range = {}
    for m in window:
        by_range.setdefault(cat.r(m), []).append(m)
    for a in window:
        seen = {}
        for c in by_range.get(cat.s(a), ()):
            ac = cat.compose(a, c)
            if ac is None:
                continue
            if ac in seen and seen[ac] != c:
                return failing("left_cancellative", witness=(a, c, seen[ac]), bound=bound)
            seen[ac] = c
    return passing("left_cancellative", bound=bound, morphisms=len(window))


def invertibles(cat: SmallCategory, bound):
    """Morphisms with a two-sided inverse in the window.

    For gauge categories invertibles all have size 0 (declared by the
    subclass), so the scan is restricted there; for explicit tables the whole
    window is scanned.  Identities are always included.
    """
    if cat.invertibles_size_zero:
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
    out = {a} if size_fits(cat.size(a), bound) else set()
    for x in cat.morphisms(bound):
        if cat.s(a) != cat.r(x):
            continue
        ax = cat.compose(a, x)
        if ax is not None and size_fits(cat.size(ax), bound):
            out.add(ax)
    return tuple(sorted(out, key=cat.sort_key))
