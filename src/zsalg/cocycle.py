"""Circle-valued 2-cocycles, grid-sampled homotopies, and phase arithmetic.

A phase, a point of the circle, is a one-term PhaseSum: exp(2*pi*i*r/N)
for an integer residue r mod a conductor N when every input is rational,
the float exp(2*pi*i*x) otherwise.  Exact comparisons are integer
comparisons; float values compare with a 1e-12 tolerance.

Coefficients of the exact algebra model are finite sums of phases
(PhaseSum): integer or rational coefficients on the residues mod N, so
elements of the cyclotomic field Q(zeta_N).  A sum is exact or float, never
both: a float operand collapses a sum or product to its complex value.  An
operation on two exact sums lifts both to the lcm of their conductors.  An
exact sum is zero iff its reduction to a basis of Q(zeta_N) is; a float one
iff it is within 1e-12 of 0, and a NaN never.

Every cocycle family is one CocycleFamily: an exponent form q and one scale
s_j per grid point, fiber j being exp(2*pi*i*s_j*q).  A cocycle is the
one-fiber family at scale 1 (Cocycle), a linear homotopy the family on the
grid t_j = j/(M-1) (LinearHomotopy), and a constant family repeats its
cocycle's scale (ConstantHomotopy); a pair's per-fiber samples form a
GridFunction.  A rational form has a denominator D and gives each pair the
integer exponent D*q; with rational scales of common denominator S the
family's conductor is N = D*S, and fiber j's phase of an exponent E is the
residue S*s_j*E mod N.  A form with a float entry gives float exponents.
Every layer that prices a pair reads the family's two memos: exponents(cat),
the form's exponent per id pair of a category, and phases(E), the M fiber
phases, per exponent; exponent(c1, c2) is the form's unkept answer.

Every cocycle check reads one window sweep, _defects: the exponent of each
identity pair, then the additive defect
delta = q(b,c) + q(a,bc) - q(a,b) - q(ab,c) of each composable triple.  The
sweep runs on the window's ids, reads the family's id table, passes on only
the items that are not zero, and builds morphisms only for a witness.
One zero rule decides a defect: an integer is zero iff it is 0, a float iff
it is within 1e-12 of 0, and a NaN never.  q is an additive generator iff
every item is zero; fiber j is a cocycle iff every item is zero or has
exp(2*pi*i*s_j*delta) = 1.  Continuity between grid samples cannot be
certified from samples and is reported as a stated limitation.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
import sys
from fractions import Fraction

from .categories import SmallCategory, id_triples
from .errors import BadGeneratorError, NotDegreeAdditiveError, OffGridError
from .kgraph import deg_add
from .report import Report, failing, passing

TOL = 1e-12
_EPS = sys.float_info.epsilon


class _Cyclotomic:
    """Q(zeta_n), computed once per conductor n.

    ``roots[r]`` is the float exp(2*pi*i*r/n).  ``basis[r]`` writes zeta_n^r
    in a basis of the Zumbroich kind (Bosma, "Canonical bases for cyclotomic
    fields", 1990) as a tuple of (basis residue, +-1).  For each prime p
    with p^e exactly dividing n, the p-digit of a residue r is
    (r mod p^e) // p^(e-1); adding n/p moves that digit through all p
    values and fixes the other primes' components.  The basis residues have
    p-digit 0 for p = 2 and a nonzero p-digit for odd p; there are phi(n)
    of them, and the relations zeta^(r + n/2) = -zeta^r and
    sum_b zeta^(r + b*n/p) = 0 rewrite every other residue.  Both tables
    fill on first use, so a large conductor costs only what is read.
    """

    def __init__(self, n):
        self.n = n
        self.primes = []
        m, p = n, 2
        while p * p <= m:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                self.primes.append((p, q))
            p += 1
        if m > 1:
            self.primes.append((m, m))
        self.roots = _Memo(lambda r: cmath.exp(2j * cmath.pi * (r / n)))
        self.basis = _Memo(self._reduce)

    def _reduce(self, r):
        n, vec = self.n, {r: 1}
        for p, q in self.primes:
            top, step, out = q // p, n // p, {}
            for s, c in vec.items():
                if (s % q // top == 0) == (p == 2):
                    out[s] = out.get(s, 0) + c
                else:
                    for b in range(1, p):
                        t = (s + b * step) % n
                        out[t] = out.get(t, 0) - c
            vec = out
        return tuple(vec.items())

    def is_zero(self, terms):
        """Whether sum c * zeta_n^r over ``terms`` is 0, exactly."""
        acc = {}
        for r, c in terms.items():
            for b, sign in self.basis[r]:
                acc[b] = acc.get(b, 0) + sign * c
        return not any(acc.values())


class _Memo(dict):
    """A dict that fills a missing entry from a function of its key."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        out = self[key] = self.fill(key)
        return out


#: the field of each conductor, built once
_field = functools.cache(_Cyclotomic)


def _exact(terms, cond):
    """An exact PhaseSum from a residue -> coefficient dict that is already
    reduced mod cond and has no zero coefficient."""
    out = object.__new__(PhaseSum)
    out.terms, out.rem, out.cond = terms, 0j, cond
    return out


def _lifted(terms, k):
    return terms if k == 1 else {r * k: c for r, c in terms.items()}


class PhaseSum:
    """A finite rational combination of exact phases, or a float; a phase
    is a one-term sum, ``PhaseSum.e(x)`` or ``PhaseSum.residue(r, n)``.

    Supports the coefficient arithmetic of the normal-form algebra: sums,
    products, conjugation.  A sum is exact or float, never both.  An exact
    sum has conductor ``cond`` N and ``terms``, a dict from int residues mod
    N to nonzero int coefficients (Fractions only after a rational
    ``scale``), and ``rem`` 0; a float sum has no terms and its complex
    value in ``rem``.  Any sum or product with a float operand is float.

    Zero testing is exact for an exact sum: an empty sum is zero; a float
    value larger than its rounding error bound, (k + 32) * eps * sum |c| for
    k terms, proves the sum nonzero; anything else, a coefficient beyond
    float range included, is reduced to the basis of Q(zeta_N) and is zero
    iff every coordinate is.  A float sum is zero within 1e-12, and a NaN
    never is.
    """

    __slots__ = ("terms", "rem", "cond")

    def __init__(self, terms=None, rem=0j, cond=1):
        self.terms = {}
        if terms:
            for r, coeff in terms.items():
                r %= cond
                self.terms[r] = self.terms.get(r, 0) + coeff
        self.terms = {r: c for r, c in self.terms.items() if c}
        self.rem = complex(rem)
        self.cond = cond
        if self.rem and self.terms:  # a float part makes the whole sum float
            self.terms, self.rem, self.cond = {}, self.value(), 1

    @staticmethod
    def zero():
        return _exact({}, 1)

    @staticmethod
    def one():
        return _exact({0: 1}, 1)

    @staticmethod
    def residue(r, n):
        """The phase exp(2*pi*i*r/n), exactly."""
        return _exact({r % n: 1}, n)

    @staticmethod
    def e(x):
        """The phase exp(2*pi*i*x): exact for a Fraction or an int, else float."""
        if isinstance(x, (Fraction, int)):
            x = Fraction(x)
            return PhaseSum.residue(x.numerator, x.denominator)
        return PhaseSum(rem=cmath.exp(2j * cmath.pi * (float(x) % 1.0)))

    def _common(self, other):
        """Both term dicts lifted to the lcm of the two conductors."""
        n1, n2 = self.cond, other.cond
        if n1 == n2:
            return n1, self.terms, other.terms
        n = math.lcm(n1, n2)
        return n, _lifted(self.terms, n // n1), _lifted(other.terms, n // n2)

    def __add__(self, other):
        if self.rem or other.rem:
            return PhaseSum(rem=self.value() + other.value())
        n, a, b = self._common(other)
        merged = dict(a)
        for r, c in b.items():
            c = merged.get(r, 0) + c
            if c:
                merged[r] = c
            else:
                del merged[r]
        return _exact(merged, n)

    def __neg__(self):
        if self.rem:
            return PhaseSum(rem=-self.rem)
        return _exact({r: -c for r, c in self.terms.items()}, self.cond)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.rem or other.rem:
            return PhaseSum(rem=self.value() * other.value())
        n, a, b = self._common(other)
        out = {}
        for r1, c1 in a.items():
            for r2, c2 in b.items():
                r = r1 + r2
                if r >= n:
                    r -= n
                out[r] = out.get(r, 0) + c1 * c2
        return _exact({r: c for r, c in out.items() if c}, n)

    def scale(self, q):
        if isinstance(q, (int, Fraction)):
            if self.rem:
                return PhaseSum(rem=self.rem * q)
            if not q:
                return _exact({}, self.cond)
            return _exact({r: c * q for r, c in self.terms.items()}, self.cond)
        return PhaseSum(rem=self.value() * complex(q))

    def conj(self):
        if self.rem:
            return PhaseSum(rem=self.rem.conjugate())
        n = self.cond
        return _exact({-r % n: c for r, c in self.terms.items()}, n)

    def times_phase(self, p):
        """self * p for a phase p, a one-term sum: an exact phase rotates
        the residues, cheaper than a general product."""
        if p.rem:
            return PhaseSum(rem=self.value() * p.rem)
        if self.rem:
            return PhaseSum(rem=self.rem * p.value())
        ((res, c),) = p.terms.items()
        if c != 1:
            return self * p
        if res == 0:
            return self
        n1, n2 = self.cond, p.cond
        n = n1 if n1 == n2 else math.lcm(n1, n2)
        k, shift = n // n1, res * (n // n2)
        return _exact({(r * k + shift) % n: c for r, c in self.terms.items()}, n)

    def value(self):
        total = self.rem
        if self.terms:
            roots = _field(self.cond).roots
            for r, c in self.terms.items():
                total += complex(c) * roots[r]
        return total

    @property
    def exact(self):
        return self.rem == 0

    def is_zero(self):
        if self.rem:
            return abs(self.rem) <= TOL
        terms = self.terms
        if len(terms) < 2:
            return not terms
        field = _field(self.cond)
        roots, total, size = field.roots, 0j, 0.0
        try:
            for r, c in terms.items():
                c = float(c)
                total += c * roots[r]
                size += abs(c)
        except OverflowError:  # a coefficient beyond float range
            return field.is_zero(terms)
        if abs(total) > (len(terms) + 32) * _EPS * size:
            return False
        return field.is_zero(terms)

    def same_as(self, other):
        return (self - other).is_zero()

    def is_one(self):
        """Whether the sum is 1, by the zero test of its difference from 1."""
        return self.same_as(PhaseSum.one())

    def is_unimodular(self):
        """|u| = 1: exactly u conj(u) = 1 for an exact sum, within 1e-12
        for a float."""
        if self.rem:
            return abs(abs(self.rem) - 1.0) <= TOL
        if len(self.terms) == 1:
            return abs(next(iter(self.terms.values()))) == 1
        return (self * self.conj()).same_as(PhaseSum.one())

    def __repr__(self):
        if self.is_zero():
            return "PhaseSum(0)"
        bits = [f"{c}@e({Fraction(r, self.cond)})" for r, c in sorted(self.terms.items())]
        if self.rem:
            bits.append(f"{self.rem}")
        return "PhaseSum(" + " + ".join(bits) + ")"


class GridFunction:
    """A function on the sample grid: a tuple of PhaseSum values.

    Homotopy grids have M >= 2 points; fiber evaluation produces singleton
    grids (constants), which are allowed everywhere coefficients are.
    """

    __slots__ = ("samples",)

    def __init__(self, samples):
        samples = tuple(samples)
        if not samples:
            raise ValueError("a grid function needs at least one sample")
        self.samples = samples

    @staticmethod
    def one(m):
        return GridFunction([PhaseSum.one()] * m)

    @staticmethod
    def zero(m):
        return GridFunction([PhaseSum.zero()] * m)

    @property
    def m(self):
        return len(self.samples)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_grid(other)
            return GridFunction(a * b for a, b in zip(self.samples, other.samples))
        return GridFunction(a * other for a in self.samples)

    def __add__(self, other):
        self._check_grid(other)
        return GridFunction(a + b for a, b in zip(self.samples, other.samples))

    def __sub__(self, other):
        self._check_grid(other)
        return GridFunction(a - b for a, b in zip(self.samples, other.samples))

    def conj(self):
        return GridFunction(a.conj() for a in self.samples)

    def scale(self, q):
        return GridFunction(a.scale(q) for a in self.samples)

    def times_phases(self, phases):
        """Pointwise rotation by a vector of phases, one-term sums."""
        return GridFunction(a.times_phase(p) for a, p in zip(self.samples, phases))

    def at(self, j):
        return self.samples[j]

    def values(self):
        return [a.value() for a in self.samples]

    def is_zero(self):
        return all(a.is_zero() for a in self.samples)

    def same_as(self, other):
        return self.m == other.m and all(a.same_as(b) for a, b in zip(self.samples, other.samples))

    def is_unitary(self):
        return all(a.is_unimodular() for a in self.samples)

    def _check_grid(self, other):
        if self.m != other.m:
            raise ValueError(f"grid size mismatch: {self.m} != {other.m}")

    def __repr__(self):
        return f"GridFunction({list(self.samples)!r})"


# ---------------------------------------------------------------------------
# exponent forms and cocycles


def path_degree(m):
    """Degree of the path part of a morphism (paths and product morphisms)."""
    degree = getattr(m, "degree", None)
    if degree is None:
        raise NotDegreeAdditiveError(f"no path degree on {m!r}")
    return degree


class ExponentForm:
    """A real-valued function q on composable pairs; exp(2*pi*i . ) of an
    *additive* cocycle solution gives a circle-valued cocycle.

    ``exponent(c1, c2)`` is the integer D*q(c1, c2) for a rational form with
    denominator D.  A form with a float entry has denominator 1 and gives
    the float q(c1, c2), or the int 0 where no entry contributes.
    """

    denominator = 1

    def exponent(self, c1, c2):
        raise NotImplementedError


def _numerators(values):
    """(D, scaled): the lcm D of the denominators and each value times D
    as an int, when every value is rational; (1, each value as a float)
    otherwise."""
    if all(isinstance(x, (Fraction, int)) for x in values):
        d = math.lcm(*(Fraction(x).denominator for x in values))
        return d, [int(x * d) for x in values]
    return 1, [float(x) for x in values]


class RotationForm(ExponentForm):
    """Bilinear exponent sum_{i>j} theta[i][j] d(c1)_i d(c2)_j on path degrees.

    Bilinearity in additive degrees forces the cocycle identity, and units
    have degree zero, so normalization is automatic.  The form is rational
    unless an entry below the diagonal is a nonzero float.
    """

    def __init__(self, theta):
        self.theta = [
            [x if isinstance(x, (Fraction, int)) else float(x) for x in row]
            for row in theta
        ]
        # a zero entry never contributes, so a float 0.0 leaves the form rational
        below = {
            (i, j): x for i, row in enumerate(self.theta) for j, x in enumerate(row[:i]) if x
        }
        self.denominator, scaled = _numerators(list(below.values()))
        self._coeffs = dict(zip(below, scaled))

    def exponent(self, c1, c2):
        d1, d2 = path_degree(c1), path_degree(c2)
        total = 0
        for (i, j), coeff in self._coeffs.items():
            if d1[i] and d2[j]:
                total = total + coeff * d1[i] * d2[j]
        return total


class TableForm(ExponentForm):
    """Explicit exponent table on composable pairs; unlisted pairs are 0."""

    def __init__(self, table):
        self.table = dict(table)
        self.denominator, scaled = _numerators(list(self.table.values()))
        self._scaled = dict(zip(self.table, scaled))

    def exponent(self, c1, c2):
        return self._scaled.get((c1, c2), 0)


class CocycleFamily:
    """A grid-sampled family of circle-valued 2-cocycles: fiber j is
    exp(2*pi*i * scales[j] * q) for the exponent form q.

    With rational scales of common denominator S, ``cond`` is the
    conductor N = D*S and an integer exponent E has the fiber phases
    S*scales[j]*E mod N; otherwise ``cond`` is None and the phases are
    floats.
    """

    def __init__(self, form: ExponentForm, scales, name):
        self.form = form
        self.scales = tuple(scales)
        self.m = len(self.scales)
        self.name = name
        self.cond = None
        if all(isinstance(s, (Fraction, int)) for s in self.scales):
            d, self._steps = _numerators(self.scales)
            self.cond = form.denominator * d
        self._tables = {}
        self._phases = {}

    def exponents(self, cat: SmallCategory):
        """The form's exponents on cat's ids, kept for the family's lifetime:
        ``table[i][j]`` is q(morphs[i], morphs[j]), asked on first read; the
        id None (an undefined composite) stands for None."""
        table = self._tables.get(cat)
        if table is None:
            morphs, exponent = cat.morphs, self.form.exponent

            def row(i):
                a = None if i is None else morphs[i]
                return _Memo(lambda j: exponent(a, None if j is None else morphs[j]))

            table = self._tables[cat] = _Memo(row)
        return table

    def exponent(self, c1, c2):
        """The form's exponent of the pair, unkept; the checks read exponents."""
        return self.form.exponent(c1, c2)

    def phases(self, e):
        """The fiber phases exp(2*pi*i*scale_j*q) of an exponent e = D*q as
        one-term sums, memoized per exponent: the residues S*scale_j*e mod N
        for an int e of a family with a conductor, else PhaseSum.e(scale_j*q)."""
        out = self._phases.get(e)
        if out is None:
            if type(e) is int and self.cond is not None:
                out = tuple(PhaseSum.residue(a * e, self.cond) for a in self._steps)
            else:
                q = Fraction(e, self.form.denominator) if type(e) is int else e
                out = tuple(PhaseSum.e(s * q) for s in self.scales)
            self._phases[e] = out
        return out

    def phase(self, c1, c2) -> PhaseSum:
        """The pair's phase, a one-term sum, in the first fiber, which is the
        only one of a cocycle."""
        return self.phases(self.exponent(c1, c2))[0]

    def check_grid_index(self, j):
        """OffGridError unless j is a grid index: an int in 0..m-1, and not
        a bool.  The one rule for every fiber index."""
        if type(j) is not int or not 0 <= j < self.m:
            raise OffGridError(f"grid index {j} outside 0..{self.m - 1}")

    def cocycle_at(self, j) -> "CocycleFamily":
        """Fiber j, as the one-fiber family at its scale; it shares this
        family's exponent tables, which depend on the form only."""
        self.check_grid_index(j)
        s = self.scales[j]
        fiber = CocycleFamily(self.form, (s,), f"{self.name}@t={s}")
        fiber._tables = self._tables
        return fiber

    def restrict(self, embed):
        return CocycleFamily(_RestrictedForm(self.form, embed), self.scales, f"{self.name}|sub")


def Cocycle(form: ExponentForm, name="cocycle") -> CocycleFamily:
    """A circle-valued 2-cocycle presented by an exponent form."""
    return CocycleFamily(form, (Fraction(1),), name)


class _RestrictedForm(ExponentForm):
    def __init__(self, inner, embed):
        self.inner = inner
        self.embed = embed
        self.denominator = inner.denominator

    def exponent(self, c1, c2):
        return self.inner.exponent(self.embed(c1), self.embed(c2))


def trivial_cocycle():
    return Cocycle(TableForm({}), name="trivial")


def rotation_cocycle(theta, cat: SmallCategory, check_bound=None) -> CocycleFamily:
    """The rotation cocycle of an angle matrix on a degree-additive category.

    Degree additivity of path parts is spot-checked on a small window;
    NotDegreeAdditiveError if it fails (or if morphisms carry no path part).
    """
    form = RotationForm(theta)
    sigma = Cocycle(form, name="rotation")
    if check_bound is not None:
        window = cat.morphisms(check_bound)
        for x in window:
            for y in window:
                if cat.s(x) != cat.r(y):
                    continue
                xy = cat.compose(x, y)
                if path_degree(xy) != deg_add(path_degree(x), path_degree(y)):
                    raise NotDegreeAdditiveError(f"composition breaks degrees at ({x}, {y})")
    return sigma


def verify_cocycle(sigma: CocycleFamily, cat: SmallCategory, bound) -> Report:
    """Normalization and the 2-cocycle identity, exhaustively on the window.

    Phases compare exactly in rational mode, within 1e-12 otherwise.
    """
    _, witness = _sweep_fibers(sigma, cat, bound)
    if witness is not None:
        return failing(f"cocycle[{sigma.name}]", witness=witness, bound=bound)
    return passing(f"cocycle[{sigma.name}]", bound=bound, triples=_triple_count(cat, bound))


def _is_zero(delta):
    """The one zero rule for an exponent defect: an int is zero iff it is 0,
    a float iff it is within 1e-12 of 0, and a NaN never."""
    return delta == 0 if type(delta) is int else abs(delta) <= TOL


def _defects(family: CocycleFamily, cat: SmallCategory, bound):
    """The one window sweep of every cocycle check, on the window's ids:
    yields (kind, ids, delta) for each item whose delta is not zero by the
    one zero rule, and _witness turns an item into morphisms.

    The items are, first, for each window morphism c, the exponents of the
    identity pairs (id_r(c), c) and (c, id_s(c)); then, for each composable
    triple, the additive defect q(b,c) + q(a,bc) - q(a,b) - q(ab,c), read
    from the family's id table.
    """
    ids, q, units = cat.window(bound).ids, family.exponents(cat), {}
    for c in ids:
        r, s = cat.ranges[c], cat.sources[c]
        for v in (r, s):
            if v not in units:
                units[v] = cat.id_of(cat.identity(v))
        for kind, delta in (("normalization_left", q[units[r]][c]),
                            ("normalization_right", q[c][units[s]])):
            if not _is_zero(delta):
                yield kind, (c,), delta
    for i, j, k, ij, jk in id_triples(cat, ids):
        qi = q[i]
        delta = (q[j][k] + qi[jk]) - (qi[j] + q[ij][k])
        # 0 and 0.0 are zero by either rule
        if delta != 0 and not _is_zero(delta):
            yield "identity", (i, j, k), delta


def _triple_count(cat: SmallCategory, bound):
    """The number of composable triples of the window, as id_triples counts
    them: for each middle morphism, the window morphisms before it times the
    window morphisms after it."""
    ids = cat.window(bound).ids
    before = collections.Counter(cat.sources[i] for i in ids)
    after = collections.Counter(cat.ranges[i] for i in ids)
    return sum(before[cat.ranges[j]] * after[cat.sources[j]] for j in ids)


def _witness(cat: SmallCategory, kind, ids):
    """A _defects item as its witness: the kind and the item's morphisms."""
    return (kind, *(cat.morphs[i] for i in ids))


def _sweep_fibers(family: CocycleFamily, cat: SmallCategory, bound):
    """verify_cocycle for every fiber of a family at once, in one sweep.

    Fiber j fails at a defect delta iff delta is not zero and
    exp(2*pi*i*scale_j*delta) != 1.  Returns ``(fiber, witness)``: the
    lowest failing fiber with the witness verify_cocycle gives for that
    fiber alone; the witness is None when every fiber passes.  Only fibers
    below the lowest failure found so far can change the answer, so the
    sweep watches those and stops once fiber 0 fails.
    """
    low, witness = family.m, None
    for kind, ids, delta in _defects(family, cat, bound):
        phases = family.phases(delta)
        j = next((j for j in range(low) if not phases[j].is_one()), None)
        if j is not None:
            low, witness = j, _witness(cat, kind, ids)
            if j == 0:
                break
    return low, witness


# ---------------------------------------------------------------------------
# homotopies


def LinearHomotopy(generator: ExponentForm, m=11) -> CocycleFamily:
    """Sigma_t = exp(2*pi*i*t*q) for an additive generator q, sampled on the
    grid t_j = j/(m-1)."""
    if m < 2:
        raise ValueError("homotopy grids need at least the two endpoints")
    return CocycleFamily(generator, (Fraction(j, m - 1) for j in range(m)), "linear")


def ConstantHomotopy(sigma: CocycleFamily, m=1) -> CocycleFamily:
    """A cocycle (a one-fiber family) repeated on m grid points; m = 1 is a
    plain twisted model, no homotopy."""
    return CocycleFamily(sigma.form, sigma.scales * m, sigma.name)


def _check_additive_generator(family: CocycleFamily, cat: SmallCategory, bound) -> Report:
    """linear_homotopy's precondition as a report: every defect of the
    family's form is zero by the one zero rule; witnesses read as
    verify_cocycle's."""
    for kind, ids, _delta in _defects(family, cat, bound):
        return failing("additive_generator", witness=_witness(cat, kind, ids), bound=bound)
    return passing("additive_generator", bound=bound)


def linear_homotopy(generator: ExponentForm, cat: SmallCategory, bound, m=11) -> CocycleFamily:
    """Build the linear homotopy of an additive generator.

    The generator must solve the additive cocycle identity and vanish on
    identity pairs (checked on the window) -- then every fiber t*q is
    automatically a solution as well.  Otherwise BadGeneratorError, whose
    ``report`` is the failing check with its witness.
    """
    hom = LinearHomotopy(generator, m)
    rep = _check_additive_generator(hom, cat, bound)
    if not rep:
        raise BadGeneratorError(f"generator is not an additive cocycle: {rep.witness}", rep)
    return hom


def verify_homotopy(h: CocycleFamily, cat: SmallCategory, bound) -> Report:
    """Every grid fiber is a cocycle.

    One sweep of the window serves all fibers: each triple's defect is
    computed once, and the report names the lowest failing fiber with the
    witness verify_cocycle gives for it.  At a scale of 0, as at the start
    of a linear homotopy, a finite exponent gives the phase 1 exactly.
    """
    fiber, witness = _sweep_fibers(h, cat, bound)
    if witness is not None:
        return failing("homotopy_fibers", witness={"fiber": fiber, "inner": witness}, bound=bound)
    return passing("homotopy_fibers", bound=bound, fibers=h.m)
