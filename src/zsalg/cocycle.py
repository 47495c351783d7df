"""Circle-valued 2-cocycles, grid-sampled homotopies, and phase arithmetic.

Phases are points of the circle written additively: a value q stands for
exp(2*pi*i*q).  When every input is rational the whole calculus stays in
Fraction arithmetic and comparisons are exact; any float input degrades the
affected values to double precision with a 1e-12 comparison tolerance.

Coefficients of the exact algebra model are finite sums of phases
(PhaseSum).  A sum is exact or float, never both: a float operand collapses
a sum or product to its complex value.

Every cocycle family is one CocycleFamily: an exponent form q and one scale
s_j per grid point, fiber j being exp(2*pi*i*s_j*q).  A cocycle is the
one-fiber family at scale 1 (Cocycle), a linear homotopy the family on the
grid t_j = j/(M-1) (LinearHomotopy), and a constant family repeats its
cocycle's scale (ConstantHomotopy); a pair's per-fiber samples form a
GridFunction.  Every layer that prices a pair reads the family's two memos:
exponent(c1, c2) per pair, and phases(q), the M fiber phases, per exponent.

Every cocycle check reads one window sweep, _defects: the exponent of each
identity pair, then the additive defect
delta = q(b,c) + q(a,bc) - q(a,b) - q(ab,c) of each composable triple.  One
zero rule decides a defect: exactly for a Fraction, within 1e-12 for a
float, and a NaN is never zero.  q is an additive generator iff every item
is zero; fiber j is a cocycle iff every item is zero or has
exp(2*pi*i*s_j*delta) = 1.  Continuity between grid samples cannot be
certified from samples and is reported as a stated limitation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .categories import SmallCategory, composable_triples
from .errors import BadGeneratorError, NotDegreeAdditiveError
from .kgraph import Path, deg_add
from .report import Report, failing, passing
from .selfsim import ZSMorphism

TOL = 1e-12


@dataclass(frozen=True)
class Phase:
    """A unit complex number exp(2*pi*i*value); exact iff value is a Fraction."""

    value: object  # Fraction (exact) or float

    def __post_init__(self):
        if isinstance(self.value, (Fraction, int)):
            object.__setattr__(self, "value", Fraction(self.value) % 1)
        else:
            object.__setattr__(self, "value", float(self.value) % 1.0)

    @property
    def exact(self):
        return isinstance(self.value, Fraction)

    def __mul__(self, other):
        return Phase(self.value + other.value)

    def conj(self):
        return Phase(-self.value)

    def complex_value(self):
        return cmath.exp(2j * cmath.pi * float(self.value))

    def is_one(self):
        if self.exact:
            return self.value == 0
        return abs(self.complex_value() - 1.0) <= TOL

    def same_as(self, other):
        if self.exact and other.exact:
            return self.value == other.value
        return abs(self.complex_value() - other.complex_value()) <= TOL


ONE = Phase(Fraction(0))


class PhaseSum:
    """A finite rational combination of exact phases, or a float.

    Supports the coefficient arithmetic of the normal-form algebra: sums,
    products, conjugation.  A sum is exact (``terms``, with ``rem`` zero) or
    float (``rem`` alone), never both: any sum or product with a float
    operand collapses to its complex value in ``rem``.  Zero testing is
    numeric (1e-12).
    """

    __slots__ = ("terms", "rem")

    def __init__(self, terms=None, rem=0j):
        self.terms = {}
        if terms:
            for ph, coeff in terms.items():
                if coeff:
                    self.terms[ph] = self.terms.get(ph, Fraction(0)) + coeff
        self.terms = {ph: c for ph, c in self.terms.items() if c}
        self.rem = complex(rem)

    @staticmethod
    def zero():
        return PhaseSum()

    @staticmethod
    def one():
        return PhaseSum({Fraction(0): Fraction(1)})

    @staticmethod
    def from_phase(p: Phase):
        if p.exact:
            return PhaseSum({p.value: Fraction(1)})
        return PhaseSum(rem=p.complex_value())

    def __add__(self, other):
        if self.rem or other.rem:
            return PhaseSum(rem=self.value() + other.value())
        merged = dict(self.terms)
        for ph, c in other.terms.items():
            merged[ph] = merged.get(ph, Fraction(0)) + c
        return PhaseSum(merged)

    def __neg__(self):
        return PhaseSum({ph: -c for ph, c in self.terms.items()}, -self.rem)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Phase):
            other = PhaseSum.from_phase(other)
        if self.rem or other.rem:
            return PhaseSum(rem=self.value() * other.value())
        out = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                key = (p1 + p2) % 1
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return PhaseSum(out)

    def scale(self, q):
        if isinstance(q, (int, Fraction)):
            return PhaseSum({ph: c * q for ph, c in self.terms.items()}, self.rem * q)
        return PhaseSum(rem=self.value() * complex(q))

    def conj(self):
        return PhaseSum(
            {(-ph) % 1: c for ph, c in self.terms.items()}, self.rem.conjugate()
        )

    def times_phase(self, p: Phase):
        """Rotate by a unit phase (cheaper than a general product)."""
        if p.exact:
            if p.value == 0:
                return self
            return PhaseSum(
                {(ph + p.value) % 1: c for ph, c in self.terms.items()},
                self.rem * p.complex_value(),
            )
        return PhaseSum(rem=self.value() * p.complex_value())

    def value(self):
        total = self.rem
        for ph, c in self.terms.items():
            total += complex(c) * cmath.exp(2j * cmath.pi * float(ph))
        return total

    @property
    def exact(self):
        return self.rem == 0

    def is_zero(self):
        if not self.terms and abs(self.rem) <= TOL:
            return True
        return abs(self.value()) <= TOL

    def same_as(self, other):
        return (self - other).is_zero()

    def is_unimodular(self):
        if self.exact and len(self.terms) == 1:
            return abs(next(iter(self.terms.values()))) == 1
        return abs(abs(self.value()) - 1.0) <= TOL

    def __repr__(self):
        if self.is_zero():
            return "PhaseSum(0)"
        bits = [f"{c}@e({ph})" for ph, c in sorted(self.terms.items())]
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

    @staticmethod
    def from_phases(phases):
        return GridFunction([PhaseSum.from_phase(p) for p in phases])

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
        """Pointwise rotation by a vector of unit phases."""
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
    if isinstance(m, ZSMorphism):
        return m.path.degree
    if isinstance(m, Path):
        return m.degree
    raise NotDegreeAdditiveError(f"no path degree on {m!r}")


class ExponentForm:
    """A real-valued function on composable pairs; exp(2*pi*i . ) of an
    *additive* cocycle solution gives a circle-valued cocycle."""

    def exponent(self, c1, c2):
        raise NotImplementedError


class RotationForm(ExponentForm):
    """Bilinear exponent sum_{i>j} theta[i][j] d(c1)_i d(c2)_j on path degrees.

    Bilinearity in additive degrees forces the cocycle identity, and units
    have degree zero, so normalization is automatic.
    """

    def __init__(self, theta):
        self.theta = [
            [x if isinstance(x, (Fraction, int)) else float(x) for x in row]
            for row in theta
        ]

    def exponent(self, c1, c2):
        d1, d2 = path_degree(c1), path_degree(c2)
        total = Fraction(0)
        for i in range(len(d1)):
            for j in range(i):
                coeff = self.theta[i][j]
                if coeff and d1[i] and d2[j]:
                    total = total + coeff * d1[i] * d2[j]
        return total


class TableForm(ExponentForm):
    """Explicit exponent table on composable pairs; unlisted pairs are 0."""

    def __init__(self, table):
        self.table = dict(table)

    def exponent(self, c1, c2):
        return self.table.get((c1, c2), Fraction(0))


class CocycleFamily:
    """A grid-sampled family of circle-valued 2-cocycles: fiber j is
    exp(2*pi*i * scales[j] * q) for the exponent form q."""

    def __init__(self, form: ExponentForm, scales, name):
        self.form = form
        self.scales = tuple(scales)
        self.m = len(self.scales)
        self.name = name
        self._exponents = {}
        self._phases = {}

    def exponent(self, c1, c2):
        """Additive exponent of the pair, memoized per pair."""
        out = self._exponents.get((c1, c2))
        if out is None:
            out = self._exponents[c1, c2] = self.form.exponent(c1, c2)
        return out

    def phases(self, q):
        """The fiber phases exp(2*pi*i*scale_j*q) of an exponent, memoized per
        exponent."""
        out = self._phases.get(q)
        if out is None:
            out = self._phases[q] = tuple(Phase(s * q) for s in self.scales)
        return out

    def phase(self, c1, c2) -> Phase:
        """The pair's phase in the first fiber, which is the only one of a cocycle."""
        return self.phases(self.exponent(c1, c2))[0]

    def cocycle_at(self, j) -> "CocycleFamily":
        """Fiber j, as the one-fiber family at its scale."""
        s = self.scales[j]
        return CocycleFamily(self.form, (s,), f"{self.name}@t={s}")

    def restrict(self, embed):
        return CocycleFamily(_RestrictedForm(self.form, embed), self.scales, f"{self.name}|sub")


def Cocycle(form: ExponentForm, name="cocycle") -> CocycleFamily:
    """A circle-valued 2-cocycle presented by an exponent form."""
    return CocycleFamily(form, (Fraction(1),), name)


class _RestrictedForm(ExponentForm):
    def __init__(self, inner, embed):
        self.inner = inner
        self.embed = embed

    def exponent(self, c1, c2):
        return self.inner.exponent(self.embed(c1), self.embed(c2))


def trivial_cocycle():
    return Cocycle(TableForm({}), name="trivial")


def restrict_cocycle(sigma: CocycleFamily, embed) -> CocycleFamily:
    """The same cocycle read along a subcategory embedding."""
    return sigma.restrict(embed)


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
    _, witness, checked = _sweep_fibers(sigma, cat, bound)
    if witness is not None:
        return failing(f"cocycle[{sigma.name}]", witness=witness, bound=bound)
    return passing(f"cocycle[{sigma.name}]", bound=bound, triples=checked)


def _is_zero(delta):
    """The one zero rule for an exponent defect: exactly for a Fraction,
    within 1e-12 for a float, and a NaN is never zero."""
    return delta == 0 if isinstance(delta, Fraction) else abs(delta) <= TOL


def _defects(family: CocycleFamily, cat: SmallCategory, bound):
    """The one window sweep of every cocycle check: yields (witness, delta).

    First, for each window morphism c, the exponents of the identity pairs
    (id_r(c), c) and (c, id_s(c)); then, for each composable triple, the
    additive defect q(b,c) + q(a,bc) - q(a,b) - q(ab,c), with q the family's
    memoized exponent.
    """
    window = cat.morphisms(bound)
    q = family.exponent
    for c in window:
        yield ("normalization_left", c), q(cat.identity(cat.r(c)), c)
        yield ("normalization_right", c), q(c, cat.identity(cat.s(c)))
    for c1, c2, c3, c12, c23 in composable_triples(cat, window):
        yield ("identity", c1, c2, c3), (q(c2, c3) + q(c1, c23)) - (q(c1, c2) + q(c12, c3))


def _sweep_fibers(family: CocycleFamily, cat: SmallCategory, bound):
    """verify_cocycle for every fiber of a family at once, in one sweep.

    Fiber j fails at a defect delta iff delta is not zero and
    exp(2*pi*i*scale_j*delta) != 1.  Returns ``(fiber, witness, triples)``:
    the lowest failing fiber with the witness verify_cocycle gives for that
    fiber alone; the witness is None when every fiber passes.  Only fibers
    below the lowest failure found so far can change the answer, so the
    sweep watches those and stops once fiber 0 fails.
    """
    low, witness, checked = family.m, None, 0
    for item, delta in _defects(family, cat, bound):
        if item[0] == "identity":
            checked += 1
        if _is_zero(delta):
            continue
        phases = family.phases(delta)
        j = next((j for j in range(low) if not phases[j].is_one()), None)
        if j is not None:
            low, witness = j, item
            if j == 0:
                break
    return low, witness, checked


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
    for item, delta in _defects(family, cat, bound):
        if not _is_zero(delta):
            return failing("additive_generator", witness=item, bound=bound)
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
    fiber, witness, _ = _sweep_fibers(h, cat, bound)
    if witness is not None:
        return failing("homotopy_fibers", witness={"fiber": fiber, "inner": witness}, bound=bound)
    return passing("homotopy_fibers", bound=bound, fibers=h.m)
