"""Circle-valued 2-cocycles, grid-sampled homotopies, and phase arithmetic.

Phases are points of the circle written additively: a value q stands for
exp(2*pi*i*q).  When every input is rational the whole calculus stays in
Fraction arithmetic and comparisons are exact; any float input degrades the
affected values to double precision with a 1e-12 comparison tolerance.

Coefficients of the exact algebra model are finite sums of phases
(PhaseSum); a homotopy of cocycles is sampled on the grid t_j = j/(M-1) and
its per-pair sample vector is a GridFunction.  Only linear homotopies
exp(2*pi*i*t*q) are constructible here; arbitrary per-fiber tables can be
verified but not built.  Continuity between grid samples cannot be certified
from samples and is reported as a stated limitation.
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


def _same_product(p1: Phase, p2: Phase, p3: Phase, p4: Phase) -> bool:
    """p1 p2 == p3 p4, as (p1 * p2).same_as(p3 * p4) decides it; in rational
    mode the exponents differ by an integer, so no product is built."""
    if p1.exact and p2.exact and p3.exact and p4.exact:
        return (p1.value + p2.value - p3.value - p4.value).denominator == 1
    return (p1 * p2).same_as(p3 * p4)


class PhaseSum:
    """A finite rational combination of exact phases plus a float remainder.

    Supports the coefficient arithmetic of the normal-form algebra: sums,
    products, conjugation.  Zero testing is exact on the rational part and
    numeric (1e-12) once floats are involved.
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
        merged = dict(self.terms)
        for ph, c in other.terms.items():
            merged[ph] = merged.get(ph, Fraction(0)) + c
        return PhaseSum(merged, self.rem + other.rem)

    def __neg__(self):
        return PhaseSum({ph: -c for ph, c in self.terms.items()}, -self.rem)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Phase):
            other = PhaseSum.from_phase(other)
        out = {}
        rem = self.rem * other.rem
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                key = (p1 + p2) % 1
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        if other.rem:
            rem += self.value(exact_only=True) * other.rem
        if self.rem:
            rem += other.value(exact_only=True) * self.rem
        return PhaseSum(out, rem)

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

    def value(self, exact_only=False):
        total = 0j
        for ph, c in self.terms.items():
            total += complex(c) * cmath.exp(2j * cmath.pi * float(ph))
        if not exact_only:
            total += self.rem
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


class Cocycle:
    """A circle-valued 2-cocycle presented by an exponent form."""

    def __init__(self, form: ExponentForm, name="cocycle"):
        self.form = form
        self.name = name

    def phase(self, c1, c2) -> Phase:
        return Phase(self.form.exponent(c1, c2))

    def restrict(self, embed):
        return Cocycle(_RestrictedForm(self.form, embed), f"{self.name}|sub")


class _RestrictedForm(ExponentForm):
    def __init__(self, inner, embed):
        self.inner = inner
        self.embed = embed

    def exponent(self, c1, c2):
        return self.inner.exponent(self.embed(c1), self.embed(c2))


def trivial_cocycle():
    return Cocycle(TableForm({}), name="trivial")


def restrict_cocycle(sigma: Cocycle, embed) -> Cocycle:
    """The same cocycle read along a subcategory embedding."""
    return sigma.restrict(embed)


def rotation_cocycle(theta, cat: SmallCategory, check_bound=None) -> Cocycle:
    """The rotation cocycle of an angle matrix on a degree-additive category.

    Degree additivity of path parts is spot-checked on a small window;
    NotDegreeAdditiveError if it fails (or if morphisms carry no path part).
    """
    form = RotationForm(theta)
    sigma = Cocycle(form, name="rotation")
    if check_bound is not None:
        for x in cat.morphisms(check_bound):
            for y in cat.morphisms(check_bound):
                if cat.s(x) != cat.r(y):
                    continue
                xy = cat.compose(x, y)
                if path_degree(xy) != deg_add(path_degree(x), path_degree(y)):
                    raise NotDegreeAdditiveError(f"composition breaks degrees at ({x}, {y})")
    return sigma


def verify_cocycle(sigma: Cocycle, cat: SmallCategory, bound) -> Report:
    """Normalization and the 2-cocycle identity, exhaustively on the window.

    Phases compare exactly in rational mode, within 1e-12 otherwise.
    """
    _, witness, checked = _sweep_fibers(lambda c1, c2: (sigma.phase(c1, c2),), 1, cat, bound)
    if witness is not None:
        return failing(f"cocycle[{sigma.name}]", witness=witness, bound=bound)
    return passing(f"cocycle[{sigma.name}]", bound=bound, triples=checked)


def _sweep_fibers(phase_vec, m, cat: SmallCategory, bound):
    """verify_cocycle for a family of m cocycles at once, in one sweep.

    ``phase_vec(c1, c2)`` gives the pair's phase in every fiber; it is
    computed once per pair.  Returns ``(fiber, witness, triples)``: the
    lowest failing fiber with the witness verify_cocycle gives for that
    fiber alone; the witness is None when every fiber passes.
    Only fibers below the lowest failure found so far can change the
    answer, so the sweep watches those and stops once fiber 0 fails.
    """
    window = cat.morphisms(bound)
    memo = {}

    def vec(c1, c2):
        out = memo.get((c1, c2))
        if out is None:
            out = memo[c1, c2] = phase_vec(c1, c2)
        return out

    low, witness = m, None
    for c in window:
        for kind, pair in (
            ("normalization_left", (cat.identity(cat.r(c)), c)),
            ("normalization_right", (c, cat.identity(cat.s(c)))),
        ):
            phases = vec(*pair)
            j = next((j for j in range(low) if not phases[j].is_one()), None)
            if j is not None:
                low, witness = j, (kind, c)
                if j == 0:
                    return 0, witness, 0
    checked = 0
    for c1, c2, c3, c12, c23 in composable_triples(cat, window):
        v23, v1_23, v12, v12_3 = vec(c2, c3), vec(c1, c23), vec(c1, c2), vec(c12, c3)
        checked += 1
        j = next(
            (j for j in range(low) if not _same_product(v23[j], v1_23[j], v12[j], v12_3[j])),
            None,
        )
        if j is not None:
            low, witness = j, ("identity", c1, c2, c3)
            if j == 0:
                break
    return low, witness, checked


# ---------------------------------------------------------------------------
# homotopies


class Homotopy:
    """A grid-sampled family of cocycles; continuity between samples is a
    stated limitation of the model, not a verified property."""

    def __init__(self, m):
        if m < 2:
            raise ValueError("homotopy grids need at least the two endpoints")
        self.m = m

    def cocycle_at(self, j) -> Cocycle:
        raise NotImplementedError

    def exponent(self, c1, c2):
        """Additive exponent of the pair; fiber j has phase scale_j * exponent."""
        raise NotImplementedError

    def grid_scales(self):
        """Per-fiber multipliers of the exponent."""
        raise NotImplementedError

    def phase_vec(self, c1, c2):
        """The per-grid-point phases of the pair, as a tuple."""
        q = self.exponent(c1, c2)
        return tuple(Phase(s * q) for s in self.grid_scales())


class LinearHomotopy(Homotopy):
    """Sigma_t = exp(2*pi*i*t*q) for an additive generator q."""

    def __init__(self, generator: ExponentForm, m=11):
        super().__init__(m)
        self.generator = generator

    def cocycle_at(self, j) -> Cocycle:
        t = Fraction(j, self.m - 1)
        return Cocycle(_ScaledForm(self.generator, t), name=f"linear@t={t}")

    def exponent(self, c1, c2):
        return self.generator.exponent(c1, c2)

    def grid_scales(self):
        return tuple(Fraction(j, self.m - 1) for j in range(self.m))


class _ScaledForm(ExponentForm):
    def __init__(self, inner, t):
        self.inner = inner
        self.t = t

    def exponent(self, c1, c2):
        return self.t * self.inner.exponent(c1, c2)


class ConstantHomotopy(Homotopy):
    """A single cocycle viewed as a (possibly one-point) constant family."""

    def __init__(self, sigma: Cocycle, m=1):
        self.m = m  # m = 1 is allowed: a plain twisted model, no homotopy
        self.sigma = sigma

    def cocycle_at(self, j) -> Cocycle:
        return self.sigma

    def exponent(self, c1, c2):
        return self.sigma.form.exponent(c1, c2)

    def grid_scales(self):
        return (Fraction(1),) * self.m

    def phase_vec(self, c1, c2):
        return (self.sigma.phase(c1, c2),) * self.m


def _check_additive_generator(generator: ExponentForm, cat: SmallCategory, bound) -> Report:
    """linear_homotopy's precondition as a report; witnesses read as
    verify_cocycle's."""
    window = cat.morphisms(bound)
    for c in window:
        if generator.exponent(cat.identity(cat.r(c)), c):
            return failing("additive_generator", witness=("normalization_left", c), bound=bound)
        if generator.exponent(c, cat.identity(cat.s(c))):
            return failing("additive_generator", witness=("normalization_right", c), bound=bound)
    for c1, c2, c3, c12, c23 in composable_triples(cat, window):
        lhs = generator.exponent(c2, c3) + generator.exponent(c1, c23)
        rhs = generator.exponent(c1, c2) + generator.exponent(c12, c3)
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            bad = lhs != rhs
        else:
            # written so that a NaN exponent fails
            bad = not abs(float(lhs) - float(rhs)) <= TOL
        if bad:
            return failing("additive_generator", witness=("identity", c1, c2, c3), bound=bound)
    return passing("additive_generator", bound=bound)


def linear_homotopy(generator: ExponentForm, cat: SmallCategory, bound, m=11) -> LinearHomotopy:
    """Build the linear homotopy of an additive generator.

    The generator must solve the additive cocycle identity and vanish on
    identity pairs (checked on the window) -- then every fiber t*q is
    automatically a solution as well.  Otherwise BadGeneratorError, whose
    ``report`` is the failing check with its witness.
    """
    rep = _check_additive_generator(generator, cat, bound)
    if not rep:
        raise BadGeneratorError(f"generator is not an additive cocycle: {rep.witness}", rep)
    return LinearHomotopy(generator, m)


def verify_homotopy(h: Homotopy, cat: SmallCategory, bound) -> Report:
    """Every grid fiber is a cocycle; endpoint Sigma_0 = 1 for linear families.

    One sweep of the window serves all fibers: each pair's phase vector is
    computed once, and the report names the lowest failing fiber with the
    witness verify_cocycle gives for it.
    """
    fiber, witness, _ = _sweep_fibers(h.phase_vec, h.m, cat, bound)
    if witness is not None:
        return failing("homotopy_fibers", witness={"fiber": fiber, "inner": witness}, bound=bound)
    if isinstance(h, LinearHomotopy):
        sigma0 = h.cocycle_at(0)
        window = cat.morphisms(bound)
        for c1 in window:
            for c2 in window:
                if cat.s(c1) != cat.r(c2):
                    continue
                if not sigma0.phase(c1, c2).is_one():
                    return failing("homotopy_fibers", witness=("endpoint", c1, c2), bound=bound)
    return passing("homotopy_fibers", bound=bound, fibers=h.m)
