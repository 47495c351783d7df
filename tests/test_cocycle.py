"""Phases, grid functions, cocycle verification, homotopies."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from zsalg.cocycle import (
    Cocycle,
    CocycleFamily,
    ConstantHomotopy,
    GridFunction,
    LinearHomotopy,
    PhaseSum,
    RotationForm,
    TableForm,
    _check_additive_generator,
    linear_homotopy,
    rotation_cocycle,
    trivial_cocycle,
    verify_cocycle,
    verify_homotopy,
)
from zsalg.errors import BadGeneratorError, NotDegreeAdditiveError, ZsalgError
from zsalg.fixtures import kgraph_e2, kgraph_k1, swap_pair
from zsalg.kgraph import sub_kgraph, validate_kgraph
from zsalg.selfsim import ZSCategory


def rot_theta(theta):
    return Cocycle(RotationForm([[0, 0], [theta, 0]]), name=f"rot({theta})")


def turn(p):
    """The angle in [0, 1) of an exact phase, in turns: r/N for its one
    residue r mod N of coefficient 1."""
    ((r, c),) = p.terms.items()
    assert c == 1 and p.exact
    return Fraction(r, p.cond)


def test_phase_arithmetic_exact():
    i = PhaseSum.e(Fraction(1, 4))
    assert turn(i * i) == Fraction(1, 2)
    assert turn(i.conj()) == Fraction(3, 4)
    assert abs(i.value() - 1j) < 1e-15
    five_quarters = PhaseSum.e(Fraction(5, 4))
    assert five_quarters.terms == {1: 1} and five_quarters.cond == 4


def test_phase_sum_algebra():
    i = PhaseSum.e(Fraction(1, 4))
    mi = PhaseSum.e(Fraction(3, 4))
    assert (i * mi).same_as(PhaseSum.one())
    assert (i + mi).is_zero()
    assert i.conj().same_as(mi)
    assert not (i + PhaseSum.one()).is_zero()
    assert i.is_unimodular() and not (i + PhaseSum.one()).is_unimodular()


def test_float_operand_collapses_phase_sum():
    """A phase sum is exact or float, never both."""
    exact = PhaseSum.e(Fraction(1, 4)) + PhaseSum.one()
    i_float = PhaseSum.e(0.25)
    for mixed, value in ((exact + i_float, 1 + 2j), (exact * i_float, -1 + 1j)):
        assert not mixed.terms and abs(mixed.rem - value) <= 1e-12
    assert exact.terms and not exact.rem


def test_constructor_collapses_terms_with_a_float_part():
    """Terms given with a nonzero float part collapse to the float sum of
    their value, as a float operand of + and * does."""
    zero = PhaseSum({0: 1}, rem=-1)
    assert zero.is_zero() and not zero.terms
    two_i = PhaseSum({1: 1}, rem=1j, cond=4)
    assert not two_i.terms and abs(two_i.rem - 2j) <= 1e-12
    assert two_i.same_as(PhaseSum.e(Fraction(1, 4)).scale(2))


def test_grid_function_star_algebra_laws():
    one = GridFunction.one(5)
    f = GridFunction([PhaseSum.e(Fraction(j, 7)) for j in range(5)])
    g = GridFunction([PhaseSum.e(Fraction(j, 3)) for j in range(5)])
    assert (f * g).same_as(g * f)
    assert (f * one).same_as(f)
    assert (f * f.conj()).same_as(one)
    assert ((f + g).conj()).same_as(f.conj() + g.conj())
    assert (f - f).is_zero()
    assert f.is_unitary()


def test_rotation_quarter_values():
    k1 = kgraph_k1((2, 2))
    sigma = rot_theta(Fraction(1, 4))
    e = k1.paths("v", (1, 0))[0]
    f = k1.paths("v", (0, 1))[0]
    assert turn(sigma.phase(f, e)) == Fraction(1, 4)  # i
    assert turn(sigma.phase(e, f)) == 0
    assert verify_cocycle(sigma, k1, (2, 2))


def test_rotation_angles_verify_exactly():
    k1 = kgraph_k1((2, 2))
    for theta in (Fraction(0), Fraction(1, 4), Fraction(1, 3)):
        assert verify_cocycle(rot_theta(theta), k1, (2, 2))


def test_trivial_cocycle_everywhere():
    assert verify_cocycle(trivial_cocycle(), kgraph_e2((3,)), (3,))
    assert verify_cocycle(trivial_cocycle(), kgraph_k1((2, 2)), (2, 2))


def test_perturbed_table_fails_with_witness():
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    bad = Cocycle(TableForm({(a, b): 0.1}), name="perturbed")
    rep = verify_cocycle(bad, e2, (2,))
    assert not rep
    assert rep.witness[0] == "identity" and len(rep.witness) == 4


def test_rotation_cocycle_constructor_checks_degrees():
    zs = ZSCategory(swap_pair())
    sigma = rotation_cocycle([[0]], zs, check_bound=(2,))
    assert verify_cocycle(sigma, zs, (2,))
    # morphisms without a path part cannot carry a rotation twist
    with pytest.raises(NotDegreeAdditiveError):
        rot_theta(Fraction(1, 4)).phase("g", "h")


def test_rotation_on_zs_category():
    # one-vertex 2-graph with flip action: rotation twists only path parts
    from zsalg.fixtures import swap2_pair

    zs = ZSCategory(swap2_pair())
    sigma = rotation_cocycle([[0, 0], [Fraction(1, 3), 0]], zs, check_bound=(1, 1))
    assert verify_cocycle(sigma, zs, (1, 1))
    # restriction to the degree-zero tail subcategory is trivial
    for g in zs.C.morphisms(None):
        for h in zs.C.morphisms(None):
            if zs.C.s(g) == zs.C.r(h):
                assert sigma.phase(zs.from_tail(g), zs.from_tail(h)).is_one()


def test_restriction_to_color_subgraph_trivial():
    k1 = kgraph_k1((2, 2))
    gamma, _ = validate_kgraph(sub_kgraph(k1, [1]), (2,))
    sigma = rot_theta(Fraction(1, 4))

    def embed(p):
        return k1.nf(p.edges, rng=p.rng) if p.edges else k1.identity(p.rng)

    restricted = sigma.restrict(embed)
    assert verify_cocycle(restricted, gamma, (2,))
    ee = gamma.paths("v", (2,))[0]
    e = gamma.paths("v", (1,))[0]
    assert restricted.phase(e, e).is_one()


def test_linear_homotopy_fibers():
    k1 = kgraph_k1((2, 2))
    hom = linear_homotopy(RotationForm([[0, 0], [Fraction(1, 4), 0]]), k1, (2, 2), m=11)
    e = k1.paths("v", (1, 0))[0]
    f = k1.paths("v", (0, 1))[0]
    assert turn(hom.cocycle_at(10).phase(f, e)) == Fraction(1, 4)
    assert turn(hom.cocycle_at(5).phase(f, e)) == Fraction(1, 8)
    assert hom.cocycle_at(0).phase(f, e).is_one()
    assert verify_homotopy(hom, k1, (2, 2))


def test_constant_homotopy():
    k1 = kgraph_k1((2, 2))
    fam = ConstantHomotopy(rot_theta(Fraction(1, 4)), m=3)
    f = k1.paths("v", (0, 1))[0]
    e = k1.paths("v", (1, 0))[0]
    assert [turn(fam.cocycle_at(j).phase(f, e)) for j in range(fam.m)] == [Fraction(1, 4)] * 3
    assert verify_homotopy(fam, k1, (2, 2))


def test_bad_generator_rejected():
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    with pytest.raises(BadGeneratorError):
        linear_homotopy(TableForm({(a, b): Fraction(1, 10)}), e2, (2,), m=3)


def test_nan_generator_rejected():
    """NaN compares false with everything, so every tolerance test is written
    to fail on it."""
    assert not PhaseSum.e(math.nan).is_one()
    assert not PhaseSum(rem=complex(math.nan)).is_zero()
    k1 = kgraph_k1((2, 2))
    with pytest.raises(BadGeneratorError):
        linear_homotopy(RotationForm([[0, 0], [math.nan, 0]]), k1, (1, 1), m=3)


def test_zero_generator_constant_trivial():
    e2 = kgraph_e2((2,))
    hom = linear_homotopy(TableForm({}), e2, (2,), m=4)
    a, b = e2.paths("v", (1,))
    assert all(hom.cocycle_at(j).phase(a, b).is_one() for j in range(hom.m))


def test_sampled_continuity_bound():
    k1 = kgraph_k1((2, 2))
    gen = RotationForm([[0, 0], [Fraction(1, 4), 0]])
    hom = LinearHomotopy(gen, m=11)
    max_q = 0.0
    window = k1.morphisms((2, 2))
    for c1 in window:
        for c2 in window:
            if k1.s(c1) != k1.r(c2):
                continue
            max_q = max(max_q, abs(gen.exponent(c1, c2) / gen.denominator))
            vec = [hom.cocycle_at(j).phase(c1, c2) for j in range(hom.m)]
            for j in range(10):
                step = abs(vec[j + 1].value() - vec[j].value())
                assert step <= 2 * cmath.pi * max_q / 10 + 1e-12


def test_grid_needs_two_endpoints():
    with pytest.raises(ZsalgError, match="the two endpoints, not 1"):
        LinearHomotopy(TableForm({}), m=1)


def test_restrict_cocycle_function():
    k1 = kgraph_k1((2, 2))
    gamma, _ = validate_kgraph(sub_kgraph(k1, [1]), (2,))

    def embed(p):
        return k1.nf(p.edges, rng=p.rng) if p.edges else k1.identity(p.rng)

    restricted = rot_theta(Fraction(1, 4)).restrict(embed)
    assert verify_cocycle(restricted, gamma, (2,))


def test_bad_generator_error_carries_witness():
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    with pytest.raises(BadGeneratorError) as info:
        linear_homotopy(TableForm({(a, b): Fraction(1, 10)}), e2, (2,), m=3)
    assert info.value.report.name == "additive_generator"
    assert info.value.report.witness == ("identity", a, a, b)


def _window_triples(cat, window):
    """Every composable triple of the window, by a plain nested loop."""
    for a in window:
        for b in window:
            if cat.s(a) != cat.r(b):
                continue
            for c in window:
                if cat.s(b) == cat.r(c):
                    yield a, b, c, cat.compose(a, b), cat.compose(b, c)


def oracle(sigma, cat, bound):
    """The reference: the definition applied with phase products, the first
    failing normalization pair, then the first failing triple; None if
    sigma is a cocycle on the window."""
    window = cat.morphisms(bound)
    for c in window:
        if not sigma.phase(cat.identity(cat.r(c)), c).is_one():
            return ("normalization_left", c)
        if not sigma.phase(c, cat.identity(cat.s(c))).is_one():
            return ("normalization_right", c)
    for a, b, c, ab, bc in _window_triples(cat, window):
        lhs = sigma.phase(b, c) * sigma.phase(a, bc)
        rhs = sigma.phase(a, b) * sigma.phase(ab, c)
        if not lhs.same_as(rhs):
            return ("identity", a, b, c)
    return None


def additive_oracle(form, cat, bound):
    """The reference for the additive check: each identity pair's exponent
    and each triple's q(b,c) + q(a,bc) - q(a,b) - q(ab,c) must be zero,
    exactly in rational mode, within 1e-12 otherwise."""

    def nonzero(x):
        return x != 0 if isinstance(x, Fraction) else not abs(x) <= 1e-12

    window = cat.morphisms(bound)
    for c in window:
        if nonzero(form.exponent(cat.identity(cat.r(c)), c)):
            return ("normalization_left", c)
        if nonzero(form.exponent(c, cat.identity(cat.s(c)))):
            return ("normalization_right", c)
    for a, b, c, ab, bc in _window_triples(cat, window):
        lhs = form.exponent(b, c) + form.exponent(a, bc)
        rhs = form.exponent(a, b) + form.exponent(ab, c)
        if nonzero(lhs - rhs):
            return ("identity", a, b, c)
    return None


def _families():
    k1 = kgraph_k1((2, 2))
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    bb = e2.nf(("b", "b"))
    mixed = CocycleFamily(
        TableForm(
            {
                (bb, bb): Fraction(1, 7),  # fiber 1 fails late in the sweep
                (a, a): Fraction(1, 5),  # fiber 2 fails earlier
                (e2.identity("v"), a): Fraction(1, 3),  # fiber 3 fails normalization
            }
        ),
        (0, 15, 21, 35),
        "mixed",
    )
    return [
        ("linear-k1", LinearHomotopy(RotationForm([[0, 0], [Fraction(1, 4), 0]]), m=5), k1, (2, 2)),
        ("constant-k1", ConstantHomotopy(rot_theta(Fraction(1, 4)), m=3), k1, (2, 2)),
        ("linear-non-additive", LinearHomotopy(TableForm({(a, b): Fraction(1, 10)}), m=4), e2, (2,)),
        ("mixed-fibers", mixed, e2, (2,)),
        ("perturbed-float", Cocycle(TableForm({(a, b): 0.1}), name="perturbed"), e2, (2,)),
        ("nan-rotation", LinearHomotopy(RotationForm([[0, 0], [math.nan, 0]]), m=3), k1, (1, 1)),
    ]


@pytest.mark.parametrize("name, h, cat, bound", _families(), ids=[f[0] for f in _families()])
def test_homotopy_sweep_matches_fiberwise_check(name, h, cat, bound):
    expected = None
    for j in range(h.m):
        inner = oracle(h.cocycle_at(j), cat, bound)
        assert verify_cocycle(h.cocycle_at(j), cat, bound).witness == inner
        if inner is not None and expected is None:
            expected = {"fiber": j, "inner": inner}
    rep = verify_homotopy(h, cat, bound)
    if expected is None:
        assert rep
    else:
        assert not rep and rep.witness == expected
    if name == "linear-non-additive":
        assert expected["fiber"] == 1
    if name == "mixed-fibers":
        # the lowest failing fiber wins, with its own first witness, even
        # though fibers 2 and 3 fail earlier in the sweep
        assert expected["fiber"] == 1
        assert verify_cocycle(h.cocycle_at(2), cat, bound).witness != expected["inner"]
    if name in ("perturbed-float", "nan-rotation"):
        assert expected["fiber"] == 0


@pytest.mark.parametrize("name, h, cat, bound", _families(), ids=[f[0] for f in _families()])
def test_additive_check_matches_exponent_oracle(name, h, cat, bound):
    assert _check_additive_generator(h, cat, bound).witness == additive_oracle(
        h.form, cat, bound
    )



@pytest.mark.parametrize("name, h, cat, bound", _families(), ids=[f[0] for f in _families()])
def test_sweep_asks_each_id_pair_once(name, h, cat, bound, monkeypatch):
    """The defect sweep reads its exponents by id pair: each distinct pair
    of the sweep reaches the family's form exactly once, and a pair whose
    exponent the sweep never needs is not asked.  The asks are exactly the
    filled entries of the family's id table."""
    calls = {}
    exponent = h.form.exponent

    def counting(c1, c2):
        calls[c1, c2] = calls.get((c1, c2), 0) + 1
        return exponent(c1, c2)

    monkeypatch.setattr(h.form, "exponent", counting)
    verify_homotopy(h, cat, bound)
    table = h.exponents(cat)

    def morph(i):
        return None if i is None else cat.morphs[i]

    filled = {(morph(i), morph(j)) for i, row in table.items() for j in row}
    assert set(calls) == filled and sum(map(len, table.values())) == len(calls)
    window = cat.morphisms(bound)
    needed = set()
    for c in window:
        needed |= {(cat.identity(cat.r(c)), c), (c, cat.identity(cat.s(c)))}
    for a, b, c, ab, bc in _window_triples(cat, window):
        needed |= {(b, c), (a, bc), (a, b), (ab, c)}
    assert set(calls.values()) == {1}
    # the sweep may stop at the lowest fiber's first witness
    assert set(calls) <= needed
    if verify_homotopy(h, cat, bound):
        assert set(calls) == needed


e = PhaseSum.e


def test_rational_zero_test_is_exact():
    """Zero is decided in Q(zeta_N), not by a float compared with 1e-12."""
    huge = PhaseSum.zero()
    for k in range(5):
        huge = huge + e(Fraction(k, 5)).scale(10**13)
    assert abs(huge.value()) > 1e-12 and huge.is_zero()
    assert (PhaseSum.one() + e(Fraction(1, 2))).is_zero()
    tiny = PhaseSum.one().scale(Fraction(1, 10**13))
    assert abs(tiny.value()) < 1e-12 and not tiny.is_zero()
    assert not tiny.same_as(PhaseSum.zero())
    roots = PhaseSum.zero()
    for k in range(120):
        roots = roots + e(Fraction(k, 120))
    assert roots.is_zero()
    assert not (roots + e(Fraction(7, 120))).is_zero()
    beyond = PhaseSum.one().scale(10**400) + e(Fraction(1, 2)).scale(10**400)
    assert beyond.is_zero() and not (beyond + PhaseSum.one()).is_zero()
    assert not PhaseSum(rem=complex(math.nan)).is_zero()
    assert not (PhaseSum(rem=complex(math.nan)) + huge).is_zero()


def test_rational_unimodularity_is_exact():
    """|u| = 1 is decided in Q(zeta_N) for an exact multi-term sum; a float
    sum keeps the 1e-12 tolerance."""
    u = PhaseSum.one()
    for k in range(5):
        u = u + e(Fraction(k, 5)).scale(10**13)
    assert abs(abs(u.value()) - 1) > 1e-12
    assert u.is_unimodular() and GridFunction([u, PhaseSum.one()]).is_unitary()
    sixth = PhaseSum.one() + e(Fraction(1, 3))
    assert sixth.same_as(e(Fraction(1, 6))) and sixth.is_unimodular()
    assert not PhaseSum.one().scale(2).is_unimodular()
    assert not (PhaseSum.one() + e(Fraction(1, 4))).is_unimodular()
    assert not PhaseSum.zero().is_unimodular()
    assert not GridFunction([u, PhaseSum.one().scale(2)]).is_unitary()
    assert PhaseSum(rem=1 + 1e-13).is_unimodular()
    assert not PhaseSum(rem=1 + 1e-11).is_unimodular()


class FractionPhaseSum:
    """The exact phase-sum arithmetic keyed by Fraction phases mod 1 that
    the integer residues replaced, kept as the oracle."""

    def __init__(self, terms=None):
        merged = {}
        for ph, c in (terms or {}).items():
            merged[ph % 1] = merged.get(ph % 1, Fraction(0)) + c
        self.terms = {ph: c for ph, c in merged.items() if c}

    def __add__(self, other):
        merged = dict(self.terms)
        for ph, c in other.terms.items():
            merged[ph] = merged.get(ph, Fraction(0)) + c
        return FractionPhaseSum(merged)

    def __neg__(self):
        return FractionPhaseSum({ph: -c for ph, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                key = (p1 + p2) % 1
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return FractionPhaseSum(out)

    def scale(self, q):
        return FractionPhaseSum({ph: c * q for ph, c in self.terms.items()})

    def conj(self):
        return FractionPhaseSum({(-ph) % 1: c for ph, c in self.terms.items()})

    def times_phase(self, ph):
        return FractionPhaseSum({(p + ph) % 1: c for p, c in self.terms.items()})

    def value(self):
        return sum(complex(c) * cmath.exp(2j * cmath.pi * float(ph)) for ph, c in self.terms.items())


CONDUCTORS = (1, 5, 16, 24, 40, 120)


def _random_pair(rng):
    """A random exact sum and the same sum as an oracle."""
    n = rng.choice(CONDUCTORS)
    terms = {}
    for _ in range(rng.randrange(6)):
        coeff = rng.randint(-3, 3)
        if rng.random() < 0.2:
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms[rng.randrange(n)] = coeff
    return (
        PhaseSum(terms, cond=n),
        FractionPhaseSum({Fraction(r, n): c for r, c in terms.items()}),
    )


def _as_fractions(s):
    return {Fraction(r, s.cond): c for r, c in s.terms.items()}


def _bits(s):
    """A sum's terms, conductor and the bits of its float part."""
    return s.terms, s.cond, s.rem.real.hex(), s.rem.imag.hex()


def test_integer_residues_match_fraction_oracle():
    """Over conductors 1, 5, 16, 24, 40 and 120, mixed ones included, every
    operation agrees with the Fraction-keyed arithmetic exactly, and the
    float values agree within 1e-12.  The rotation times_phase(p) is the
    product by the one-term sum p: exactly for an exact p, residue 0
    included, and bit for bit when p, the sum or both are float, a NaN
    phase included."""
    rng, floats = random.Random(14), random.Random(15)
    nan = PhaseSum.e(math.nan)
    assert not nan.is_one() and not nan.is_zero()
    for _ in range(400):
        (a, oa), (b, ob) = _random_pair(rng), _random_pair(rng)
        n = rng.choice(CONDUCTORS)
        r = rng.randrange(n)
        q = rng.choice([0, -2, 3, Fraction(2, 3), Fraction(-7, 5)])
        p = PhaseSum.residue(r, n)
        pairs = [
            (a + b, oa + ob),
            (a - b, oa - ob),
            (a * b, oa * ob),
            (a.conj(), oa.conj()),
            (a.times_phase(p), oa.times_phase(Fraction(r, n))),
            (a.scale(q), oa.scale(q)),
        ]
        for got, want in pairs:
            assert got.exact and _as_fractions(got) == want.terms
            assert abs(got.value() - want.value()) <= 1e-12
            assert got.is_zero() == (not want.terms or abs(want.value()) <= 1e-9)
        assert (a * b - b * a).is_zero()
        assert ((a + b) * a).same_as(a * a + b * a)
        for rot in (p, PhaseSum.residue(0, n), PhaseSum({r: -2}, cond=n)):
            assert _as_fractions(a.times_phase(rot)) == _as_fractions(a * rot)
        x = PhaseSum.e(floats.uniform(-2, 2))
        a_float = a + x
        assert a_float.rem and not a_float.terms
        for s, rot in ((a, x), (a_float, p), (a_float, x), (a, nan), (a_float, nan)):
            assert _bits(s.times_phase(rot)) == _bits(s * rot)
        assert not a.times_phase(nan).is_zero()


def test_family_conductor_and_integer_exponents():
    """The k1 rotation 1/4 on an 11-point grid has conductor 4 * 10 = 40 and
    integer exponents; a 24ths coefficient times a family phase lifts to the
    lcm, 120."""
    k1 = kgraph_k1((2, 2))
    hom = LinearHomotopy(RotationForm([[0, 0], [Fraction(1, 4), 0]]), m=11)
    e = k1.paths("v", (1, 0))[0]
    f = k1.paths("v", (0, 1))[0]
    assert hom.cond == 40 and hom.exponent(f, e) == 1 and type(hom.exponent(e, f)) is int
    phases = hom.phases(hom.exponent(f, e))
    assert [(p.terms, p.cond) for p in phases[:3]] == [({0: 1}, 40), ({1: 1}, 40), ({2: 1}, 40)]
    coeff = PhaseSum.residue(5, 24).times_phase(phases[1])
    assert coeff.cond == 120 and _as_fractions(coeff) == {Fraction(5, 24) + Fraction(1, 40): 1}


def test_family_phases_are_one_term_sums():
    """zsalg has one circle-value type: a family's fiber phases are one-term
    sums, the residues S*s_j*E mod N for a rational family and, for a float
    exponent, the float sum exp(2*pi*i*(s_j*q mod 1)) bit for bit."""
    import zsalg
    import zsalg.cocycle

    assert not hasattr(zsalg, "Phase") and not hasattr(zsalg.cocycle, "Phase")
    # N = 4 * 10 and S = 10, so fiber j's phase of E is the residue j*E mod 40
    rational = LinearHomotopy(RotationForm([[0, 0], [Fraction(1, 4), 0]]), m=11)
    for big_e in (0, 1, 7, -3, 123):
        got = [(p.terms, p.cond, p.rem) for p in rational.phases(big_e)]
        assert got == [({j * big_e % 40: 1}, 40, 0) for j in range(11)]
    k1 = kgraph_k1((2, 2))
    f, e = k1.paths("v", (0, 1))[0], k1.paths("v", (1, 0))[0]
    quarter = rot_theta(Fraction(1, 4)).phase(f, e)
    assert (quarter.terms, quarter.cond) == ({1: 1}, 4)
    assert (rational.phase(f, e).terms, rational.phase(f, e).cond) == ({0: 1}, 40)
    floating = LinearHomotopy(RotationForm([[0, 0], [0.3, 0]]), m=5)
    for q in (0.3, -1.7, 2.25, 1e-13, 12345.678):
        for s, p in zip(floating.scales, floating.phases(q)):
            want = cmath.exp(2j * cmath.pi * ((s * q) % 1.0))
            assert _bits(p) == ({}, 1, want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("n", [1, 2, 4, 9, 12, 15, 16, 24, 40, 105, 120])
def test_reduction_writes_each_root_in_a_basis(n):
    """zeta_n^r reduces to a signed sum of basis roots with the same value,
    and the basis roots number phi(n) = [Q(zeta_n):Q], so they are a basis."""
    from zsalg.cocycle import _field

    field = _field(n)
    basis = {r for r in range(n) if field.basis[r] == ((r, 1),)}
    assert len(basis) == sum(1 for r in range(n) if math.gcd(r, n) == 1)
    for r in range(n):
        assert {b for b, _ in field.basis[r]} <= basis
        value = sum(sign * field.roots[b] for b, sign in field.basis[r])
        assert abs(value - cmath.exp(2j * cmath.pi * r / n)) <= 1e-12
