"""Phases, grid functions, cocycle verification, homotopies."""

import cmath
import math
from fractions import Fraction

import pytest

from zsalg.cocycle import (
    Cocycle,
    ConstantHomotopy,
    GridFunction,
    Homotopy,
    LinearHomotopy,
    Phase,
    PhaseSum,
    RotationForm,
    TableForm,
    linear_homotopy,
    rotation_cocycle,
    trivial_cocycle,
    verify_cocycle,
    verify_homotopy,
)
from zsalg.errors import BadGeneratorError, NotDegreeAdditiveError
from zsalg.fixtures import kgraph_e2, kgraph_k1, swap_pair, zs_of
from zsalg.kgraph import sub_kgraph, validate_kgraph


def rot_theta(theta):
    return Cocycle(RotationForm([[0, 0], [theta, 0]]), name=f"rot({theta})")


def test_phase_arithmetic_exact():
    i = Phase(Fraction(1, 4))
    assert (i * i).value == Fraction(1, 2)
    assert i.conj().value == Fraction(3, 4)
    assert abs(i.complex_value() - 1j) < 1e-15
    assert Phase(Fraction(5, 4)).value == Fraction(1, 4)


def test_phase_sum_algebra():
    i = PhaseSum.from_phase(Phase(Fraction(1, 4)))
    mi = PhaseSum.from_phase(Phase(Fraction(3, 4)))
    assert (i * mi).same_as(PhaseSum.one())
    assert (i + mi).is_zero()
    assert i.conj().same_as(mi)
    assert not (i + PhaseSum.one()).is_zero()
    assert i.is_unimodular() and not (i + PhaseSum.one()).is_unimodular()


def test_grid_function_star_algebra_laws():
    one = GridFunction.one(5)
    f = GridFunction.from_phases([Phase(Fraction(j, 7)) for j in range(5)])
    g = GridFunction.from_phases([Phase(Fraction(j, 3)) for j in range(5)])
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
    assert sigma.phase(f, e).value == Fraction(1, 4)  # i
    assert sigma.phase(e, f).value == 0
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
    zs = zs_of(swap_pair())
    sigma = rotation_cocycle([[0]], zs, check_bound=(2,))
    assert verify_cocycle(sigma, zs, (2,))
    # morphisms without a path part cannot carry a rotation twist
    with pytest.raises(NotDegreeAdditiveError):
        rot_theta(Fraction(1, 4)).phase("g", "h")


def test_rotation_on_zs_category():
    # one-vertex 2-graph with flip action: rotation twists only path parts
    from zsalg.fixtures import swap2_pair

    zs = zs_of(swap2_pair())
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
    assert hom.cocycle_at(10).phase(f, e).value == Fraction(1, 4)
    assert hom.cocycle_at(5).phase(f, e).value == Fraction(1, 8)
    assert hom.cocycle_at(0).phase(f, e).is_one()
    assert verify_homotopy(hom, k1, (2, 2))


def test_constant_homotopy():
    k1 = kgraph_k1((2, 2))
    fam = ConstantHomotopy(rot_theta(Fraction(1, 4)), m=3)
    f = k1.paths("v", (0, 1))[0]
    e = k1.paths("v", (1, 0))[0]
    assert [p.value for p in fam.phase_vec(f, e)] == [Fraction(1, 4)] * 3
    assert verify_homotopy(fam, k1, (2, 2))


def test_bad_generator_rejected():
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    with pytest.raises(BadGeneratorError):
        linear_homotopy(TableForm({(a, b): Fraction(1, 10)}), e2, (2,), m=3)


def test_nan_generator_rejected():
    """NaN compares false with everything, so every tolerance test is written
    to fail on it."""
    assert not Phase(math.nan).is_one()
    assert not PhaseSum(rem=complex(math.nan)).is_zero()
    k1 = kgraph_k1((2, 2))
    with pytest.raises(BadGeneratorError):
        linear_homotopy(RotationForm([[0, 0], [math.nan, 0]]), k1, (1, 1), m=3)


def test_zero_generator_constant_trivial():
    e2 = kgraph_e2((2,))
    hom = linear_homotopy(TableForm({}), e2, (2,), m=4)
    a, b = e2.paths("v", (1,))
    assert all(p.is_one() for p in hom.phase_vec(a, b))


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
            max_q = max(max_q, abs(float(gen.exponent(c1, c2))))
            vec = hom.phase_vec(c1, c2)
            for j in range(10):
                step = abs(vec[j + 1].complex_value() - vec[j].complex_value())
                assert step <= 2 * cmath.pi * max_q / 10 + 1e-12


def test_grid_needs_two_endpoints():
    with pytest.raises(ValueError):
        LinearHomotopy(TableForm({}), m=1)


def test_restrict_cocycle_function():
    from zsalg.cocycle import restrict_cocycle

    k1 = kgraph_k1((2, 2))
    gamma, _ = validate_kgraph(sub_kgraph(k1, [1]), (2,))

    def embed(p):
        return k1.nf(p.edges, rng=p.rng) if p.edges else k1.identity(p.rng)

    restricted = restrict_cocycle(rot_theta(Fraction(1, 4)), embed)
    assert verify_cocycle(restricted, gamma, (2,))


def test_bad_generator_error_carries_witness():
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    with pytest.raises(BadGeneratorError) as info:
        linear_homotopy(TableForm({(a, b): Fraction(1, 10)}), e2, (2,), m=3)
    assert info.value.report.name == "additive_generator"
    assert info.value.report.witness == ("identity", a, a, b)


class TableFamily(Homotopy):
    """Fiber j is the table cocycle of tables[j]."""

    def __init__(self, tables):
        super().__init__(len(tables))
        self.fibers = [Cocycle(TableForm(t), name=f"fiber{j}") for j, t in enumerate(tables)]

    def cocycle_at(self, j):
        return self.fibers[j]

    def phase_vec(self, c1, c2):
        return tuple(sigma.phase(c1, c2) for sigma in self.fibers)


def fiberwise(h, cat, bound):
    """The reference: verify_cocycle on each fiber in turn."""
    for j in range(h.m):
        rep = verify_cocycle(h.cocycle_at(j), cat, bound)
        if not rep:
            return {"fiber": j, "inner": rep.witness}
    return None


def _families():
    k1 = kgraph_k1((2, 2))
    e2 = kgraph_e2((3,))
    a, b = e2.paths("v", (1,))
    bb = e2.nf(("b", "b"))
    mixed = TableFamily(
        [
            {},
            {(bb, bb): Fraction(1, 7)},  # fails late in the sweep
            {(a, a): Fraction(1, 5)},  # fails earlier
            {(e2.identity("v"), a): Fraction(1, 3)},  # fails normalization
        ]
    )
    return [
        ("linear-k1", LinearHomotopy(RotationForm([[0, 0], [Fraction(1, 4), 0]]), m=5), k1, (2, 2)),
        ("constant-k1", ConstantHomotopy(rot_theta(Fraction(1, 4)), m=3), k1, (2, 2)),
        ("linear-non-additive", LinearHomotopy(TableForm({(a, b): Fraction(1, 10)}), m=4), e2, (2,)),
        ("mixed-fibers", mixed, e2, (2,)),
    ]


@pytest.mark.parametrize("name, h, cat, bound", _families(), ids=[f[0] for f in _families()])
def test_homotopy_sweep_matches_fiberwise_check(name, h, cat, bound):
    rep = verify_homotopy(h, cat, bound)
    expected = fiberwise(h, cat, bound)
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
