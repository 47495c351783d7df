"""Truncated matrix model: basis, relations, guards, cross-model agreement."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zsalg.cocycle import Cocycle, ConstantHomotopy, LinearHomotopy, RotationForm, trivial_cocycle
from zsalg.errors import InfiniteBasisError, OffGridError
from zsalg.fixtures import kgraph_k1, swap_pair, trivial_pair, x_monoid, zs_of
from zsalg.matrixrep import (
    PASS_TOL,
    build_grid_reps,
    build_rep,
    check_homotopy_relations,
    check_product_agreement,
    check_relations,
    join_projection,
    operator_norm,
    represent_element,
)
from zsalg.normalform import AlgebraModel, random_element


def rot_family(theta=Fraction(1, 4), m=11):
    return LinearHomotopy(RotationForm([[0, 0], [theta, 0]]), m=m)


def test_basis_sizes():
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    assert build_rep(zsk, rot_family(), (2, 2), 0).dim == 9
    zs2 = zs_of(swap_pair())
    triv = ConstantHomotopy(trivial_cocycle(), m=1)
    assert build_rep(zs2, triv, (2,), 0).dim == 14
    rep0 = build_rep(zs2, triv, (0,), 0)
    assert rep0.dim == 2
    edge = zs2.D.paths("v", (1,))[0]
    assert operator_norm(rep0.path_matrix(edge)) == 0.0


def test_rejects_infinite_basis_and_off_grid():
    with pytest.raises(InfiniteBasisError):
        build_rep(x_monoid(), ConstantHomotopy(trivial_cocycle(), m=1), 2, 0)
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    with pytest.raises(OffGridError):
        build_rep(zsk, rot_family(), (2, 2), 11)


def test_relations_k1_trivial_and_rotation():
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    for fam in (ConstantHomotopy(trivial_cocycle(), m=1), rot_family()):
        rep = build_rep(zsk, fam, (2, 2), fam.m - 1)
        out = check_relations(rep)
        assert out
        assert max(out.details["residuals"].values()) <= PASS_TOL


def test_nan_residual_fails():
    """A NaN angle gives NaN residuals, which fail the check instead of
    vanishing from the maximum."""
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    nan_rotation = ConstantHomotopy(Cocycle(RotationForm([[0, 0], [math.nan, 0]])), m=1)
    out = check_relations(build_rep(zsk, nan_rotation, (1, 1), 0))
    assert not out.passed
    assert math.isnan(out.details["residuals"]["partial_isometry"])
    assert math.isnan(out.witness["R1_multiplication"])


def test_relations_swap_trivial():
    zs2 = zs_of(swap_pair())
    rep = build_rep(zs2, ConstantHomotopy(trivial_cocycle(), m=1), (2,), 0)
    out = check_relations(rep)
    assert out and max(out.details["residuals"].values()) <= PASS_TOL


def test_rotation_relation_value():
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    rep = build_rep(zsk, rot_family(), (2, 2), 10)  # t = 1
    D = rep.D
    e = D.paths("v", (1, 0))[0]
    f = D.paths("v", (0, 1))[0]
    fe = D.compose(f, e)
    lhs = rep.path_matrix(f) @ rep.path_matrix(e)
    assert operator_norm(lhs - 1j * rep.path_matrix(fe)) <= PASS_TOL


def test_ck_guard_annihilation():
    # the vertex relation at level (1,0) kills exactly the floor subspace
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    rep = build_rep(zsk, rot_family(), (2, 2), 0)
    D = rep.D
    e = D.paths("v", (1, 0))[0]
    pe = rep.path_matrix(e)
    defect = rep.vertex_matrix("v") - pe @ pe.conj().T
    guard = rep.degree_floor_guard((1, 0))
    assert operator_norm(defect @ guard) <= PASS_TOL
    # and off the guard it genuinely fails to vanish (Toeplitz behavior)
    assert operator_norm(defect) > 0.5


def test_r2_guard_boundary():
    zs2 = zs_of(swap_pair())
    rep = build_rep(zs2, ConstantHomotopy(trivial_cocycle(), m=1), (2,), 0)
    a = rep.D.paths("v", (1,))[0]
    mat = rep.path_matrix(a)
    defect = mat.conj().T @ mat - rep.vertex_matrix("v")
    assert operator_norm(defect @ rep.degree_cap_guard((1,))) <= PASS_TOL
    assert operator_norm(defect) > 0.5  # full space sees the truncation


def test_tail_partial_unitaries():
    zs2 = zs_of(swap_pair())
    rep = build_rep(zs2, ConstantHomotopy(trivial_cocycle(), m=1), (2,), 0)
    g = rep.tail_matrix("g")
    assert operator_norm(g @ g.conj().T - rep.vertex_matrix("v")) <= PASS_TOL
    assert operator_norm(g.conj().T @ g - rep.vertex_matrix("v")) <= PASS_TOL


def test_join_projection_inclusion_exclusion():
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    j = join_projection([p, q])
    assert operator_norm(j - np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)) <= PASS_TOL
    assert join_projection([]) is None


def test_homotopy_relations_all_fibers():
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    out = check_homotopy_relations(zsk, rot_family(), (2, 2))
    assert out
    assert out.details["fibers"] == 11
    assert out.details["max_fiber_residual"] <= PASS_TOL


def test_fiber_zero_matches_untwisted():
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    rep0 = build_rep(zsk, rot_family(), (2, 2), 0)
    untw = build_rep(zsk, ConstantHomotopy(trivial_cocycle(), m=1), (2, 2), 0)
    for c in rep0.basis:
        assert operator_norm(rep0.matrix(c) - untw.matrix(c)) == 0.0


def test_represent_vertex_projection():
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    fam = rot_family()
    rep = build_rep(zsk, fam, (2, 2), 3)
    model = AlgebraModel(zsk, fam, (6, 6))
    mat = represent_element(rep, model.vertex("v"))
    assert operator_norm(mat - rep.vertex_matrix("v")) <= PASS_TOL


def test_represent_flip_permutation():
    # the flip generator permutes basis vectors and twists nothing
    zs2 = zs_of(swap_pair())
    fam = ConstantHomotopy(trivial_cocycle(), m=1)
    rep = build_rep(zs2, fam, (2,), 0)
    model = AlgebraModel(zs2, fam, (6,))
    D = model.D
    a, b = D.paths("v", (1,))
    x = model.term(model.one_fn(), a, "g", b)
    mat = represent_element(rep, x)
    # acting on basis vector (b w, h): lands on (a (g|>w), (g<|w) h)
    bw = zs2.from_path(D.compose(b, a))
    src = rep.index[bw]
    col = mat[:, src]
    nz = np.nonzero(np.abs(col) > 1e-9)[0]
    assert len(nz) == 1
    target = rep.basis[nz[0]]
    assert str(target.path) == "ab" and target.tail == "g"


def test_cross_model_product_agreement():
    zsk = zs_of(trivial_pair(kgraph_k1((3, 3))))
    fam = rot_family()
    model = AlgebraModel(zsk, fam, (8, 8))
    reps = build_grid_reps(zsk, fam, (2, 2))
    rng = random.Random(17)
    for _ in range(25):
        x = random_element(model, rng)
        y = random_element(model, rng)
        for rep in reps:
            assert check_product_agreement(rep, x, y) <= PASS_TOL


def test_represent_star_compatible():
    # tails never truncate, so representing the involution is exactly the
    # matrix adjoint -- no guard needed
    zs2 = zs_of(swap_pair())
    fam = ConstantHomotopy(trivial_cocycle(), m=1)
    rep = build_rep(zs2, fam, (2,), 0)
    model = AlgebraModel(zs2, fam, (6,))
    rng = random.Random(23)
    for _ in range(25):
        x = random_element(model, rng)
        lhs = represent_element(rep, x.star())
        rhs = represent_element(rep, x).conj().T
        assert operator_norm(lhs - rhs) <= PASS_TOL


def test_matrices_export_json():
    import json

    zs2 = zs_of(swap_pair())
    rep = build_rep(zs2, ConstantHomotopy(trivial_cocycle(), m=1), (1,), 0)
    doc = rep.to_json()
    json.dumps(doc)  # must be serializable as-is
    assert doc["basis"] and doc["bound"] == [1]
    by_name = {g["name"]: g for g in doc["generators"]}
    assert by_name["v"]["kind"] == "vertex"
    mat = by_name["g"]["matrix"]
    assert len(mat) == rep.dim and len(mat[0]) == rep.dim
    assert all(len(cell) == 2 for row in mat for cell in row)
