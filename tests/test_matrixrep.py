"""Truncated matrix model: basis, relations, guards, cross-model agreement."""

import collections
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zsalg import matrixrep
from zsalg.alignment import minimal_exhaustive_sets
from zsalg.cli import Workspace, builtin_workspace, main
from zsalg.cocycle import (
    Cocycle,
    ConstantHomotopy,
    LinearHomotopy,
    RotationForm,
    linear_homotopy,
    trivial_cocycle,
)
from zsalg.errors import InfiniteBasisError, OffGridError
from zsalg.fixtures import (
    FIXTURE_DOCS,
    kgraph_convex_with_source,
    kgraph_k1,
    swap_pair,
    trivial_pair,
    x_monoid,
)
from zsalg.kgraph import deg_add, deg_join, deg_le, deg_splits, deg_sub
from zsalg.matrixrep import (
    BATCH,
    PASS_TOL,
    TruncatedRep,
    _relation_pass,
    _Table,
    _view,
    build_grid_reps,
    check_homotopy_relations,
    check_product_agreement,
    check_relations,
    dense,
    join_projection,
    operator_norm,
    represent_element,
)
from zsalg.normalform import AlgebraModel, random_element
from zsalg.selfsim import ZSCategory


def rot_family(theta=Fraction(1, 4), m=11):
    return LinearHomotopy(RotationForm([[0, 0], [theta, 0]]), m=m)


def test_basis_sizes():
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    assert TruncatedRep(zsk, rot_family(), (2, 2), 0).dim == 9
    zs2 = ZSCategory(swap_pair())
    triv = ConstantHomotopy(trivial_cocycle(), m=1)
    assert TruncatedRep(zs2, triv, (2,), 0).dim == 14
    rep0 = TruncatedRep(zs2, triv, (0,), 0)
    assert rep0.dim == 2
    edge = zs2.D.paths("v", (1,))[0]
    assert operator_norm(rep0.path_matrix(edge)) == 0.0


def test_rejects_infinite_basis_and_off_grid():
    with pytest.raises(InfiniteBasisError):
        TruncatedRep(x_monoid(), ConstantHomotopy(trivial_cocycle(), m=1), 2, 0)
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    with pytest.raises(OffGridError):
        TruncatedRep(zsk, rot_family(), (2, 2), 11)


@pytest.mark.parametrize("grid_index", [11, -1, True], ids=["past-grid", "negative", "bool"])
def test_grid_index_is_checked_before_the_window_is_built(grid_index):
    """An off-grid index interns nothing into the product, and True is not
    the grid index 1; AlgebraModel.fiber_model applies the same rule."""
    zs = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    with pytest.raises(OffGridError):
        TruncatedRep(zs, rot_family(), (2, 2), grid_index)
    assert len(zs.morphs) == 0
    model = AlgebraModel(zs, rot_family(), (2, 2))
    with pytest.raises(OffGridError):
        model.fiber_model(grid_index)


def test_relations_k1_trivial_and_rotation():
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    for fam in (ConstantHomotopy(trivial_cocycle(), m=1), rot_family()):
        rep = TruncatedRep(zsk, fam, (2, 2), fam.m - 1)
        out = check_relations(rep)
        assert out
        assert max(out.details["residuals"].values()) <= PASS_TOL


def test_nan_residual_fails():
    """A NaN angle gives NaN residuals, which fail the check instead of
    vanishing from the maximum."""
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    nan_rotation = ConstantHomotopy(Cocycle(RotationForm([[0, 0], [math.nan, 0]])), m=1)
    out = check_relations(TruncatedRep(zsk, nan_rotation, (1, 1), 0))
    assert not out.passed
    assert math.isnan(out.details["residuals"]["partial_isometry"])
    assert math.isnan(out.witness["R1_multiplication"])


def test_relations_swap_trivial():
    zs2 = ZSCategory(swap_pair())
    rep = TruncatedRep(zs2, ConstantHomotopy(trivial_cocycle(), m=1), (2,), 0)
    out = check_relations(rep)
    assert out and max(out.details["residuals"].values()) <= PASS_TOL


def test_rotation_relation_value():
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    rep = TruncatedRep(zsk, rot_family(), (2, 2), 10)  # t = 1
    D = rep.D
    e = D.paths("v", (1, 0))[0]
    f = D.paths("v", (0, 1))[0]
    fe = D.compose(f, e)
    lhs = dense(rep.path_matrix(f)) @ dense(rep.path_matrix(e))
    assert operator_norm(lhs - 1j * dense(rep.path_matrix(fe))) <= PASS_TOL


def test_ck_guard_annihilation():
    # the vertex relation at level (1,0) kills exactly the floor subspace
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    rep = TruncatedRep(zsk, rot_family(), (2, 2), 0)
    D = rep.D
    e = D.paths("v", (1, 0))[0]
    pe = dense(rep.path_matrix(e))
    defect = dense(rep.vertex_matrix("v")) - pe @ pe.conj().T
    guard = rep.degree_floor_guard((1, 0))
    assert operator_norm(defect[:, guard]) <= PASS_TOL
    # and off the guard it genuinely fails to vanish (Toeplitz behavior)
    assert operator_norm(defect) > 0.5


def test_r2_guard_boundary():
    zs2 = ZSCategory(swap_pair())
    rep = TruncatedRep(zs2, ConstantHomotopy(trivial_cocycle(), m=1), (2,), 0)
    a = rep.D.paths("v", (1,))[0]
    mat = dense(rep.path_matrix(a))
    defect = mat.conj().T @ mat - dense(rep.vertex_matrix("v"))
    assert operator_norm(defect[:, rep.degree_cap_guard((1,))]) <= PASS_TOL
    assert operator_norm(defect) > 0.5  # full space sees the truncation


def test_tail_partial_unitaries():
    zs2 = ZSCategory(swap_pair())
    rep = TruncatedRep(zs2, ConstantHomotopy(trivial_cocycle(), m=1), (2,), 0)
    g = dense(rep.tail_matrix("g"))
    v = dense(rep.vertex_matrix("v"))
    assert operator_norm(g @ g.conj().T - v) <= PASS_TOL
    assert operator_norm(g.conj().T @ g - v) <= PASS_TOL


def test_join_projection_inclusion_exclusion():
    p = np.array([1.0, 1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 1.0, 0.0])
    j = join_projection([p, q])
    assert operator_norm(np.diag(j - np.array([1.0, 1.0, 1.0, 0.0]))) <= PASS_TOL
    assert join_projection([]) == 0


def test_homotopy_relations_all_fibers():
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    out = check_homotopy_relations(zsk, rot_family(), (2, 2))
    assert out
    assert out.details["fibers"] == 11
    assert out.details["max_fiber_residual"] <= PASS_TOL


def test_fiber_zero_matches_untwisted():
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    rep0 = TruncatedRep(zsk, rot_family(), (2, 2), 0)
    untw = TruncatedRep(zsk, ConstantHomotopy(trivial_cocycle(), m=1), (2, 2), 0)
    for c in rep0.basis:
        assert operator_norm(dense(rep0.matrix(c)) - dense(untw.matrix(c))) == 0.0


def test_represent_vertex_projection():
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    fam = rot_family()
    rep = TruncatedRep(zsk, fam, (2, 2), 3)
    model = AlgebraModel(zsk, fam, (6, 6))
    mat = represent_element(rep, model.vertex("v"))
    assert operator_norm(mat - dense(rep.vertex_matrix("v"))) <= PASS_TOL


def test_represent_flip_permutation():
    # the flip generator permutes basis vectors and twists nothing
    zs2 = ZSCategory(swap_pair())
    fam = ConstantHomotopy(trivial_cocycle(), m=1)
    rep = TruncatedRep(zs2, fam, (2,), 0)
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
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
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
    zs2 = ZSCategory(swap_pair())
    fam = ConstantHomotopy(trivial_cocycle(), m=1)
    rep = TruncatedRep(zs2, fam, (2,), 0)
    model = AlgebraModel(zs2, fam, (6,))
    rng = random.Random(23)
    for _ in range(25):
        x = random_element(model, rng)
        lhs = represent_element(rep, x.star())
        rhs = represent_element(rep, x).conj().T
        assert operator_norm(lhs - rhs) <= PASS_TOL


def test_matrices_export_json():
    import json

    zs2 = ZSCategory(swap_pair())
    rep = TruncatedRep(zs2, ConstantHomotopy(trivial_cocycle(), m=1), (1,), 0)
    doc = rep.to_json()
    json.dumps(doc)  # must be serializable as-is
    assert doc["basis"] and doc["bound"] == [1]
    by_name = {g["name"]: g for g in doc["generators"]}
    assert by_name["v"]["kind"] == "vertex"
    mat = by_name["g"]["matrix"]
    assert len(mat) == rep.dim and len(mat[0]) == rep.dim
    assert all(len(cell) == 2 for row in mat for cell in row)


def random_partial_injection(rng, dim):
    """A weighted partial injection: an injective target map on a random
    support, with random moduli and phases."""
    targets = np.full(dim, -1)
    support = rng.random(dim) < 0.7
    targets[support] = rng.permutation(dim)[: support.sum()]
    weights = rng.uniform(0.1, 3.0, dim) * np.exp(2j * np.pi * rng.random(dim))
    return targets, weights


def test_schur_norm_exact_on_partial_injections_and_diagonals():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 17, 40):
        for _ in range(10):
            op = random_partial_injection(rng, dim)
            exact = np.linalg.norm(dense(op), 2)
            assert operator_norm(op) == pytest.approx(exact, rel=1e-12, abs=0)
            assert operator_norm(dense(op)) == pytest.approx(exact, rel=1e-12, abs=0)
            # entries a stack holds twice are summed before the bound
            twice = (np.vstack([op[0], op[0]]), np.vstack([op[1], op[1]]))
            assert operator_norm(twice) == pytest.approx(2 * exact, rel=1e-12, abs=0)
            diagonal = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            exact = np.linalg.norm(np.diag(diagonal), 2)
            for form in ((np.arange(dim), diagonal), np.diag(diagonal)):
                assert operator_norm(form) == pytest.approx(exact, rel=1e-12, abs=0)


def test_schur_norm_bounds_dense_and_non_injective():
    rng = np.random.default_rng(1)
    for dim in (2, 5, 17, 40):
        for _ in range(10):
            mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            assert operator_norm(mat) >= np.linalg.norm(mat, 2) * (1 - 1e-12)
            # targets drawn from half the basis: most maps hit a vector twice
            targets = rng.integers(-1, dim // 2 + 1, size=dim)
            op = (targets, np.exp(2j * np.pi * rng.random(dim)))
            assert operator_norm(op) >= np.linalg.norm(dense(op), 2) * (1 - 1e-12)


E2 = {
    "k": 1,
    "vertices": ["v"],
    "edges": [
        {"id": "a", "color": 1, "src": "v", "dst": "v"},
        {"id": "b", "color": 1, "src": "v", "dst": "v"},
    ],
    "squares": [],
}
Z2 = {
    "units": ["v"],
    "morphisms": [
        {"id": "v", "src": "v", "dst": "v", "inv": "v"},
        {"id": "g", "src": "v", "dst": "v", "inv": "g"},
    ],
    "compose": [["g", "g", "v"]],
}


NON_LEFT_CANCELLATIVE = {
    "left": [{"g": "g", "edge": "a", "out": "a"}, {"g": "g", "edge": "b", "out": "a"}],
    "right": [{"g": "g", "edge": "a", "out": "g"}, {"g": "g", "edge": "b", "out": "g"}],
}
BROKEN_FLIP = {
    "left": [{"g": "g", "edge": "a", "out": "b"}, {"g": "g", "edge": "b", "out": "a"}],
    "right": [{"g": "g", "edge": "a", "out": "v"}, {"g": "g", "edge": "b", "out": "g"}],
}


def e2_action_workspace(action):
    return {"kgraph": E2, "groupoid": Z2, "action": action, "bounds": {"degree": [2]}}


def rep_check_failures(tmp_path, action):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(e2_action_workspace(action)))
    out = tmp_path / "report.json"
    code = main(["rep-check", "--workspace", str(path), "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    return code, [(c["fiber"], c["passed"], set(c.get("witness") or ())) for c in checks]


def test_rep_check_catches_non_left_cancellative_action(tmp_path):
    """g sends both edges to a, so T_g hits a basis vector twice and
    T_g* T_g is not diagonal; the source and tail relations still fail."""
    code, fibers = rep_check_failures(tmp_path, NON_LEFT_CANCELLATIVE)
    assert code == 1
    assert fibers == [
        (
            0,
            False,
            {"R1_multiplication", "R2_source_guarded", "partial_isometry", "tail_partial_unitary"},
        )
    ]


def test_rep_check_broken_flip_fails_multiplication_only(tmp_path):
    code, fibers = rep_check_failures(tmp_path, BROKEN_FLIP)
    assert code == 1
    assert fibers == [(0, False, {"R1_multiplication"})]


def dense_residuals(rep):
    """The relation residuals as the dense model took them: the largest
    singular value of each dense defect matrix."""

    def norm(m):
        return np.linalg.norm(m, 2) if m.size else 0.0

    def mat(c):
        return dense(rep.matrix(c))

    def rng(m):
        return m @ m.conj().T

    def path_rng(p):
        return rng(dense(rep.path_matrix(p)))

    def on(guard):
        return np.diag(guard.astype(float))

    zs, eye = rep.zs, np.eye(rep.dim)
    verts = list(rep.D.vertices)
    vert = {v: dense(rep.vertex_matrix(v)) for v in verts}
    out = {
        "partial_isometry": max(
            norm(rng(dense(op)) @ dense(op) - dense(op)) for _, _, op in rep.generators()
        ),
        "vertex_orthogonality": max(
            (norm(vert[v] @ vert[w]) for v in verts for w in verts if v < w), default=0.0
        ),
        "vertex_sum_identity": norm(sum(vert.values()) - eye),
    }
    r1, phase = [], rep.family.cocycle_at(rep.grid_index).phase
    for c1 in rep.basis:
        for c2 in rep.basis:
            defect = mat(c1) @ mat(c2)
            if zs.s(c1) == zs.r(c2):
                defect -= phase(c1, c2).value() * mat(zs.compose(c1, c2))
            r1.append(norm(defect))
    out["R1_multiplication"] = max(r1)
    out["R2_source_guarded"] = max(
        norm(
            (mat(c).conj().T @ mat(c) - vert[zs.s(c)])
            @ on(rep.degree_cap_guard(deg_sub(rep.bound, c.path.degree)))
        )
        for c in rep.basis
    )
    sums, joins = [0.0], [0.0]
    paths = sorted({x.path for x in rep.basis}, key=rep.D.sort_key)
    for mu in paths:
        for nu in paths:
            lhs = path_rng(mu) @ path_rng(nu)
            mces = rep.D.mce(mu, nu) if mu.rng == nu.rng else ()
            ranges = [path_rng(lam) for lam in mces]
            complement = eye
            for p in ranges:
                complement = complement @ (eye - p)
            sums.append(norm(lhs - sum(ranges, 0 * eye)))
            joins.append(norm(lhs - (eye - complement)))
    out["TCK3_mce_sum"], out["R3_independent_join"] = max(sums), max(joins)
    tails = [0.0]
    for g in rep.G.morphisms(None):
        t = dense(rep.tail_matrix(g))
        tails += [norm(rng(t) - vert[rep.G.r(g)]), norm(t.conj().T @ t - vert[rep.G.s(g)])]
    out["tail_partial_unitary"] = max(tails)
    out["CK_level_guarded"] = max(
        norm(
            (vert[v] - sum(map(path_rng, rep.D.paths(v, n)), 0 * eye))
            @ on(rep.degree_floor_guard(n))
        )
        for v in verts
        for n, _ in deg_splits(rep.bound)
    )
    return out


@pytest.mark.parametrize("case", ["k1-rotation", "swap", "non-left-cancellative", "broken-flip"])
def test_schur_residuals_bound_dense_residuals(case):
    """Each family's residual is at least the dense model's operator norm,
    equal to it up to rounding where it passes, and passes exactly where
    the dense one does."""
    if case == "k1-rotation":
        rep = TruncatedRep(ZSCategory(trivial_pair(kgraph_k1((3, 3)))), rot_family(), (2, 2), 7)
    elif case == "swap":
        triv = ConstantHomotopy(trivial_cocycle(), m=1)
        rep = TruncatedRep(ZSCategory(swap_pair()), triv, (2,), 0)
    else:
        action = NON_LEFT_CANCELLATIVE if case == "non-left-cancellative" else BROKEN_FLIP
        ws = Workspace(e2_action_workspace(action))
        rep = TruncatedRep(ws.zs, ws.family(), ws.bound, 0)
    ours = check_relations(rep).details["residuals"]
    for family, reference in dense_residuals(rep).items():
        assert ours[family] >= reference * (1 - 1e-12) - 1e-15, family
        assert (ours[family] <= PASS_TOL) == (reference <= PASS_TOL), family
        if reference <= PASS_TOL:
            assert ours[family] == pytest.approx(reference, abs=1e-14), family


def test_operator_outside_the_window_is_zero_without_composing():
    """d(c x) >= d(c), so T_c = 0 once d(c) leaves the window: matrix(c) is
    the zero map, built without composing c with the basis."""
    zs = ZSCategory(swap_pair())
    rep = TruncatedRep(zs, ConstantHomotopy(trivial_cocycle(), m=1), (2,), 0)
    c = zs.from_path(zs.D.paths("v", (3,))[0])
    interned = len(zs.morphs)
    targets, weights = rep.matrix(c)
    assert (targets == -1).all() and not weights.any()
    assert len(zs.morphs) == interned


class CountingRotation(RotationForm):
    """A rotation form that counts its exponent evaluations per pair."""

    def __init__(self, theta):
        super().__init__(theta)
        self.calls = {}

    def exponent(self, c1, c2):
        self.calls[c1, c2] = self.calls.get((c1, c2), 0) + 1
        return super().exponent(c1, c2)


def test_fibers_share_one_exponent_per_pair():
    """The M fibers of one family read its exponent memo: each distinct
    pair's exponent is computed once, not once per fiber."""
    form = CountingRotation([[0, 0], [Fraction(1, 4), 0]])
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    assert check_homotopy_relations(zsk, LinearHomotopy(form, m=11), (1, 1))
    assert form.calls and set(form.calls.values()) == {1}


def test_generator_sweep_and_relations_share_one_exponent_per_pair():
    """On one k1 workspace, the additive-generator sweep of linear_homotopy
    and the homotopy relations read one id table: each id pair reaches the
    form once in total, and the table fill reads the pairs the sweep
    already asked."""
    ws = builtin_workspace("k1")
    form = CountingRotation([[0, 0], [Fraction(1, 4), 0]])
    hom = linear_homotopy(form, ws.zs, ws.bound, m=11)
    swept = dict(form.calls)
    assert check_homotopy_relations(ws.zs, hom, ws.bound)
    assert swept and set(form.calls.values()) == {1}
    assert len(form.calls) == sum(map(len, hom.exponents(ws.zs).values()))
    window = ws.zs.window(ws.bound).members
    composable = {(c, x) for c in window for x in window if ws.zs.s(c) == ws.zs.r(x)}
    assert composable & set(swept)


def test_operators_compose_only_inside_the_window():
    """A pair whose composite leaves the window is skipped without being
    composed, so checking the relations interns nothing but the basis."""
    zs = ZSCategory(swap_pair())
    rep = TruncatedRep(zs, ConstantHomotopy(trivial_cocycle(), m=1), (3,), 0)
    assert check_relations(rep)
    assert len(zs.morphs) == rep.dim == 30


PERTURBED_TABLE = {"table": [{"c1": ["a"], "c2": ["b"], "phase": "1/10"}]}


def perturbed_e2_homotopy():
    """The e2 table with phase 1/10 on (a, b) as a homotopy generator: not
    a cocycle, so on a window holding aba the multiplication relation fails
    in every fiber but 0."""
    generator = {"generator": PERTURBED_TABLE, "grid": 11}
    ws = Workspace({"kgraph": E2, "homotopy": generator}, bound=(3,))
    return ws.zs, ws.family(), ws.bound


@pytest.mark.parametrize("case", ["k1-rotation", "float-k1", "perturbed-e2"])
def test_grid_fibers_match_standalone_reps(case):
    """Each fiber of a shared table gets the residuals, float for float, of
    a one-fiber rep of its own."""
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    if case == "k1-rotation":
        zs, family, bound = zsk, rot_family(), (2, 2)
    elif case == "float-k1":
        zs, family, bound = zsk, LinearHomotopy(RotationForm([[0, 0], [0.25, 0]]), m=11), (2, 2)
    else:
        zs, family, bound = perturbed_e2_homotopy()
    reports = [check_relations(rep) for rep in build_grid_reps(zs, family, bound)]
    assert len(reports) == 11
    for j, shared in enumerate(reports):
        alone = check_relations(TruncatedRep(zs, family, bound, j))
        assert shared.details["residuals"] == alone.details["residuals"]
        assert shared.passed == alone.passed
    if case == "perturbed-e2":
        assert [r.passed for r in reports] == [True] + [False] * 10
        assert all(set(r.witness) == {"R1_multiplication"} for r in reports[1:])


def test_operator_norm_of_a_batch_is_each_stacks_norm():
    """Leading batch axes give the norm of each stack, bit for bit,
    including stacks that hold a target twice and one with a NaN weight."""
    rng = np.random.default_rng(2)
    dim = 7
    targets = rng.integers(-1, dim, size=(2, 4, 3, dim))
    weights = rng.normal(size=targets.shape) + 1j * rng.normal(size=targets.shape)
    targets[1, 2, 0, 3] = 0
    weights[1, 2, 0, 3] = np.nan
    norms = operator_norm((targets, weights))
    assert norms.shape == (2, 4) and np.isnan(norms).sum() == 1 and np.isnan(norms[1, 2])
    expected = [[operator_norm((t, w)) for t, w in zip(*pair)] for pair in zip(targets, weights)]
    np.testing.assert_array_equal(norms, expected)
    # targets shared by the whole batch broadcast against its weights
    shared = operator_norm((targets[0, 0], weights[0]))
    np.testing.assert_array_equal(shared, [operator_norm((targets[0, 0], w)) for w in weights[0]])


def test_fibers_share_each_minimal_common_extension(monkeypatch):
    """The range relation reads the k-graph's kept meet: each unordered
    window path pair's MCE is computed once for both orders and all 11
    fibers."""
    zsk = ZSCategory(trivial_pair(kgraph_k1((3, 3))))
    graph_type = type(zsk.D)
    mce = graph_type.mce
    calls = []

    def counting_mce(self, mu, nu):
        calls.append((mu, nu))
        return mce(self, mu, nu)

    monkeypatch.setattr(graph_type, "mce", counting_mce)
    assert check_homotopy_relations(zsk, rot_family(), (2, 2))
    assert len(calls) == len({frozenset(pair) for pair in calls}) == 45


# ---------------------------------------------------------------------------
# the pair-by-pair pass, kept as the reference for the batched one: each
# operator built by composing it with the basis, and each relation family
# normed one operator, one c1 or one mu at a time


def reference_target_sums(targets, values, batch):
    dim = values.shape[-1]
    count = math.prod(batch)
    offsets = (dim + 1) * np.arange(count).reshape(batch + (1,) * (values.ndim - len(batch)))
    sums = np.bincount((targets + 1 + offsets).ravel(), values.ravel(), minlength=count * (dim + 1))
    return sums.reshape(batch + (dim + 1,))[..., 1:]


def reference_norm(op):
    weights = np.atleast_2d(op[1])
    targets = np.broadcast_to(op[0], weights.shape)
    batch = weights.shape[:-2]
    weights = np.where(targets >= 0, weights, 0)
    for i in range(1, weights.shape[-2]):
        for j in range(i):
            same = targets[..., i, :] == targets[..., j, :]
            weights[..., j, :] += np.where(same, weights[..., i, :], 0)
            weights[..., i, :] = np.where(same, 0, weights[..., i, :])
    size = np.ascontiguousarray(np.abs(weights))
    rows = reference_target_sums(targets, size, batch)
    norm = np.sqrt(rows.max(-1, initial=0.0) * size.sum(-2).max(-1, initial=0.0))
    return norm if batch else float(norm)


def reference_compose(a, b):
    (ta, wa), (tb, wb) = a, b
    if ta.ndim > tb.ndim:
        wb = wb[:, None]
    return np.where(tb >= 0, ta[..., tb], -1), wa[..., tb] * wb


def reference_adjoint(op):
    targets, weights = op
    xs = np.flatnonzero(targets >= 0)
    xs = xs[np.argsort(targets[xs], kind="stable")]
    ys = targets[xs]
    rank = np.arange(len(xs)) - np.searchsorted(ys, ys)
    out = np.full((rank.max(initial=-1) + 1, len(targets)), -1)
    out[rank, ys] = xs
    return out, weights.conj()[..., out]


def reference_range(op):
    return reference_target_sums(op[0], np.abs(op[1]) ** 2, op[1].shape[:1])


def reference_minus(a, *bs):
    ops = [a, *((t, -w) for t, w in bs)]
    rows = [(t, w) if t.ndim == 2 else (t[None], w[:, None]) for t, w in ops]
    return np.concatenate([t for t, _ in rows]), np.concatenate([w for _, w in rows], axis=1)


def reference_pairs(a, b):
    return np.stack([a[0], b[0]], axis=-2), np.stack([a[1], -b[1]], axis=-2)


def reference_on(op, guard):
    return np.where(guard, op[0], -1), op[1]


def reference_join(projections):
    return 1 - np.prod([1 - p for p in projections], axis=0)


def reference_worst(norms, fibers):
    columns = [np.zeros((fibers, 1)), *(norm.reshape(fibers, -1) for norm in norms)]
    return np.concatenate(columns, axis=1).max(1)


class ReferenceRep:
    """Every fiber of a family on a window, with each operator built by
    composing it with the basis, pair by pair."""

    def __init__(self, zs, family, bound):
        self.zs, self.family, self.bound = zs, family, tuple(bound)
        self.grid = tuple(range(family.m))
        self.basis = zs.morphisms(self.bound)
        self.index = {x: i for i, x in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.D, self.G = zs.D, zs.C
        self.operators, self._phases = {}, {}

    def phases(self, c1, c2):
        q = self.family.exponent(c1, c2)
        if q not in self._phases:
            phases = self.family.phases(q)
            self._phases[q] = np.array([phases[j].value() for j in self.grid])
        return self._phases[q]

    def matrix(self, c):
        if c in self.operators:
            return self.operators[c]
        zs, degree = self.zs, c.path.degree
        targets = np.full(self.dim, -1)
        weights = np.zeros((len(self.grid), self.dim), dtype=complex)
        for i, x in enumerate(self.basis if deg_le(degree, self.bound) else ()):
            if zs.s(c) != zs.r(x):
                continue
            moved, _ = zs.pair.extend(c.tail, x.path)
            fits = deg_le(deg_add(degree, moved.degree), self.bound)
            if fits and (out := self.index.get(zs.compose(c, x))) is not None:
                targets[i] = out
                weights[:, i] = self.phases(c, x)
        self.operators[c] = targets, weights
        return targets, weights

    def path_matrix(self, p):
        return self.matrix(self.zs.from_path(p))

    def tail_matrix(self, g):
        return self.matrix(self.zs.from_tail(g))

    def vertex_matrix(self, v):
        return self.matrix(self.zs.identity(v))

    def generators(self):
        out = [("vertex", v, self.vertex_matrix(v)) for v in self.D.vertices]
        for name in sorted(self.D.edge):
            out.append(("edge", name, self.path_matrix(self.D.nf((name,)))))
        for g in self.G.morphisms(None):
            if not self.G.is_identity(g):
                out.append(("tail", g, self.tail_matrix(g)))
        return out

    def degree_cap_guard(self, cap):
        return np.array([deg_le(x.path.degree, cap) for x in self.basis], dtype=bool)

    def degree_floor_guard(self, floor):
        return np.array([deg_le(floor, x.path.degree) for x in self.basis], dtype=bool)


def reference_pass(rep: ReferenceRep, exhaustive_sets=None):
    fibers, dim = len(rep.grid), rep.dim
    ident, verts, norms = np.arange(dim), list(rep.D.vertices), collections.defaultdict(list)

    def add(family, op):
        norms[family].append(reference_norm(op))

    for _kind, _name, op in rep.generators():
        kept = reference_compose((ident, reference_range(op)), op)
        add("partial_isometry", reference_minus(kept, op))
    norms["vertex_orthogonality"] = []
    for v, w in itertools.combinations(verts, 2):
        add(
            "vertex_orthogonality",
            reference_minus(reference_compose(rep.vertex_matrix(v), rep.vertex_matrix(w))),
        )
    ones = (ident, np.ones((fibers, dim)))
    add("vertex_sum_identity", reference_minus(ones, *map(rep.vertex_matrix, verts)))

    ops = [rep.matrix(c) for c in rep.basis]
    targets, weights = np.stack([t for t, _ in ops]), np.stack([w for _, w in ops], axis=1)
    units = np.array([rep.index[rep.zs.identity(rep.zs.s(c))] for c in rep.basis])
    block = max(1, BATCH // (fibers * dim))
    for c1, t1, w1 in zip(rep.basis, targets, weights.swapaxes(0, 1)):
        for lo in range(0, dim, block):
            part = slice(lo, lo + block)
            prod = reference_compose((t1, w1), (targets[part], weights[:, part]))
            c12 = prod[0][np.arange(len(units[part])), units[part]]
            sigma = np.zeros((fibers, len(c12)), dtype=complex)
            for b in np.flatnonzero(c12 >= 0):
                sigma[:, b] = rep.phases(c1, rep.basis[lo + b])
            padded = np.where(c12[:, None] >= 0, targets[c12], -1)
            add(
                "R1_multiplication",
                reference_pairs(prod, (padded, sigma[..., None] * weights[:, c12])),
            )

    for c, t, w in zip(rep.basis, targets, weights.swapaxes(0, 1)):
        guard = rep.degree_cap_guard(deg_sub(rep.bound, c.path.degree))
        defect = reference_minus(
            reference_compose(reference_adjoint((t, w)), (t, w)), rep.vertex_matrix(rep.zs.s(c))
        )
        add("R2_source_guarded", reference_on(defect, guard))

    path_range = functools.cache(lambda p: reference_range(rep.path_matrix(p)))
    paths = sorted({x.path for x in rep.basis}, key=rep.D.sort_key)
    for mu in paths:
        sums, joins = [], []
        for nu in paths:
            lhs = path_range(mu) * path_range(nu)
            mces = rep.D.mce(mu, nu) if mu.rng == nu.rng else ()
            projections = [path_range(lam) for lam in mces]
            sums.append(lhs - sum(projections))
            joins.append(lhs - reference_join(projections))
        add("TCK3_mce_sum", (ident, np.stack(sums, axis=1)[:, :, None]))
        add("R3_independent_join", (ident, np.stack(joins, axis=1)[:, :, None]))

    for g in rep.G.morphisms(None):
        t = rep.tail_matrix(g)
        add(
            "tail_partial_unitary",
            reference_minus((ident, reference_range(t)), rep.vertex_matrix(rep.G.r(g))),
        )
        add(
            "tail_partial_unitary",
            reference_minus(
                reference_compose(reference_adjoint(t), t), rep.vertex_matrix(rep.G.s(g))
            ),
        )

    for v in verts:
        for n, _ in deg_splits(rep.bound):
            level = sum(map(path_range, rep.D.paths(v, n)), np.zeros((fibers, dim)))
            defect = reference_minus(rep.vertex_matrix(v), (ident, level))
            add("CK_level_guarded", reference_on(defect, rep.degree_floor_guard(n)))

    for v, members in exhaustive_sets or ():
        projections = [reference_range(rep.matrix(c)) for c in members]
        floor = functools.reduce(deg_join, (c.path.degree for c in members))
        defect = reference_minus(rep.vertex_matrix(v), (ident, reference_join(projections)))
        add("R4_exhaustive_join_guarded", reference_on(defect, rep.degree_floor_guard(floor)))
    return {name: reference_worst(family, fibers) for name, family in norms.items()}


def _builtin(name, bound=None):
    ws = builtin_workspace(name, bound=bound)
    return ws.zs, ws.family(), ws.bound, None


def _k1_exhaustive():
    zs, family, bound, _ = _builtin("k1")
    sets = [
        (v, list(F))
        for v in zs.objects()
        for F in minimal_exhaustive_sets(v, zs, (1, 1), max_size=4, window_cap=60)[:4]
    ]
    return zs, family, bound, sets


def _action_case(action):
    ws = Workspace(e2_action_workspace(action))
    return ws.zs, ws.family(), ws.bound, None


def _two_vertices():
    zs = ZSCategory(trivial_pair(kgraph_convex_with_source((2, 2))))
    return zs, rot_family(m=3), (2, 2), None


REFERENCE_CASES = {
    "k1-trivial": lambda: (
        ZSCategory(trivial_pair(kgraph_k1((3, 3)))),
        ConstantHomotopy(trivial_cocycle(), m=1),
        (2, 2),
        None,
    ),
    "k1-rotation": lambda: _builtin("k1"),
    "k1-float": lambda: (
        ZSCategory(trivial_pair(kgraph_k1((3, 3)))),
        LinearHomotopy(RotationForm([[0, 0], [0.25, 0]]), m=11),
        (2, 2),
        None,
    ),
    "k1-nan": lambda: (
        ZSCategory(trivial_pair(kgraph_k1((3, 3)))),
        ConstantHomotopy(Cocycle(RotationForm([[0, 0], [math.nan, 0]])), m=1),
        (1, 1),
        None,
    ),
    "k1-exhaustive": _k1_exhaustive,
    "swap-3": lambda: _builtin("swap", (3,)),
    "swap2-1-1": lambda: _builtin("swap2", (1, 1)),
    "broken-flip": lambda: _action_case(BROKEN_FLIP),
    "non-left-cancellative": lambda: _action_case(NON_LEFT_CANCELLATIVE),
    "perturbed-e2": lambda: (*perturbed_e2_homotopy(), None),
    "two-vertices": _two_vertices,
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_batched_pass_equals_pair_by_pair_reference(case):
    """Each operator and each pair gets, in the batched pass, the float
    operations it gets alone: every family's per-fiber worst residual is
    the reference's, == on floats, a NaN where the reference has one."""
    zs, family, bound, sets = REFERENCE_CASES[case]()
    reference = reference_pass(ReferenceRep(zs, family, bound), sets)
    table = _Table(zs, family, bound, range(family.m))
    batched = _relation_pass(_view(table, slice(None)), sets)
    assert list(batched) == list(reference)
    for name, worst in reference.items():
        np.testing.assert_array_equal(batched[name], worst, err_msg=name)
    if case == "k1-nan":
        assert np.isnan(batched["R1_multiplication"]).all()
    if case == "non-left-cancellative":
        assert batched["R2_source_guarded"][0] > 0.5


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_operators_are_rows_of_the_tables(case):
    """matrix(c) reads T_c from the composition table: the targets and the
    weights of the pair-by-pair build, bit for bit, for every basis
    morphism and for the edges and tails."""
    zs, family, bound, _ = REFERENCE_CASES[case]()
    reference = ReferenceRep(zs, family, bound)
    batched = _view(_Table(zs, family, bound, range(family.m)), slice(None))
    for c in reference.basis:
        for got, want in zip(batched.matrix(c), reference.matrix(c)):
            np.testing.assert_array_equal(got, want)
    for (_, name, got), (_, _, want) in zip(batched.generators(), reference.generators()):
        np.testing.assert_array_equal(got[0], want[0], err_msg=str(name))
        np.testing.assert_array_equal(got[1], want[1], err_msg=str(name))


def k1_table_workspace(phase):
    """k1 without its homotopy section, with the cocycle table that puts
    one phase on (e, f): not a cocycle, and for a tiny phase a gap far
    below PASS_TOL."""
    doc = {key: value for key, value in FIXTURE_DOCS["k1"].items() if key != "homotopy"}
    doc["cocycle"] = {"table": [{"c1": ["e"], "c2": ["f"], "phase": phase}]}
    return doc


@pytest.mark.parametrize("power", [13, 30])
def test_tiny_phase_fails_r1_exactly(tmp_path, power):
    """A phase 1/10^13 or 1/10^30 on (e, f) leaves an R1 residual below
    PASS_TOL, but the residues differ: rep-check fails with the mismatch
    (fiber, c1, c2, x) at cocycle-check's witness triple, and keeps its
    float residuals."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(k1_table_workspace(f"1/{10 ** power}")))
    reports = {}
    for command in ("cocycle-check", "rep-check"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--workspace", str(path), "--out", str(out)]) == 1
        reports[command] = json.loads(out.read_text())["checks"][0]
    triple = reports["cocycle-check"]["witness"]
    assert triple == ["identity", "(f|'v')", "(e|'v')", "(f|'v')"]
    check = reports["rep-check"]
    residual = check["details"]["residuals"]["R1_multiplication"]
    assert 0 < residual <= PASS_TOL
    assert check["witness"] == {"R1_multiplication": residual}
    assert check["details"]["mismatch"] == {"R1_multiplication": [0, *triple[1:]]}


def test_tiny_vertex_phase_fails_vertex_sum_exactly(tmp_path):
    """sigma = 1/10^13 on every window pair that holds an identity is not
    normalized but passes R1 exactly, since sigma(id_v, .) is constant;
    the vertex projections carry the phase, and vertex_sum_identity fails
    by the exact rule at (id_v, id_v), where its float residual passes."""
    unit, phase = {"vertex": "v"}, "1/10000000000000"
    window = [unit] + [["e"] * i + ["f"] * j for i in range(3) for j in range(3)][1:]
    table = [{"c1": unit, "c2": y, "phase": phase} for y in window]
    table += [{"c1": y, "c2": unit, "phase": phase} for y in window[1:]]
    doc = k1_table_workspace(phase)
    doc["cocycle"] = {"table": table}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["rep-check", "--workspace", str(path), "--out", str(out)]) == 1
    check = json.loads(out.read_text())["checks"][0]
    residuals = check["details"]["residuals"]
    assert max(residuals.values()) <= PASS_TOL
    assert check["witness"] == {"vertex_sum_identity": residuals["vertex_sum_identity"]}
    assert check["details"]["mismatch"] == {"vertex_sum_identity": [0, "(<v>|'v')", "(<v>|'v')"]}


def first_phase_mismatches(zs, family, bound):
    """The definition, triple by triple in window order: per fiber, the
    first (c1, c2, x) whose two R1 sides send basis_x to the same window
    vector with phases that differ, as residues and as floats.  Returns
    the per-fiber first residue mismatch and the set of (fiber, triple)
    where the residue and float tests disagree."""
    basis = zs.morphisms(bound)
    index = {x: i for i, x in enumerate(basis)}

    def image(c, x):
        """c x in the window, by the degree-fit rule, or None."""
        if zs.s(c) != zs.r(x):
            return None
        moved, _ = zs.pair.extend(c.tail, x.path)
        if not deg_le(deg_add(c.path.degree, moved.degree), bound):
            return None
        cx = zs.compose(c, x)
        return cx if cx in index else None

    first, disagree = [None] * family.m, set()
    for c1 in basis:
        for c2 in basis:
            c12 = image(c1, c2)
            if c12 is None:
                continue
            for x in basis:
                y = image(c2, x)
                z = image(c1, y) if y is not None else None
                if z is None or image(c12, x) != z:
                    continue
                q = family.exponent
                delta = q(c1, y) + q(c2, x) - q(c1, c2) - q(c12, x)
                for j in range(family.m):
                    def value(a, b):
                        return family.phases(q(a, b))[j].value()

                    left, right = value(c1, y) * value(c2, x), value(c1, c2) * value(c12, x)
                    exact = not family.phases(delta)[j].is_one()
                    if exact != (abs(left - right) > PASS_TOL):
                        disagree.add((j, c1, c2, x))
                    if exact and first[j] is None:
                        first[j] = (c1, c2, x)
    return first, disagree


#: the rational families of the pinned reports: each command's family on
#: each workspace, the homotopy-check ones from the generator
RATIONAL_FAMILIES = {
    "k1": lambda: _builtin("k1")[:3],
    "swap": lambda: _builtin("swap")[:3],
    "swap2-1-1": lambda: _builtin("swap2", (1, 1))[:3],
    "e2": lambda: _builtin("e2")[:3],
    "broken-flip": lambda: _action_case(BROKEN_FLIP)[:3],
    "perturbed-e2-cocycle": lambda: (lambda ws: (ws.zs, ws.family(), ws.bound))(
        Workspace({"kgraph": E2, "cocycle": PERTURBED_TABLE, "bounds": {"degree": [3]}})
    ),
    "perturbed-e2-homotopy": perturbed_e2_homotopy,
    "tiny-k1": lambda: (lambda ws: (ws.zs, ws.family(), ws.bound))(
        Workspace(k1_table_workspace("1/10000000000000"))
    ),
}


@pytest.mark.parametrize("case", sorted(RATIONAL_FAMILIES))
def test_residue_test_agrees_with_float_test(case):
    """On the rational families of the pinned sets, the residue test and
    the float test agree on every surviving triple and fiber (the tiny
    phase aside, where only the residues see the gap), and the table's
    mismatches are the definition's first residue mismatch per fiber."""
    zs, family, bound = RATIONAL_FAMILIES[case]()
    assert family.cond is not None
    first, disagree = first_phase_mismatches(zs, family, bound)
    table = _Table(zs, family, bound, range(family.m))
    assert table.mismatches == {
        "R1_multiplication": first,
        "vertex_sum_identity": [None] * family.m,
    }
    if case == "tiny-k1":
        # the gap is below PASS_TOL: only the residues see it
        assert (0, *first[0]) in disagree
    else:
        assert disagree == set()
    if case.startswith("perturbed"):
        assert first[-1] is not None


def test_diagonal_norm_is_the_stack_norm():
    """operator_norm's shortcut for a one-row stack with identity targets
    gives the general bound bit for bit, a NaN entry and a zero batch entry
    included, and the pair-by-pair reference's too."""
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(3, 5, 1, 8)) + 1j * rng.normal(size=(3, 5, 1, 8))
    weights[1, 2, 0, 4] = np.nan
    weights[2, 3] = 0
    ident = np.arange(8)
    got = operator_norm((ident, weights))
    general = operator_norm((np.broadcast_to(ident, (5, 1, 8)).copy(), weights))
    np.testing.assert_array_equal(got, general)
    np.testing.assert_array_equal(got, reference_norm((ident, weights)))
    assert np.isnan(got[1, 2]) and got[2, 3] == 0.0
    assert operator_norm((ident, weights[0, 0])) == general[0, 0]


@pytest.mark.parametrize(
    "case", ["k1-rotation", "non-left-cancellative", "perturbed-e2", "k1-exhaustive"]
)
def test_small_blocks_change_no_float(case, monkeypatch):
    """Blocks of a few stacks, and of a few pairs for the exact rule, give
    what one block gives: the reference's residuals, and the definition's
    first mismatch per fiber."""
    monkeypatch.setattr(matrixrep, "BATCH", 64)
    zs, family, bound, sets = REFERENCE_CASES[case]()
    reference = reference_pass(ReferenceRep(zs, family, bound), sets)
    table = _Table(zs, family, bound, range(family.m))
    batched = _relation_pass(_view(table, slice(None)), sets)
    assert list(batched) == list(reference)
    for name, worst in reference.items():
        np.testing.assert_array_equal(batched[name], worst, err_msg=name)
    if family.cond not in (None, 1):
        first, _ = first_phase_mismatches(zs, family, bound)
        assert table.mismatches["R1_multiplication"] == first
