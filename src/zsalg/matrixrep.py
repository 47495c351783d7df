"""Truncated matrix model of the twisted product-category algebra.

The representation space is spanned by the product-category morphisms whose
path degree fits under a bound N.  A morphism c acts by

    T_c basis_x = sigma_t(c, x) basis_{c x}   when s(c) = r(x) and the
                                              composed path degree fits,
    T_c basis_x = 0                           otherwise,

which is a compression of the universal twisted representation, not a
representation of the covariant algebra: which relations survive exactly,
and on which guard subspaces, is documented per check below (this analysis
is specific to the truncated model).

  * the multiplication relation and the minimal-common-extension form of
    the range relation hold exactly on the whole truncated space
    (truncation is multiplicative / membership-based);
  * the source-projection relation holds on the guard of vectors with path
    degree at most N - d(c);
  * the covariant vertex relation holds on vectors of path degree >= n;
  * tails act as partial unitaries exactly.

Residuals are operator norms (largest singular value, with a power-iteration
fallback); pass tolerance 1e-12, warn at 1e-9.  A residual that is not a
number (a NaN phase) is the worst residual and fails.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .cocycle import Cocycle, Homotopy
from .errors import InfiniteBasisError, OffGridError
from .kgraph import deg_join, deg_le, deg_splits, deg_sub
from .normalform import Element
from .report import Report, failing, passing
from .selfsim import ZSCategory, ZSMorphism

PASS_TOL = 1e-12
WARN_TOL = 1e-9


def operator_norm(mat) -> float:
    try:
        return float(np.linalg.norm(mat, 2))
    except np.linalg.LinAlgError:
        return _power_iteration_norm(mat)


def _power_iteration_norm(mat):
    """200 power iterations on mat* mat from a fixed random start; NaN for
    a matrix with a non-finite entry, which has no norm to find."""
    if not np.isfinite(mat).all():
        return math.nan
    rng = np.random.default_rng(0)
    v = rng.normal(size=mat.shape[1]) + 1j * rng.normal(size=mat.shape[1])
    v /= np.linalg.norm(v)
    gram = mat.conj().T @ mat
    lam = 0.0
    for _ in range(200):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        lam = nw
    return float(np.sqrt(lam))


def nan_max(worst, r):
    """max(worst, r), where a NaN on either side wins: max() keeps its first
    argument against a NaN, so a NaN residual would vanish from the maximum."""
    return r if r > worst or r != r else worst


class TruncatedRep:
    """Matrices of a fiber of the sampled cocycle family on the degree window."""

    def __init__(self, zs: ZSCategory, family: Homotopy, bound, grid_index):
        if not zs.is_groupoid_tailed():
            raise InfiniteBasisError("matrix model needs a finite groupoid tail")
        if not isinstance(grid_index, int) or not 0 <= grid_index < family.m:
            raise OffGridError(f"grid index {grid_index} outside 0..{family.m - 1}")
        self.zs = zs
        self.D = zs.D
        self.G = zs.C
        self.family = family
        self.grid_index = grid_index
        self.sigma: Cocycle = family.cocycle_at(grid_index)
        self.bound = tuple(bound)
        self.basis = zs.morphisms(self.bound)
        self.index = {x: i for i, x in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._mat_memo = {}

    # -- operators

    def matrix(self, c: ZSMorphism):
        """The truncated action of a product-category morphism."""
        cached = self._mat_memo.get(c)
        if cached is not None:
            return cached
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for i, x in enumerate(self.basis):
            if self.zs.s(c) != self.zs.r(x):
                continue
            cx = self.zs.compose(c, x)
            out = self.index.get(cx)
            if out is None:
                continue
            mat[out, i] = self.sigma.phase(c, x).complex_value()
        self._mat_memo[c] = mat
        return mat

    def path_matrix(self, p):
        return self.matrix(self.zs.from_path(p))

    def tail_matrix(self, g):
        return self.matrix(self.zs.from_tail(g))

    def vertex_matrix(self, v):
        return self.matrix(self.zs.identity(v))

    def generators(self):
        """Vertex, edge and tail generators with their names."""
        out = [("vertex", v, self.vertex_matrix(v)) for v in self.D.vertices]
        for name in sorted(self.D.edge):
            p = self.D.nf((name,))
            out.append(("edge", name, self.path_matrix(p)))
        for g in self.G.morphisms(None):
            if not self.G.is_identity(g):
                out.append(("tail", g, self.tail_matrix(g)))
        return out

    # -- guard projections

    def degree_cap_guard(self, cap):
        """Projection onto basis vectors with path degree <= cap."""
        q = np.zeros((self.dim, self.dim), dtype=complex)
        for i, x in enumerate(self.basis):
            if deg_le(x.path.degree, cap):
                q[i, i] = 1.0
        return q

    def degree_floor_guard(self, floor):
        """Projection onto basis vectors with path degree >= floor."""
        q = np.zeros((self.dim, self.dim), dtype=complex)
        for i, x in enumerate(self.basis):
            if deg_le(floor, x.path.degree):
                q[i, i] = 1.0
        return q

    # -- export

    def to_json(self):
        """Basis and generator matrices, row-major complex pairs, for audit."""
        def encode(mat):
            return [[[z.real, z.imag] for z in row] for row in mat.tolist()]

        return {
            "grid_index": self.grid_index,
            "bound": list(self.bound),
            "basis": [str(x) for x in self.basis],
            "generators": [
                {"kind": kind, "name": str(name), "matrix": encode(mat)}
                for kind, name, mat in self.generators()
            ],
        }


def build_rep(zs: ZSCategory, family: Homotopy, bound, grid_index=0) -> TruncatedRep:
    return TruncatedRep(zs, family, bound, grid_index)


def build_grid_reps(zs: ZSCategory, family: Homotopy, bound):
    return [TruncatedRep(zs, family, bound, j) for j in range(family.m)]


def join_projection(projections):
    """Smallest projection dominating a family of commuting projections,
    by inclusion-exclusion."""
    ps = list(projections)
    if not ps:
        return None
    total = np.zeros_like(ps[0])
    for r in range(1, len(ps) + 1):
        sign = (-1.0) ** (r - 1)
        for combo in itertools.combinations(ps, r):
            prod = combo[0].copy()
            for q in combo[1:]:
                prod = prod @ q
            total = total + sign * prod
    return total


def check_relations(rep: TruncatedRep, exhaustive_sets=None) -> Report:
    """All relation families on one fiber, with per-relation max residuals.

    ``exhaustive_sets`` is an optional list of (vertex, [morphisms]) pairs,
    typically enumerated by the alignment module, for the covariant join
    relation; it is not this module's job to enumerate them.
    """
    residuals = {}
    dim = rep.dim
    eye = np.eye(dim, dtype=complex)

    worst = 0.0
    for _kind, _name, mat in rep.generators():
        worst = nan_max(worst, operator_norm(mat @ mat.conj().T @ mat - mat))
    residuals["partial_isometry"] = worst

    vsum = np.zeros((dim, dim), dtype=complex)
    worst = 0.0
    verts = list(rep.D.vertices)
    for v in verts:
        vsum = vsum + rep.vertex_matrix(v)
    for v, w in itertools.combinations(verts, 2):
        worst = nan_max(worst, operator_norm(rep.vertex_matrix(v) @ rep.vertex_matrix(w)))
    residuals["vertex_orthogonality"] = worst
    residuals["vertex_sum_identity"] = operator_norm(vsum - eye)

    # multiplication relation, exactly on the whole truncated space
    worst = 0.0
    for c1 in rep.basis:
        m1 = rep.matrix(c1)
        for c2 in rep.basis:
            prod = m1 @ rep.matrix(c2)
            if rep.zs.s(c1) == rep.zs.r(c2):
                c12 = rep.zs.compose(c1, c2)
                phase = rep.sigma.phase(c1, c2).complex_value()
                worst = nan_max(worst, operator_norm(prod - phase * rep.matrix(c12)))
            else:
                worst = nan_max(worst, operator_norm(prod))
    residuals["R1_multiplication"] = worst

    # source projections on their degree guards
    worst = 0.0
    for c in rep.basis:
        mat = rep.matrix(c)
        gap = deg_sub(rep.bound, c.path.degree)
        guard = rep.degree_cap_guard(gap)
        src = rep.vertex_matrix(rep.zs.s(c))
        worst = nan_max(worst, operator_norm((mat.conj().T @ mat - src) @ guard))
    residuals["R2_source_guarded"] = worst

    # range relation: sum over minimal common extensions (exact), and the
    # same via the independent-set join (the two forms must agree)
    worst_sum = 0.0
    worst_join = 0.0
    paths = sorted({x.path for x in rep.basis}, key=rep.D.sort_key)
    for mu in paths:
        pmu = rep.path_matrix(mu)
        range_mu = pmu @ pmu.conj().T
        for nu in paths:
            pnu = rep.path_matrix(nu)
            lhs = range_mu @ pnu @ pnu.conj().T
            mces = rep.D.mce(mu, nu) if mu.rng == nu.rng else ()
            total = np.zeros((dim, dim), dtype=complex)
            projections = []
            for lam in mces:
                pl = rep.path_matrix(lam)
                proj = pl @ pl.conj().T
                projections.append(proj)
                total = total + proj
            worst_sum = nan_max(worst_sum, operator_norm(lhs - total))
            joined = join_projection(projections)
            if joined is None:
                joined = np.zeros((dim, dim), dtype=complex)
            worst_join = nan_max(worst_join, operator_norm(lhs - joined))
    residuals["TCK3_mce_sum"] = worst_sum
    residuals["R3_independent_join"] = worst_join

    # tails act as partial unitaries
    worst = 0.0
    for g in rep.G.morphisms(None):
        mat = rep.tail_matrix(g)
        worst = nan_max(worst, operator_norm(mat @ mat.conj().T - rep.vertex_matrix(rep.G.r(g))))
        worst = nan_max(worst, operator_norm(mat.conj().T @ mat - rep.vertex_matrix(rep.G.s(g))))
    residuals["tail_partial_unitary"] = worst

    # covariant vertex relation on the degree floor
    worst = 0.0
    for v in verts:
        for n, _ in deg_splits(rep.bound):
            total = np.zeros((dim, dim), dtype=complex)
            for lam in rep.D.paths(v, n):
                pl = rep.path_matrix(lam)
                total = total + pl @ pl.conj().T
            guard = rep.degree_floor_guard(n)
            worst = nan_max(worst, operator_norm((rep.vertex_matrix(v) - total) @ guard))
    residuals["CK_level_guarded"] = worst

    if exhaustive_sets:
        worst = 0.0
        for v, members in exhaustive_sets:
            projections = []
            floor = None
            for c in members:
                mat = rep.matrix(c)
                projections.append(mat @ mat.conj().T)
                floor = c.path.degree if floor is None else deg_join(floor, c.path.degree)
            joined = join_projection(projections)
            guard = rep.degree_floor_guard(floor)
            worst = nan_max(worst, operator_norm((rep.vertex_matrix(v) - joined) @ guard))
        residuals["R4_exhaustive_join_guarded"] = worst

    bad = {k: v for k, v in residuals.items() if not v <= PASS_TOL}
    warn = {k: v for k, v in residuals.items() if PASS_TOL < v <= WARN_TOL}
    if bad:
        return failing(
            "matrix_relations", witness=bad, bound=rep.bound, residuals=residuals, warn=warn
        )
    return passing("matrix_relations", bound=rep.bound, residuals=residuals, dim=rep.dim)


def check_homotopy_relations(zs: ZSCategory, family: Homotopy, bound) -> Report:
    """Per-fiber relation checks plus the grid-family layer.

    The vertex maps of the family act per fiber as f(t_j) times the vertex
    projection; their images are mutually orthogonal, they are unital, they
    commute past the generators, and the multiplication relation twists by
    the fiber sample.  The sample function is f(t_j) = (j + 1) + j i, which
    is nonzero and different at every grid point.
    """
    reps = build_grid_reps(zs, family, bound)
    fiber_results = []
    for rep in reps:
        inner = check_relations(rep)
        fiber_results.append(inner)
        if not inner:
            return failing(
                "homotopy_relations",
                witness={"fiber": rep.grid_index, "residuals": inner.witness},
                bound=bound,
            )
    worst = 0.0
    for rep in reps:
        val = complex(rep.grid_index + 1, rep.grid_index)
        for v in rep.D.vertices:
            pv = rep.vertex_matrix(v)
            for w in rep.D.vertices:
                if v != w:
                    worst = nan_max(worst, operator_norm((val * pv) @ (val * rep.vertex_matrix(w))))
        for c in rep.basis:
            mat = rep.matrix(c)
            zr = val * rep.vertex_matrix(rep.zs.r(c))
            zs_ = val * rep.vertex_matrix(rep.zs.s(c))
            worst = nan_max(worst, operator_norm(zr @ mat - mat @ zs_))
    if not worst <= PASS_TOL:
        return failing("homotopy_relations", witness={"IR_layer": worst}, bound=bound)
    details = {
        "fibers": family.m,
        "max_fiber_residual": max(
            max(r.details["residuals"].values()) for r in fiber_results
        ),
        "IR_commutation_residual": worst,
    }
    return passing("homotopy_relations", bound=bound, **details)


# ---------------------------------------------------------------------------
# evaluation of normal-form elements


def represent_element(rep: TruncatedRep, x: Element):
    """The matrix of an exact-model element at this fiber."""
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (lam, g, mu), f in x.terms.items():
        j = rep.grid_index if f.m == rep.family.m else 0
        coeff = f.at(j).value()
        if coeff == 0:
            continue
        mat = rep.path_matrix(lam) @ rep.tail_matrix(g) @ rep.path_matrix(mu).conj().T
        total = total + coeff * mat
    return total


def product_guard(rep: TruncatedRep, y: Element):
    """Projection on which representing x*y equals the represented product.

    Applying y first can raise intermediate path degrees by at most the
    componentwise-positive part of d(lam) - d(mu) over its terms; vectors
    far enough under the bound never see the truncation.
    """
    k = rep.D.k
    gain = (0,) * k
    for (lam, g, mu), _f in y.terms.items():
        term_gain = tuple(
            max(a - b, 0) for a, b in zip(lam.degree, mu.degree)
        )
        gain = tuple(max(a, b) for a, b in zip(gain, term_gain))
    return rep.degree_cap_guard(deg_sub(rep.bound, gain))


def check_product_agreement(rep: TruncatedRep, x: Element, y: Element) -> float:
    """Residual of represent(x) represent(y) - represent(x y) on the guard."""
    lhs = represent_element(rep, x) @ represent_element(rep, y)
    rhs = represent_element(rep, x * y)
    return operator_norm((lhs - rhs) @ product_guard(rep, y))
