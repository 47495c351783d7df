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

Each T_c is stored once as arrays (targets, weights): T_c basis_x =
weights[x] basis_{targets[x]}, or 0 where targets[x] is -1.  Products are
gathers, T T* is a diagonal, guards are boolean masks on the basis, and a
sum of operators is a stack of their rows; dense matrices are built only to
evaluate normal-form elements and to export.  Residuals are Schur bounds
over that form, sqrt(max column sum * max row sum) of the |entries|: the
operator norm on diagonals and weighted partial injections, an upper bound
otherwise.  Pass tolerance 1e-12, warn at 1e-9.  A residual that is not a
number (a NaN phase) is the worst residual and fails.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .cocycle import CocycleFamily
from .errors import InfiniteBasisError, OffGridError
from .kgraph import deg_join, deg_le, deg_splits, deg_sub
from .normalform import Element
from .report import Report, failing, passing
from .selfsim import ZSCategory, ZSMorphism

PASS_TOL = 1e-12
WARN_TOL = 1e-9


def operator_norm(op) -> float:
    """Schur bound on the norm of a dense matrix or a (targets, weights)
    stack, after summing the entries a stack holds twice: exact when no row
    or column holds two nonzero entries, an upper bound otherwise."""
    if isinstance(op, np.ndarray):
        size = np.abs(op)
        return float(np.sqrt(size.sum(0).max(initial=0.0) * size.sum(1).max(initial=0.0)))
    targets, weights = np.atleast_2d(*op)
    weights = np.where(targets >= 0, weights, 0)
    for i in range(1, len(targets)):
        for j in range(i):
            same = targets[i] == targets[j]
            weights[j] += np.where(same, weights[i], 0)
            weights[i] = np.where(same, 0, weights[i])
    size = np.abs(weights)
    rows = np.bincount(targets.ravel() + 1, size.ravel())[1:]
    return float(np.sqrt(rows.max(initial=0.0) * size.sum(0).max(initial=0.0)))


def _compose(a, b):
    """a b, for a (targets, weights) stack a and a map b."""
    (ta, wa), (tb, wb) = a, b
    return np.where(tb >= 0, ta[..., tb], -1), wa[..., tb] * wb


def _adjoint(op):
    """T* of a map T, as a stack with one row per preimage rank: T* basis_y
    is the sum of conj(weights[x]) basis_x over the x that T sends to y."""
    targets, weights = op
    xs = np.flatnonzero(targets >= 0)
    xs = xs[np.argsort(targets[xs], kind="stable")]
    ys = targets[xs]
    rank = np.arange(len(xs)) - np.searchsorted(ys, ys)
    out = np.full((rank.max(initial=-1) + 1, len(targets)), -1)
    out[rank, ys] = xs
    return out, weights.conj()[out]


def _range(op):
    """T T* of a map T, as its diagonal."""
    targets, weights = op
    return np.bincount(targets + 1, np.abs(weights) ** 2, minlength=len(targets) + 1)[1:]


def _times(z, op):
    return op[0], z * op[1]


def _minus(a, *bs):
    """a minus the sum of the bs, as one (targets, weights) stack."""
    targets = np.vstack([a[0], *(b[0] for b in bs)])
    return targets, np.vstack([a[1], *(-b[1] for b in bs)])


def _on(op, guard):
    """op Q, for the projection Q onto the basis vectors in a guard mask."""
    return np.where(guard, op[0], -1), op[1]


def dense(op):
    """The dim x dim matrix of a (targets, weights) map."""
    targets, weights = op
    on = targets >= 0
    mat = np.zeros((len(targets), len(targets)), dtype=complex)
    mat[targets[on], np.flatnonzero(on)] = weights[on]
    return mat


def nan_max(worst, r):
    """max(worst, r), where a NaN on either side wins: max() keeps its first
    argument against a NaN, so a NaN residual would vanish from the maximum."""
    return r if r > worst or r != r else worst


class TruncatedRep:
    """Operators of a fiber of the sampled cocycle family on the degree window."""

    def __init__(self, zs: ZSCategory, family: CocycleFamily, bound, grid_index):
        if not zs.is_groupoid_tailed():
            raise InfiniteBasisError("matrix model needs a finite groupoid tail")
        if not isinstance(grid_index, int) or not 0 <= grid_index < family.m:
            raise OffGridError(f"grid index {grid_index} outside 0..{family.m - 1}")
        self.zs = zs
        self.D = zs.D
        self.G = zs.C
        self.family = family
        self.grid_index = grid_index
        self.bound = tuple(bound)
        self.basis = zs.morphisms(self.bound)
        self.index = {x: i for i, x in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._mat_memo = {}

    # -- operators

    def weight(self, c1, c2) -> complex:
        """The pair's cocycle value in this fiber, read from the family's memos."""
        return self.family.phases(self.family.exponent(c1, c2))[self.grid_index].complex_value()

    def matrix(self, c: ZSMorphism):
        """The truncated action of a product-category morphism, as its
        (targets, weights) pair.  The path of c x starts with that of c, so
        a morphism outside the window acts as the zero operator."""
        cached = self._mat_memo.get(c)
        if cached is not None:
            return cached
        targets = np.full(self.dim, -1)
        weights = np.zeros(self.dim, dtype=complex)
        if not deg_le(c.path.degree, self.bound):
            return targets, weights
        for i, x in enumerate(self.basis):
            out = self.index.get(self.zs.compose(c, x))  # None unless composable
            if out is not None:
                targets[i] = out
                weights[i] = self.weight(c, x)
        self._mat_memo[c] = targets, weights
        return targets, weights

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

    # -- guard masks

    def degree_cap_guard(self, cap):
        """Mask of the basis vectors with path degree <= cap."""
        return np.array([deg_le(x.path.degree, cap) for x in self.basis], dtype=bool)

    def degree_floor_guard(self, floor):
        """Mask of the basis vectors with path degree >= floor."""
        return np.array([deg_le(floor, x.path.degree) for x in self.basis], dtype=bool)

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
                {"kind": kind, "name": str(name), "matrix": encode(dense(op))}
                for kind, name, op in self.generators()
            ],
        }


def build_grid_reps(zs: ZSCategory, family: CocycleFamily, bound):
    return [TruncatedRep(zs, family, bound, j) for j in range(family.m)]


def join_projection(projections):
    """Smallest projection dominating a family of diagonal projections:
    1 - prod(1 - p), which is 0 for an empty family."""
    return 1 - np.prod([1 - p for p in projections], axis=0)


def check_relations(rep: TruncatedRep, exhaustive_sets=None) -> Report:
    """All relation families on one fiber, with per-relation max residuals.

    ``exhaustive_sets`` is an optional list of (vertex, [morphisms]) pairs,
    typically enumerated by the alignment module, for the covariant join
    relation; it is not this module's job to enumerate them.
    """
    residuals = {}
    ident = np.arange(rep.dim)

    worst = 0.0
    for _kind, _name, op in rep.generators():
        worst = nan_max(worst, operator_norm(_minus(_compose((ident, _range(op)), op), op)))
    residuals["partial_isometry"] = worst

    worst = 0.0
    verts = list(rep.D.vertices)
    for v, w in itertools.combinations(verts, 2):
        worst = nan_max(worst, operator_norm(_compose(rep.vertex_matrix(v), rep.vertex_matrix(w))))
    residuals["vertex_orthogonality"] = worst
    ones = (ident, np.ones(rep.dim))
    residuals["vertex_sum_identity"] = operator_norm(_minus(ones, *map(rep.vertex_matrix, verts)))

    # multiplication relation, exactly on the whole truncated space
    worst = 0.0
    for c1 in rep.basis:
        m1 = rep.matrix(c1)
        for c2 in rep.basis:
            prod = _compose(m1, rep.matrix(c2))
            c12 = rep.zs.compose(c1, c2)  # None unless composable; T_c12 = 0 off the window
            if c12 in rep.index:
                prod = _minus(prod, _times(rep.weight(c1, c2), rep.matrix(c12)))
            worst = nan_max(worst, operator_norm(prod))
    residuals["R1_multiplication"] = worst

    # source projections on their degree guards
    worst = 0.0
    for c in rep.basis:
        mat = rep.matrix(c)
        guard = rep.degree_cap_guard(deg_sub(rep.bound, c.path.degree))
        defect = _minus(_compose(_adjoint(mat), mat), rep.vertex_matrix(rep.zs.s(c)))
        worst = nan_max(worst, operator_norm(_on(defect, guard)))
    residuals["R2_source_guarded"] = worst

    # range relation: sum over minimal common extensions (exact), and the
    # same via the independent-set join (the two forms must agree)
    worst_sum = 0.0
    worst_join = 0.0
    paths = sorted({x.path for x in rep.basis}, key=rep.D.sort_key)
    for mu in paths:
        range_mu = _range(rep.path_matrix(mu))
        for nu in paths:
            lhs = range_mu * _range(rep.path_matrix(nu))
            mces = rep.D.mce(mu, nu) if mu.rng == nu.rng else ()
            projections = [_range(rep.path_matrix(lam)) for lam in mces]
            worst_sum = nan_max(worst_sum, operator_norm((ident, lhs - sum(projections))))
            joined = lhs - join_projection(projections)
            worst_join = nan_max(worst_join, operator_norm((ident, joined)))
    residuals["TCK3_mce_sum"] = worst_sum
    residuals["R3_independent_join"] = worst_join

    # tails act as partial unitaries
    worst = 0.0
    for g in rep.G.morphisms(None):
        mat = rep.tail_matrix(g)
        rng = _minus((ident, _range(mat)), rep.vertex_matrix(rep.G.r(g)))
        worst = nan_max(worst, operator_norm(rng))
        src = _minus(_compose(_adjoint(mat), mat), rep.vertex_matrix(rep.G.s(g)))
        worst = nan_max(worst, operator_norm(src))
    residuals["tail_partial_unitary"] = worst

    # covariant vertex relation on the degree floor
    worst = 0.0
    for v in verts:
        for n, _ in deg_splits(rep.bound):
            ranges = [_range(rep.path_matrix(lam)) for lam in rep.D.paths(v, n)]
            defect = _minus(rep.vertex_matrix(v), (ident, sum(ranges, np.zeros(rep.dim))))
            worst = nan_max(worst, operator_norm(_on(defect, rep.degree_floor_guard(n))))
    residuals["CK_level_guarded"] = worst

    if exhaustive_sets:
        worst = 0.0
        for v, members in exhaustive_sets:
            projections = [_range(rep.matrix(c)) for c in members]
            floor = functools.reduce(deg_join, (c.path.degree for c in members))
            defect = _minus(rep.vertex_matrix(v), (ident, join_projection(projections)))
            worst = nan_max(worst, operator_norm(_on(defect, rep.degree_floor_guard(floor))))
        residuals["R4_exhaustive_join_guarded"] = worst

    bad = {k: v for k, v in residuals.items() if not v <= PASS_TOL}
    warn = {k: v for k, v in residuals.items() if PASS_TOL < v <= WARN_TOL}
    if bad:
        return failing(
            "matrix_relations", witness=bad, bound=rep.bound, residuals=residuals, warn=warn
        )
    return passing("matrix_relations", bound=rep.bound, residuals=residuals, dim=rep.dim)


def check_homotopy_relations(zs: ZSCategory, family: CocycleFamily, bound) -> Report:
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
        scaled = {v: _times(val, rep.vertex_matrix(v)) for v in rep.D.vertices}
        for v, w in itertools.permutations(scaled, 2):
            worst = nan_max(worst, operator_norm(_compose(scaled[v], scaled[w])))
        for c in rep.basis:
            mat = rep.matrix(c)
            zr, zs_ = scaled[rep.zs.r(c)], scaled[rep.zs.s(c)]
            worst = nan_max(worst, operator_norm(_minus(_compose(zr, mat), _compose(mat, zs_))))
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
        lam_g = dense(rep.path_matrix(lam)) @ dense(rep.tail_matrix(g))
        total = total + coeff * (lam_g @ dense(rep.path_matrix(mu)).conj().T)
    return total


def product_guard(rep: TruncatedRep, y: Element):
    """Mask of the basis vectors on which representing x*y equals the
    represented product.

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
    return operator_norm((lhs - rhs)[:, product_guard(rep, y)])
