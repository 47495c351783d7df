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
evaluate normal-form elements and to export.

The fibers of a family share one table of these, weights stacked over the
fibers, and each relation family is one numpy pass over it, fiber axis
leading, in which every fiber gets the float operations it would get alone.
Residuals are Schur bounds over that form, sqrt(max column sum * max row
sum) of the |entries|: the operator norm on diagonals and weighted partial
injections, an upper bound otherwise.  Pass tolerance 1e-12, warn at 1e-9.
A residual that is not a number (a NaN phase) is the worst residual and fails.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

import numpy as np

from .cocycle import CocycleFamily
from .errors import InfiniteBasisError, OffGridError
from .kgraph import deg_add, deg_join, deg_le, deg_splits, deg_sub
from .normalform import Element
from .report import Report, failing, passing
from .selfsim import ZSCategory, ZSMorphism

PASS_TOL = 1e-12
WARN_TOL = 1e-9

#: fibers x operators x dim entries per batch of R1 and of the IR layer
BATCH = 1 << 14


def _target_sums(targets, values, batch):
    """Per index of the leading ``batch`` axes, the sums of values by target
    0..dim-1, through a run of bins per index that sums in the same order."""
    dim = values.shape[-1]
    count = math.prod(batch)
    offsets = (dim + 1) * np.arange(count).reshape(batch + (1,) * (values.ndim - len(batch)))
    sums = np.bincount((targets + 1 + offsets).ravel(), values.ravel(), minlength=count * (dim + 1))
    return sums.reshape(batch + (dim + 1,))[..., 1:]


def operator_norm(op):
    """Schur bound on the norm of a dense matrix or a (targets, weights)
    stack, after summing the entries a stack holds twice: exact when no row
    or column holds two nonzero entries, an upper bound otherwise.  Weights
    of shape (..., rows, dim) carry leading batch axes, against which the
    targets broadcast, and the bound is then an array over those axes."""
    if isinstance(op, np.ndarray):
        size = np.abs(op)
        return float(np.sqrt(size.sum(0).max(initial=0.0) * size.sum(1).max(initial=0.0)))
    weights = np.atleast_2d(op[1])
    targets = np.broadcast_to(op[0], weights.shape)
    batch = weights.shape[:-2]
    weights = np.where(targets >= 0, weights, 0)
    for i in range(1, weights.shape[-2]):
        for j in range(i):
            same = targets[..., i, :] == targets[..., j, :]
            weights[..., j, :] += np.where(same, weights[..., i, :], 0)
            weights[..., i, :] = np.where(same, 0, weights[..., i, :])
    # in C order the column sums add row by row
    size = np.ascontiguousarray(np.abs(weights))
    rows = _target_sums(targets, size, batch)
    norm = np.sqrt(rows.max(-1, initial=0.0) * size.sum(-2).max(-1, initial=0.0))
    return norm if batch else float(norm)


# In the residual pass a map has targets (dim,) and weights (fibers, dim), a
# stack or a batch of maps has targets (rows, dim) and weights (fibers, rows, dim).


def _compose(a, b):
    """a b, for a map, stack or batch a and a map b, or a map a and a batch b."""
    (ta, wa), (tb, wb) = a, b
    if ta.ndim > tb.ndim:
        wb = wb[:, None]
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
    return out, weights.conj()[..., out]


def _range(op):
    """T T* of a map T, as its diagonal in each fiber."""
    return _target_sums(op[0], np.abs(op[1]) ** 2, op[1].shape[:1])


def _minus(a, *bs):
    """a minus the sum of the maps and stacks bs, as one stack: a map is a row."""
    ops = [a, *((t, -w) for t, w in bs)]
    rows = [(t, w) if t.ndim == 2 else (t[None], w[:, None]) for t, w in ops]
    return np.concatenate([t for t, _ in rows]), np.concatenate([w for _, w in rows], axis=1)


def _pairs(a, b):
    """Per batch entry, the stack a - b of two batches of maps."""
    return np.stack([a[0], b[0]], axis=-2), np.stack([a[1], -b[1]], axis=-2)


def _on(op, guard):
    """op Q, for the projection Q onto the basis vectors in a guard mask."""
    return np.where(guard, op[0], -1), op[1]


def _worst(norms, fibers):
    """Per fiber, the largest of the norms (arrays with the fiber axis
    leading), 0.0 without any: nan_max over every other axis."""
    columns = [np.zeros((fibers, 1)), *(norm.reshape(fibers, -1) for norm in norms)]
    return np.concatenate(columns, axis=1).max(1)


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


class _Table:
    """What the fibers of one family share on one window: the basis, its
    index, and each operator's targets with its weights in every fiber."""

    def __init__(self, zs: ZSCategory, family: CocycleFamily, bound, grid):
        if not zs.is_groupoid_tailed():
            raise InfiniteBasisError("matrix model needs a finite groupoid tail")
        self.zs, self.family, self.bound, self.grid = zs, family, tuple(bound), tuple(grid)
        self.basis = zs.morphisms(self.bound)
        self.index = {x: i for i, x in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.operators, self.residuals, self._phases = {}, {}, {}

    def phases(self, c1, c2):
        """The pair's cocycle value in each fiber, memoized per exponent."""
        q = self.family.exponent(c1, c2)
        if q not in self._phases:
            phases = self.family.phases(q)
            self._phases[q] = np.array([phases[j].complex_value() for j in self.grid])
        return self._phases[q]

    def operator(self, c: ZSMorphism):
        """T_c with one row of weights per fiber.  d(c x) = d(c) + d(c |> x),
        so a pair whose degrees leave the window is skipped without being
        composed, and a morphism outside the window is the zero operator."""
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


class TruncatedRep:
    """Operators of a fiber of the sampled cocycle family on the degree
    window: a view of the family's table at one fiber."""

    def __init__(self, zs: ZSCategory, family: CocycleFamily, bound, grid_index):
        if type(grid_index) is not int or not 0 <= grid_index < family.m:
            raise OffGridError(f"grid index {grid_index} outside 0..{family.m - 1}")
        self._attach(_Table(zs, family, bound, (grid_index,)), 0)

    def _attach(self, table: _Table, fiber):
        """View a table at one of its fibers, by position, or at all of them
        (slice(None)), where weights keep the fiber axis."""
        self.table, self.fiber, self.family, self.bound = table, fiber, table.family, table.bound
        self.zs, self.D, self.G = table.zs, table.zs.D, table.zs.C
        self.basis, self.index, self.dim = table.basis, table.index, table.dim
        self.grid_index = table.grid[fiber] if isinstance(fiber, int) else None

    # -- operators

    def matrix(self, c: ZSMorphism):
        """The truncated action of a product-category morphism, as its
        (targets, weights) pair."""
        targets, weights = self.table.operator(c)
        return targets, weights[self.fiber]

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


def _view(table: _Table, fiber) -> TruncatedRep:
    rep = TruncatedRep.__new__(TruncatedRep)
    rep._attach(table, fiber)
    return rep


def build_grid_reps(zs: ZSCategory, family: CocycleFamily, bound):
    """One rep per grid fiber, all views of one table."""
    table = _Table(zs, family, bound, range(family.m))
    return [_view(table, j) for j in range(family.m)]


def join_projection(projections):
    """Smallest projection dominating a family of diagonal projections:
    1 - prod(1 - p), which is 0 for an empty family."""
    return 1 - np.prod([1 - p for p in projections], axis=0)


def _basis_operators(rep: TruncatedRep):
    """Every basis operator of an all-fiber view, as a batch of maps."""
    ops = [rep.matrix(c) for c in rep.basis]
    return np.stack([t for t, _ in ops]), np.stack([w for _, w in ops], axis=1)


def _relation_pass(rep: TruncatedRep, exhaustive_sets):
    """Per relation family, its worst residual in each fiber of an
    all-fiber view."""
    fibers, dim = len(rep.table.grid), rep.dim
    ident, verts, norms = np.arange(dim), list(rep.D.vertices), collections.defaultdict(list)

    def add(family, op):
        norms[family].append(operator_norm(op))

    for _kind, _name, op in rep.generators():
        add("partial_isometry", _minus(_compose((ident, _range(op)), op), op))
    norms["vertex_orthogonality"] = []
    for v, w in itertools.combinations(verts, 2):
        add("vertex_orthogonality", _minus(_compose(rep.vertex_matrix(v), rep.vertex_matrix(w))))
    ones = (ident, np.ones((fibers, dim)))
    add("vertex_sum_identity", _minus(ones, *map(rep.vertex_matrix, verts)))

    # multiplication relation, exactly on the whole truncated space, per c1
    # over blocks of c2: T_c1 T_c2 sends basis_{id s(c2)} to the basis vector
    # of c1 c2 exactly when that composite is in the window
    targets, weights = _basis_operators(rep)
    units = np.array([rep.index[rep.zs.identity(rep.zs.s(c))] for c in rep.basis])
    block = max(1, BATCH // (fibers * dim))
    for c1, t1, w1 in zip(rep.basis, targets, weights.swapaxes(0, 1)):
        for lo in range(0, dim, block):
            part = slice(lo, lo + block)
            prod = _compose((t1, w1), (targets[part], weights[:, part]))
            c12 = prod[0][np.arange(len(units[part])), units[part]]
            sigma = np.zeros((fibers, len(c12)), dtype=complex)
            for b in np.flatnonzero(c12 >= 0):
                sigma[:, b] = rep.table.phases(c1, rep.basis[lo + b])
            # rows of -1 pad the pairs whose composite leaves the window
            padded = np.where(c12[:, None] >= 0, targets[c12], -1)
            add("R1_multiplication", _pairs(prod, (padded, sigma[..., None] * weights[:, c12])))

    # source projections on their degree guards
    for c, t, w in zip(rep.basis, targets, weights.swapaxes(0, 1)):
        guard = rep.degree_cap_guard(deg_sub(rep.bound, c.path.degree))
        defect = _minus(_compose(_adjoint((t, w)), (t, w)), rep.vertex_matrix(rep.zs.s(c)))
        add("R2_source_guarded", _on(defect, guard))

    # range relation: sum over minimal common extensions (exact), and the
    # same via the independent-set join (the two forms must agree); each
    # pair's extensions and each path's range are taken once for all fibers
    path_range = functools.cache(lambda p: _range(rep.path_matrix(p)))
    paths = sorted({x.path for x in rep.basis}, key=rep.D.sort_key)
    for mu in paths:
        sums, joins = [], []
        for nu in paths:
            lhs = path_range(mu) * path_range(nu)
            mces = rep.D.mce(mu, nu) if mu.rng == nu.rng else ()
            projections = [path_range(lam) for lam in mces]
            sums.append(lhs - sum(projections))
            joins.append(lhs - join_projection(projections))
        # one diagonal, a one-row stack, per nu
        add("TCK3_mce_sum", (ident, np.stack(sums, axis=1)[:, :, None]))
        add("R3_independent_join", (ident, np.stack(joins, axis=1)[:, :, None]))

    # tails act as partial unitaries
    for g in rep.G.morphisms(None):
        t = rep.tail_matrix(g)
        add("tail_partial_unitary", _minus((ident, _range(t)), rep.vertex_matrix(rep.G.r(g))))
        add("tail_partial_unitary", _minus(_compose(_adjoint(t), t), rep.vertex_matrix(rep.G.s(g))))

    # covariant vertex relation on the degree floor
    for v in verts:
        for n, _ in deg_splits(rep.bound):
            level = sum(map(path_range, rep.D.paths(v, n)), np.zeros((fibers, dim)))
            defect = _minus(rep.vertex_matrix(v), (ident, level))
            add("CK_level_guarded", _on(defect, rep.degree_floor_guard(n)))

    for v, members in exhaustive_sets or ():
        projections = [_range(rep.matrix(c)) for c in members]
        floor = functools.reduce(deg_join, (c.path.degree for c in members))
        defect = _minus(rep.vertex_matrix(v), (ident, join_projection(projections)))
        add("R4_exhaustive_join_guarded", _on(defect, rep.degree_floor_guard(floor)))
    return {name: _worst(family, fibers) for name, family in norms.items()}


def check_relations(rep: TruncatedRep, exhaustive_sets=None) -> Report:
    """All relation families on one fiber, with per-relation max residuals.

    ``exhaustive_sets`` is an optional list of (vertex, [morphisms]) pairs,
    typically enumerated by the alignment module, for the covariant join
    relation; it is not this module's job to enumerate them.  The residuals
    of every fiber of rep's table are computed in one pass, on the first
    call for those exhaustive sets.
    """
    key = tuple((v, tuple(members)) for v, members in exhaustive_sets or ())
    if key not in rep.table.residuals:
        rep.table.residuals[key] = _relation_pass(_view(rep.table, slice(None)), exhaustive_sets)
    residuals = {name: float(worst[rep.fiber]) for name, worst in rep.table.residuals[key].items()}
    bad = {k: v for k, v in residuals.items() if not v <= PASS_TOL}
    warn = {k: v for k, v in residuals.items() if PASS_TOL < v <= WARN_TOL}
    if bad:
        return failing(
            "matrix_relations", witness=bad, bound=rep.bound, residuals=residuals, warn=warn
        )
    return passing("matrix_relations", bound=rep.bound, residuals=residuals, dim=rep.dim)


def _commutation_residual(rep: TruncatedRep) -> float:
    """The grid-family layer of an all-fiber view: every fiber at once, over
    blocks of basis morphisms with the same ends."""
    samples = np.array([complex(j + 1, j) for j in rep.table.grid])[:, None]
    vertices = {v: rep.vertex_matrix(v) for v in rep.D.vertices}
    scaled = {v: (t, samples * w) for v, (t, w) in vertices.items()}
    pairs = itertools.permutations(scaled, 2)
    norms = [operator_norm(_minus(_compose(scaled[v], scaled[w]))) for v, w in pairs]
    targets, weights = _basis_operators(rep)
    block, by_ends = max(1, BATCH // (len(rep.table.grid) * rep.dim)), collections.defaultdict(list)
    for i, c in enumerate(rep.basis):
        by_ends[rep.zs.r(c), rep.zs.s(c), i // block].append(i)
    for (r, s, _), members in by_ends.items():
        mats = targets[members], weights[:, members]
        norms.append(operator_norm(_pairs(_compose(scaled[r], mats), _compose(mats, scaled[s]))))
    return float(_worst(norms, len(rep.table.grid)).max())


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
    worst = _commutation_residual(_view(reps[0].table, slice(None)))
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
