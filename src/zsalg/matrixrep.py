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

The fibers of a family share one table, filled once per window: the basis
composition table (the index of basis[i] basis[j], or -1 where the pair
does not compose inside the window), the basis exponent table, and each
composite's cocycle value in every fiber.  Row i of the composition table,
with row i of the values, is T_basis[i].  Each relation family is one batch of stacks gathered from
the table, fiber axis leading: one stack per generator (partial
isometries), per vertex pair, per pair (c1, c2) (R1), per basis operator
(R2), per window path pair (mu, nu) (TCK3 and R3), per tail, per (vertex,
level) (CK) and per exhaustive set (R4), normed in blocks of BATCH entries.
Every operator and pair, in every fiber, gets the float operations it gets
alone: a batch pads a stack only with rows of -1 targets, which change no
norm, and an R1 stack with no entry, whose norm is 0.0, is not built.
Residuals are Schur bounds over that form, sqrt(max column sum * max row
sum) of the |entries|: the operator norm on diagonals and weighted partial
injections, an upper bound otherwise.  Pass tolerance 1e-12, warn at 1e-9.
A residual that is not a number (a NaN phase) is the worst residual and fails.

Only R1 reads the cocycle beyond the vertex projections.  Every other
family multiplies a weight by its conjugate (T T*, T* T), compares
supports, or subtracts vertex projections T_v, whose weights are
sigma(id_v, x).  With unimodular weights, whether those families hold
exactly depends on sigma only through T_v, which is the identity on its
range when sigma is normalized.  R1 at (id_v, id_v, x) compares
sigma(id_v, x) with sigma(id_v, id_v), so a sigma that R1 passes has T_v =
lambda_v P_v, and vertex_sum_identity sees lambda_v != 1.  Two N-th roots of
unity that differ are 2 sin(pi/N) apart, below PASS_TOL once N is above
about 6e12, so a float residual alone cannot decide those two families in
rational mode.  For a family with a conductor and integer exponents they
are also decided exactly (_Table.mismatches): R1 fails at fiber j on a
surviving triple (c1, c2, x), where T_c1 T_c2 and T_c1c2 send basis_x to
the same vector, when S s_j delta is not 0 mod N, with
delta = E(c1, c2 x) + E(c2, x) - E(c1, c2) - E(c1 c2, x); vertex_sum_identity
fails where S s_j E(id_v, x) is not 0 mod N.  Where that decides the verdict
the report names the first such location in window order, with its fiber.
Float families keep PASS_TOL.
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

#: fibers x stacks x dim entries per batch of a relation family and of the IR layer
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
    batch, (rows, dim) = weights.shape[:-2], weights.shape[-2:]
    if rows == 1 and np.ndim(op[0]) == 1 and np.array_equal(op[0], np.arange(dim)):
        # a diagonal holds one entry per row and per column: both sums are
        # its |entries|, and the bound is the one below, bit for bit
        size = np.abs(weights[..., 0, :]).max(-1, initial=0.0)
        norm = np.sqrt(size * size)
        return norm if batch else float(norm)
    count = math.prod(batch)
    # laid out as (rows, dim, batch entries), so that every reduction runs
    # over a leading axis; each entry sees the same float operations, in the
    # same order, as it would alone
    targets = np.broadcast_to(op[0], weights.shape).reshape(count, rows, dim)
    targets = np.ascontiguousarray(targets.transpose(1, 2, 0))
    weights = np.where(targets >= 0, weights.reshape(count, rows, dim).transpose(1, 2, 0), 0)
    weights = np.ascontiguousarray(weights)
    for i in range(1, rows):
        for j in range(i):
            same = targets[i] == targets[j]
            weights[j] += np.where(same, weights[i], 0)
            weights[i] = np.where(same, 0, weights[i])
    size = np.abs(weights)
    # the sums by target of each entry, bin (target + 1, entry), add its
    # entries in (row, column) order; bin 0 collects the dropped entries
    bins = ((targets + 1) * count + np.arange(count)).ravel()
    sums = np.bincount(bins, size.ravel(), minlength=(dim + 1) * count)
    by_target = sums.reshape(dim + 1, count)[1:].max(0, initial=0.0)
    # the column sums add row by row
    by_source = size.sum(0).max(0, initial=0.0)
    norm = np.sqrt(by_target * by_source)
    return norm.reshape(batch) if batch else float(norm[0])


# In the residual pass a map has targets (dim,) and weights (fibers, dim), a
# stack or a batch of maps has targets (rows, dim) and weights (fibers, rows, dim),
# and a batch of stacks has targets (n, rows, dim) and weights (fibers, n, rows, dim).


def _compose(a, b):
    """a b, for a map, stack or batch a and a map b, or a map a and a batch b."""
    (ta, wa), (tb, wb) = a, b
    if ta.ndim > tb.ndim:
        wb = wb[:, None]
    return np.where(tb >= 0, ta[..., tb], -1), wa[..., tb] * wb


def _minus(a, *bs):
    """a minus the sum of the maps and stacks bs, as one stack: a map is a row."""
    ops = [a, *((t, -w) for t, w in bs)]
    rows = [(t, w) if t.ndim == 2 else (t[None], w[:, None]) for t, w in ops]
    return np.concatenate([t for t, _ in rows]), np.concatenate([w for _, w in rows], axis=1)


def _pairs(a, b):
    """Per batch entry, the stack a - b of two batches of maps."""
    return np.stack([a[0], b[0]], axis=-2), np.stack([a[1], -b[1]], axis=-2)


def _rows(*parts):
    """Batches of maps or of stacks, as one batch of stacks of their rows in
    order: entry n stacks the rows of entry n of every part."""
    ts = [t if t.ndim == 3 else t[:, None] for t, _ in parts]
    ws = [w if w.ndim == 4 else w[:, :, None] for _, w in parts]
    return np.concatenate(ts, axis=-2), np.concatenate(ws, axis=-2)


def _products(targets, weights, a, b):
    """T_a T_b for each entry of two index arrays into a batch of maps."""
    tb = targets[b]
    n = a[:, None]
    return np.where(tb >= 0, targets[n, tb], -1), weights[:, n, tb] * weights[:, b]


def _ranges(targets, weights, pad=False):
    """T T* of each map of a batch, as its diagonal in each fiber; with pad,
    a zero diagonal follows the last map."""
    ranges = _target_sums(targets, np.abs(weights) ** 2, weights.shape[:2])
    if pad:
        ranges = np.concatenate([ranges, np.zeros_like(ranges[:, :1])], axis=1)
    return ranges


def _grams(targets, weights):
    """T* T of each map of a batch, as a stack with one row per preimage
    rank r: row r sends x to the r-th preimage of T x, with the weight
    conj(weights[that preimage]) weights[x].  The batch has as many rows as
    its highest rank needs; an entry's rows past its own have -1 targets."""
    n, dim = targets.shape
    key = (targets + 1 + (dim + 1) * np.arange(n)[:, None]).ravel()
    order = np.argsort(key, kind="stable")
    ranks = np.arange(key.size) - np.searchsorted(key[order], key[order])
    ops, xs = np.divmod(order, dim)
    ys = targets.ravel()[order]
    hit = ys >= 0
    adjoint = np.full((n, ranks[hit].max(initial=-1) + 1, dim), -1)
    adjoint[ops[hit], ranks[hit], ys[hit]] = xs[hit]
    entry = np.arange(n)[:, None, None]
    preimages = adjoint[entry, np.arange(adjoint.shape[1])[:, None], targets[:, None]]
    grams = weights.conj()[:, entry, preimages] * weights[:, :, None]
    return np.where(targets[:, None] >= 0, preimages, -1), grams


def _padded(lists, pad):
    """Ragged lists of indices as one int array, each row padded with pad."""
    out = np.full((len(lists), max(map(len, lists), default=0)), pad)
    for row, items in zip(out, lists):
        row[: len(items)] = items
    return out


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
    index, and, filled once on first use (``maps``), the basis composition
    table with every basis operator's weights in every fiber and the basis
    exponent table."""

    def __init__(self, zs: ZSCategory, family: CocycleFamily, bound, grid):
        if not zs.is_groupoid_tailed():
            raise InfiniteBasisError("matrix model needs a finite groupoid tail")
        self.zs, self.family, self.bound, self.grid = zs, family, tuple(bound), tuple(grid)
        window = zs.window(self.bound)
        self.basis, self._ids = window.members, window.ids
        self.index = {x: i for i, x in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.residuals = {}

    @functools.cached_property
    def maps(self):
        """(targets, weights, exponents).  targets[i, j] is the index of
        basis[i] basis[j], or -1 where the pair does not compose inside the
        window; weights[:, i, j] is the pair's cocycle value in each fiber
        there, and 0 elsewhere; exponents[i, j] is the family's exponent of
        the pair there, and 0 elsewhere; ``integral`` says whether every
        exponent is an int.  So row i is T_basis[i].
        d(c x) = d(c) + d(c |> x), so a pair whose degrees leave the window
        is skipped without being composed, and nothing outside the window is
        interned.  The exponents are read from the family's id table
        (CocycleFamily.exponents), and its phases once per exponent."""
        zs, family, dim, ids = self.zs, self.family, self.dim, self._ids
        by_pair, extend, sizes = family.exponents(zs), zs.pair.extend_ids, zs.D.sizes
        position = {k: n for n, k in enumerate(ids)}
        by_range = collections.defaultdict(list)
        for n, k in enumerate(ids):
            by_range[zs.ranges[k]].append(n)
        rows, columns, outs, values = [], [], [], []
        for i, c in enumerate(ids):
            row, degree, tail = by_pair[c], sizes[zs.path_ids[c]], zs.tail_ids[c]
            for j in by_range[zs.sources[c]]:
                x = ids[j]
                moved, _ = extend(tail, zs.path_ids[x])
                if not deg_le(deg_add(degree, sizes[moved]), self.bound):
                    continue
                out = position.get(zs.compose_ids(c, x))
                if out is not None:
                    rows.append(i)
                    columns.append(j)
                    outs.append(out)
                    values.append(row[x])
        self.integral = all(type(q) is int for q in values)
        # one column of fiber values per distinct exponent
        codes, distinct = [], {}
        for q in values:
            codes.append(distinct.setdefault(q, len(distinct)))
        phases = np.zeros((len(self.grid), len(distinct)), dtype=complex)
        for n, q in enumerate(distinct):
            fiber = family.phases(q)
            phases[:, n] = [fiber[g].value() for g in self.grid]
        targets = np.full((dim, dim), -1)
        weights = np.zeros((len(self.grid), dim, dim), dtype=complex)
        exponents = np.zeros((dim, dim), dtype=object)
        targets[rows, columns] = outs
        weights[:, rows, columns] = phases[:, codes]
        exponents[rows, columns] = np.array(values, dtype=object)
        return targets, weights, exponents

    def operator(self, c: ZSMorphism):
        """T_c with one row of weights per fiber: row c of the tables, or the
        zero operator for a morphism outside the window."""
        i = self.index.get(c)
        if i is None:
            return np.full(self.dim, -1), np.zeros((len(self.grid), self.dim), dtype=complex)
        targets, weights, _ = self.maps
        return targets[i], weights[:, i]

    @functools.cached_property
    def mismatches(self):
        """The exact rule: per family it decides, and per fiber, the first
        location in window order where two phases that must agree differ,
        or None.  Fiber j's phase of an exponent E is 1 iff S s_j E is 0
        mod N.  R1_multiplication: a surviving triple (c1, c2, x), where
        T_c1 T_c2 and T_c1c2 send basis_x to the same vector, fails where
        delta = E(c1, c2 x) + E(c2, x) - E(c1, c2) - E(c1 c2, x) has a phase
        other than 1.  vertex_sum_identity: (id_v, x) fails where T_v's
        weight sigma(id_v, x) is not 1.  Exponents are Python ints, so no sum
        wraps.  Decided only for a family with a conductor N > 1 and integer
        exponents; otherwise every entry is None."""
        fibers = len(self.grid)
        out = {"R1_multiplication": [None] * fibers, "vertex_sum_identity": [None] * fibers}
        targets, _, exponents = self.maps
        if self.family.cond in (None, 1) or not self.integral:
            return out
        units = np.array(sorted(self.index[self.zs.identity(v)] for v in self.zs.D.vertices))
        unit, x = np.nonzero(targets[units] >= 0)
        self._first_gaps(out["vertex_sum_identity"], exponents[units[unit], x], units[unit], x)
        # in blocks of pairs, so that no array grows past BATCH x dim entries
        c1, c2 = np.nonzero(targets >= 0)
        block = max(1, BATCH // self.dim)
        for lo in range(0, len(c1), block):
            a, b = c1[lo : lo + block], c2[lo : lo + block]
            c12, moved = targets[a, b], targets[b]
            ends = np.where(moved >= 0, targets[a[:, None], moved], -1)
            pair, x = np.nonzero((ends >= 0) & (ends == targets[c12]))
            a, b, ab, bx = a[pair], b[pair], c12[pair], moved[pair, x]
            delta = (exponents[a, bx] + exponents[b, x]) - (exponents[a, b] + exponents[ab, x])
            if self._first_gaps(out["R1_multiplication"], delta, a, b, x):
                break
        return out

    def _first_gaps(self, out, exponents, *at):
        """Fill each fiber's None in out with the basis morphisms at the
        first position t whose exponent has a phase other than 1 there, and
        say whether every fiber has one."""
        for t in np.flatnonzero(exponents % self.family.cond):
            phases = self.family.phases(exponents[t])
            for f, j in enumerate(self.grid):
                if out[f] is None and not phases[j].is_one():
                    out[f] = tuple(self.basis[i[t]] for i in at)
            if None not in out:
                break
        return None not in out


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


def _relation_pass(rep: TruncatedRep, exhaustive_sets):
    """Per relation family, its worst residual in each fiber of an
    all-fiber view.  Each family is one batch of stacks, one stack per
    operator or pair, read from the table and normed in blocks of BATCH
    entries."""
    table, D, G, zs = rep.table, rep.D, rep.G, rep.zs
    fibers, dim = len(table.grid), rep.dim
    targets, weights, _ = table.maps
    ident, verts, norms = np.arange(dim), list(D.vertices), collections.defaultdict(list)
    block = max(1, BATCH // (fibers * dim))
    vertex = {v: rep.index[zs.identity(v)] for v in verts}
    degrees = np.array([x.path.degree for x in rep.basis]).reshape(dim, len(rep.bound))

    def add(family, stacks, count):
        """The norms of stacks(part) over the blocks part of range(count).
        For a tuple of families, the last batch axis of the stacks runs
        over them."""
        for lo in range(0, count, block):
            norm = operator_norm(stacks(np.arange(lo, min(lo + block, count))))
            if isinstance(family, tuple):
                for n, name in enumerate(family):
                    norms[name].append(norm[..., n])
            else:
                norms[family].append(norm)

    def minus_vertex(of, part):
        """-T_v for the vertex index of each entry of a batch."""
        v = of[part]
        return targets[v], -weights[:, v]

    def diagonal(values):
        """A batch of diagonals, values (fibers, n, dim), as maps."""
        return np.broadcast_to(ident, values.shape[1:]), values

    def guarded(stacks, masks):
        """Each stack with the columns off its guard mask dropped."""
        return np.where(masks[:, None], stacks[0], -1), stacks[1]

    generators = [op for _kind, _name, op in rep.generators()]
    gen_t = np.stack([t for t, _ in generators])
    gen_w = np.stack([w for _, w in generators], axis=1)
    gen_ranges = _ranges(gen_t, gen_w)

    def partial_isometry(part):
        t, w = gen_t[part], gen_w[:, part]
        return _rows((t, gen_ranges[:, part[:, None], t] * w), (t, -w))

    add("partial_isometry", partial_isometry, len(generators))
    norms["vertex_orthogonality"] = []
    pairs = np.array(list(itertools.combinations(vertex.values(), 2)), dtype=int).reshape(-1, 2)
    add(
        "vertex_orthogonality",
        lambda part: _rows(_products(targets, weights, *pairs[part].T)),
        len(pairs),
    )
    ones = (ident, np.ones((fibers, dim)))
    norms["vertex_sum_identity"].append(
        operator_norm(_minus(ones, *map(rep.vertex_matrix, verts)))
    )

    # multiplication relation, exactly on the whole truncated space, per
    # pair (c1, c2): T_c1 T_c2 against sigma(c1, c2) T_c1c2, where c1 c2 is
    # targets[c1, c2] and sigma(c1, c2) the weight there
    c1, c2 = np.divmod(np.arange(dim * dim), dim)

    def multiplication(part):
        a, b = c1[part], c2[part]
        c12, moved = targets[a, b], targets[b]
        ends = np.where(moved >= 0, targets[a[:, None], moved], -1)
        # a stack with no entry has the norm 0.0, which no maximum sees
        live = (c12 >= 0) | (ends >= 0).any(1)
        a, b, c12, moved, ends = a[live], b[live], c12[live], moved[live], ends[live]
        product = weights[:, a[:, None], moved] * weights[:, b]
        # rows of -1 pad the pairs whose composite leaves the window
        padded = np.where(c12[:, None] >= 0, targets[c12], -1)
        twisted = weights[:, a, b][..., None] * weights[:, c12]
        return _rows((ends, product), (padded, -twisted))

    add("R1_multiplication", multiplication, dim * dim)

    # source projections on their degree guards d(c) + d(x) <= bound
    sources = np.array([vertex[zs.s(c)] for c in rep.basis])
    caps = (degrees[:, None] + degrees[None] <= np.array(rep.bound)).all(-1)

    def source_projection(part):
        grams = _grams(targets[part], weights[:, part])
        return guarded(_rows(grams, minus_vertex(sources, part)), caps[part])

    add("R2_source_guarded", source_projection, dim)

    # range relation: sum over minimal common extensions (exact), and the
    # same via the independent-set join (the two forms must agree); the
    # k-graph's kept meet, one MCE per unordered window path pair, and one
    # range per path for all fibers, with a zero range last that pads the
    # pairs with fewer extensions
    paths = sorted({x.path for x in rep.basis}, key=D.sort_key)
    position, npaths = {p: n for n, p in enumerate(paths)}, len(paths)
    path_ops = [rep.index[zs.from_path(p)] for p in paths]
    path_ranges = _ranges(targets[path_ops], weights[:, path_ops], pad=True)
    extensions = _padded(
        [[position[lam] for lam in D.meet(mu, nu, None)[0]] for mu in paths for nu in paths],
        npaths,
    )
    mus, nus = np.divmod(np.arange(npaths * npaths), npaths)

    def sum_of(members):
        """0 + r_1 + r_2 + ... over the path ranges of each row of members,
        in order: each row's own sum, since the padding adds 0.0 last."""
        total = np.zeros((fibers, len(members), dim))
        for column in members.T:
            total = total + path_ranges[:, column]
        return total

    def range_forms(part):
        """The two forms' diagonals, one one-row stack each per pair."""
        lhs = path_ranges[:, mus[part]] * path_ranges[:, nus[part]]
        members = extensions[part]
        # the padding's factors 1 - 0.0 are 1.0
        joined = join_projection([path_ranges[:, column] for column in members.T])
        return ident, np.stack([lhs - sum_of(members), lhs - joined], axis=2)[..., None, :]

    add(("TCK3_mce_sum", "R3_independent_join"), range_forms, npaths * npaths)

    # tails act as partial unitaries: T_g T_g* - P_r(g), and T_g* T_g - P_s(g),
    # which is R2's stack at the tail, whose guard keeps the whole window
    tails = list(G.morphisms(None))
    tail_ops = np.array([rep.index[zs.from_tail(g)] for g in tails])
    tail_ranges = _ranges(targets[tail_ops], weights[:, tail_ops])
    tail_r = np.array([vertex[G.r(g)] for g in tails])

    def tail_range(part):
        return _rows(diagonal(tail_ranges[:, part]), minus_vertex(tail_r, part))

    add("tail_partial_unitary", tail_range, len(tails))
    norms["tail_partial_unitary"].append(
        np.concatenate(norms["R2_source_guarded"], axis=1)[:, tail_ops]
    )

    # covariant vertex relation on the degree floor, per (vertex, level)
    levels = [(v, n) for v in verts for n, _ in deg_splits(rep.bound)]
    level_vertex = np.array([vertex[v] for v, _ in levels])
    level_sums = sum_of(_padded([[position[p] for p in D.paths(v, n)] for v, n in levels], npaths))
    floors = np.array([(degrees >= n).all(-1) for _, n in levels])

    def vertex_level(part):
        v = level_vertex[part]
        stacks = _rows((targets[v], weights[:, v]), diagonal(-level_sums[:, part]))
        return guarded(stacks, floors[part])

    add("CK_level_guarded", vertex_level, len(levels))

    # covariant join relation over each exhaustive set, on its degree floor
    sets = list(exhaustive_sets or ())
    if sets:
        ops = [rep.matrix(c) for _, members in sets for c in members]
        set_ranges = _ranges(
            np.stack([t for t, _ in ops]), np.stack([w for _, w in ops], axis=1), pad=True
        )
        starts = np.cumsum([0] + [len(members) for _, members in sets])
        in_set = _padded([range(a, b) for a, b in zip(starts, starts[1:])], len(ops))
        set_vertex = np.array([vertex[v] for v, _ in sets])
        set_floors = np.array([
            (degrees >= functools.reduce(deg_join, (c.path.degree for c in members))).all(-1)
            for _, members in sets
        ])

        def exhaustive_join(part):
            joined = join_projection([set_ranges[:, column] for column in in_set[part].T])
            v = set_vertex[part]
            stacks = _rows((targets[v], weights[:, v]), diagonal(-joined))
            return guarded(stacks, set_floors[part])

        add("R4_exhaustive_join_guarded", exhaustive_join, len(sets))
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
    located = {}
    for name, found in rep.table.mismatches.items():
        if found[rep.fiber] is not None and name not in bad:
            # a phase gap below PASS_TOL: the exact rule decides, and says where
            bad[name] = residuals[name]
            located[name] = [rep.grid_index, *found[rep.fiber]]
    if bad:
        exact = {"mismatch": located} if located else {}
        return failing(
            "matrix_relations",
            witness=bad,
            bound=rep.bound,
            residuals=residuals,
            warn=warn,
            **exact,
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
    targets, weights, _ = rep.table.maps
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
