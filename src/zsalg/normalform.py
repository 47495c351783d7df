"""Exact normal-form model of the twisted product-category algebra.

Elements are finite sums of spanning terms z(f) S_lam S_g S_mu* -- a grid
coefficient, a path, a tail-groupoid element with r(g) = s(lam), and a
second path with s(mu) = s(g).  Products reduce to canonical term sums in
three moves, each an instance of the defining relations:

  * S_mu* S_lam' expands over the minimal common extensions of mu and lam'
    (the membership form of the range-projection relation);
  * a tail element pushes through a path, S_g S_alpha =
    z(.) S_{g|>alpha} S_{g<|alpha}, twisting by the action;
  * inverse tails convert adjoints: S_g* = conj(z(sigma(g, g^-1))) S_{g^-1}.

Coefficients collect the cocycle samples of every move.  Equality of
elements is decided by canonical term lists; in the covariant model the
sound test is equality after raising both sides to a common path level.
Term-level equality is sound but not claimed complete for the quotient
algebra: level raising certifies every identity this toolkit asserts.

The product of the terms (l1, g1, m1) and (l2, g2, m2) reads l1 and m2 only
through two twist exponents and the paths l1 alpha' and m2 beta'; the rest
depends on its core (g1, m1, l2, g2) alone.  So each core is reduced once,
on its first ask, into one record per common extension xi = m1 alpha =
l2 beta: the sum of the other nine twist exponents, the moved cofactors
alpha' and beta' with their product ids, the merged tail, and alpha, beta
and xi for the audit transcript, which reads the same records as the
product.  The records are kept by (g1, id of m1, id of l2, g2) for the
model's lifetime, and its fiber models share them: they hold form
exponents, which no fiber changes.
"""

from __future__ import annotations

from typing import NamedTuple

from .cocycle import CocycleFamily, GridFunction, PhaseSum, _Memo
from .errors import (
    DegreeMismatchError,
    NoSourcesRequiredError,
    NotApplicableError,
    NotInModuleFormError,
    OffGridError,
    WindowExceededError,
)
from .kgraph import Path, deg_le, deg_sub
from .report import Report, failing, passing
from .selfsim import ZSCategory


class Element:
    """A canonically ordered finite sum of spanning terms.

    ``terms`` maps (lam, g, mu) to a GridFunction coefficient; zero
    coefficients are dropped on construction.  Addition and scaling need no
    context; products, involution and level raising live on the model.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        self.terms = {key: f for key, f in terms.items() if not f.is_zero()}

    def __add__(self, other):
        self._check(other)
        merged = dict(self.terms)
        for key, f in other.terms.items():
            merged[key] = merged[key] + f if key in merged else f
        return Element(self.model, merged)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._check(other)
        return self.model.mul(self, other)

    def star(self):
        return self.model.involution(self)

    def scale(self, q):
        return Element(self.model, {k: f.scale(q) for k, f in self.terms.items()})

    def scale_fn(self, fn: GridFunction):
        """Multiply every coefficient by a grid function (central action)."""
        return Element(self.model, {k: f * fn for k, f in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def same_as(self, other):
        self._check(other)
        keys = set(self.terms) | set(other.terms)
        zero = GridFunction.zero(self.model.m)
        return all(self.terms.get(k, zero).same_as(other.terms.get(k, zero)) for k in keys)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self.model.term_key(kv[0]))

    def to_json(self):
        """Canonical term list with complex coefficient samples."""
        out = []
        for (lam, g, mu), f in self.sorted_terms():
            out.append(
                {
                    "path": list(lam.edges) or [f"@{lam.rng}"],
                    "tail": str(g),
                    "adjoint_path": list(mu.edges) or [f"@{mu.rng}"],
                    "coefficient": [
                        {"re": z.real, "im": z.imag} for z in f.values()
                    ],
                }
            )
        return out

    def _check(self, other):
        if other.model is not self.model:
            raise NotApplicableError("elements belong to different algebra models")

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = [
            f"z({f!r}) S[{lam!r}] S[{g!r}] S*[{mu!r}]"
            for (lam, g, mu), f in self.sorted_terms()
        ]
        return " + ".join(bits)


class _Reduced(NamedTuple):
    """One common extension xi = m1 alpha = l2 beta of a term-pair core
    (g1, m1, l2, g2), reduced.  ``twist`` is the sum of the nine twist
    exponents that read neither l1 nor m2; alpha' = g1 |> alpha and
    beta' = g2^-1 |> beta, with h = g2^-1 <| beta, are the moved cofactors,
    and ``tail`` is the merged tail (g1 <| alpha) h^-1."""

    twist: object
    moved_alpha: Path
    moved_beta: Path
    alpha_id: int  # the product id of alpha'
    beta_id: int  # the product id of beta'
    tail: object
    # for the audit transcript
    xi: Path
    alpha: Path
    beta: Path
    residual_tail: object  # g1 <| alpha
    pushed_tail: object  # h


class AlgebraModel:
    """The covariant algebra of a product category twisted by a sampled
    cocycle family: level raising is one of its rewrites."""

    def __init__(self, zs: ZSCategory, family: CocycleFamily, level_bound):
        if not zs.is_groupoid_tailed():
            raise NotApplicableError("the normal-form model needs a groupoid tail")
        self.zs = zs
        self.D = zs.D
        self.G = zs.C
        self.pair = zs.pair
        self.family = family
        # the family's id table of exponents, read as q[i][j] on the product
        # ids of paths and of tails
        self._q = family.exponents(zs)
        self._path_ids = _Memo(lambda p: zs.id_of(zs.from_path(p)))
        self._tail_ids = _Memo(lambda g: zs.id_of(zs.from_tail(g)))
        self.m = family.m
        self.level_bound = tuple(level_bound)
        self._fiber_cache = {}
        # the reduced term-pair cores (_reduce); fiber models share them
        self._cores = {}
        self._no_sources = all(
            self.D.edges_at.get((v, i))
            for v in self.D.vertices
            for i in range(1, self.D.k + 1)
        )

    # -- constructors

    def zero(self):
        return Element(self, {})

    def term(self, f: GridFunction, lam: Path, g, mu: Path) -> Element:
        if self.G.r(g) != self.D.s(lam) or self.D.s(mu) != self.G.s(g):
            raise NotApplicableError(f"term endpoints broken: ({lam}, {g}, {mu})")
        if f.m != self.m:
            raise OffGridError(f"coefficient grid {f.m} != model grid {self.m}")
        return Element(self, {(lam, g, mu): f})

    def one_fn(self):
        return GridFunction.one(self.m)

    def vertex(self, v) -> Element:
        p = self.D.identity(v)
        return self.term(self.one_fn(), p, self.G.identity(v), p)

    def path_gen(self, lam: Path) -> Element:
        u = self.G.identity(self.D.s(lam))
        return self.term(self.one_fn(), lam, u, self.D.identity(self.D.s(lam)))

    def tail_gen(self, g) -> Element:
        v = self.G.r(g)
        return self.term(self.one_fn(), self.D.identity(v), g, self.D.identity(self.G.s(g)))

    def range_projection(self, lam: Path) -> Element:
        """S_lam S_lam*."""
        return self.term(self.one_fn(), lam, self.G.identity(self.D.s(lam)), lam)

    def term_key(self, key):
        lam, g, mu = key
        return (self.D.sort_key(lam), self.G.sort_key(g), self.D.sort_key(mu))

    # -- the product

    def mul(self, x: Element, y: Element) -> Element:
        out = {}
        for key, f in self._term_products(x.terms.items(), y.terms.items()):
            out[key] = out[key] + f if key in out else f
        return Element(self, out)

    def _term_products(self, xterms, yterms, audit=None):
        """All reduced terms of (z(f1) S_l1 S_g1 S_m1*)(z(f2) S_l2 S_g2 S_m2*)
        over every pair of terms drawn from the two term lists.

        A term pair's core is (g1, m1, l2, g2).  ``_reduce`` reduces it once
        into one record (``_Reduced``) per common extension, holding the
        twist exponents that read neither l1 nor m2, summed, the moved
        cofactors alpha' and beta', the merged tail and the audit data; the
        model and its fiber models share the records.  A term pair adds
        q(l1, alpha') - q(m2, beta') from the family's id table to each
        record's sum and composes l1 alpha' and m2 beta'.

        When ``audit`` is a list, one record per term pair and common
        extension is appended to it, with the data every coefficient factor
        came from.
        """
        q, phases = self._q, self.family.phases
        pid, D = self._path_ids, self.D
        for (l1, g1, m1), f1 in xterms:
            left = q[pid[l1]]
            for (l2, g2, m2), f2 in yterms:
                if D.r(m1) != D.r(l2):
                    continue
                records = self._reduce(g1, m1, l2, g2)
                if not records:
                    continue
                base = f1 * f2
                right = q[pid[m2]]
                for rec in records:
                    tw = rec.twist + left[rec.alpha_id] - right[rec.beta_id]
                    key = (
                        D.compose(l1, rec.moved_alpha),
                        rec.tail,
                        D.compose(m2, rec.moved_beta),
                    )
                    if audit is not None:
                        audit.append(
                            {
                                "left_term": [str(l1), str(g1), str(m1)],
                                "right_term": [str(l2), str(g2), str(m2)],
                                "common_extension": str(rec.xi),
                                "alpha": str(rec.alpha),
                                "beta": str(rec.beta),
                                "moved_alpha": str(rec.moved_alpha),
                                "residual_tail": str(rec.residual_tail),
                                "inverse_push": [str(rec.moved_beta), str(rec.pushed_tail)],
                                "result": [str(part) for part in key],
                            }
                        )
                    yield key, base.times_phases(phases(tw))

    def _reduce(self, g1, m1, l2, g2):
        """The records of the core (g1, m1, l2, g2), for m1 and l2 of one
        range: one per common extension xi = m1 alpha = l2 beta, kept by
        (g1, id of m1, id of l2, g2) on the first ask.  A core whose
        extensions leave the level bound raises WindowExceededError on every
        ask and keeps nothing."""
        D = self.D
        core = (g1, D.id_of(m1), D.id_of(l2), g2)
        records = self._cores.get(core)
        if records is not None:
            return records
        bound = self.level_bound
        join = tuple(max(a, b) for a, b in zip(m1.degree, l2.degree))
        if not deg_le(join, bound):
            raise WindowExceededError(f"needed extension degree {join} exceeds window {bound}")
        q, pid, tid = self._q, self._path_ids, self._tail_ids
        g2inv = self.G.inverse(g2)
        records = []
        extensions, _ = D.meet(m1, l2, bound)
        for xi in extensions:
            # the cofactors xi = m1 alpha = l2 beta
            alpha = D.divisors_into(m1, xi, bound)[0]
            beta = D.divisors_into(l2, xi, bound)[0]
            a_moved, g1_res = self.pair.extend(g1, alpha)
            b_moved, h = self.pair.extend(g2inv, beta)
            hinv = self.G.inverse(h)
            # adjoint-sandwich expansion over the common extension, then push
            # g1 through alpha; convert S_beta* S_g2 via the inverse tail and
            # merge the tails.  q(l1, alpha') and q(m2, beta') are the term
            # pair's own.
            twist = (
                -q[pid[m1]][pid[alpha]]
                + q[pid[l2]][pid[beta]]
                + q[tid[g1]][pid[alpha]]
                - q[pid[a_moved]][tid[g1_res]]
                + q[tid[g2inv]][tid[g2]]
                - q[tid[g2inv]][pid[beta]]
                + q[pid[b_moved]][tid[h]]
                - q[tid[h]][tid[hinv]]
                + q[tid[g1_res]][tid[hinv]]
            )
            records.append(
                _Reduced(
                    twist, a_moved, b_moved, pid[a_moved], pid[b_moved],
                    self.G.compose(g1_res, hinv), xi, alpha, beta, g1_res, h,
                )
            )
        records = self._cores[core] = tuple(records)
        return records

    def explain_product(self, x: Element, y: Element):
        """Audit transcript of the reduction: one record per term pair and
        common extension, with the data every coefficient factor came from."""
        records = []
        list(self._term_products(x.sorted_terms(), y.sorted_terms(), audit=records))
        return records

    # -- involution

    def involution(self, x: Element) -> Element:
        out = {}
        for (lam, g, mu), f in x.terms.items():
            ginv = self.G.inverse(g)
            tw = -self._q[self._tail_ids[g]][self._tail_ids[ginv]]
            coeff = f.conj().times_phases(self.family.phases(tw))
            key = (mu, ginv, lam)
            out[key] = out[key] + coeff if key in out else coeff
        return Element(self, out)

    # -- level raising

    def level_raise(self, x: Element, n) -> Element:
        """Rewrite every term so its first path has degree exactly n."""
        n = tuple(n)
        if not self._no_sources:
            raise NoSourcesRequiredError("level raising needs no sources on the window")
        if not deg_le(n, self.level_bound):
            raise WindowExceededError(f"level {n} exceeds window {self.level_bound}")
        q, pid, tid = self._q, self._path_ids, self._tail_ids
        out = {}
        for (lam, g, mu), f in x.terms.items():
            if not deg_le(lam.degree, n):
                raise DegreeMismatchError(f"term path degree {lam.degree} above level {n}")
            gap = deg_sub(n, lam.degree)
            for alpha in self.D.paths(self.G.s(g), gap):
                a_moved, g_res = self.pair.extend(g, alpha)
                tw = (
                    q[pid[lam]][pid[a_moved]]
                    + q[tid[g]][pid[alpha]]
                    - q[pid[a_moved]][tid[g_res]]
                    - q[pid[mu]][pid[alpha]]
                )
                coeff = f.times_phases(self.family.phases(tw))
                key = (self.D.compose(lam, a_moved), g_res, self.D.compose(mu, alpha))
                out[key] = out[key] + coeff if key in out else coeff
        return Element(self, out)

    def equal_up_to_level(self, x: Element, y: Element, n) -> bool:
        """Sound equality in the covariant quotient: compare at a common level."""
        return self.level_raise(x, n).same_as(self.level_raise(y, n))

    # -- fibers

    def fiber_model(self, j) -> "AlgebraModel":
        self.family.check_grid_index(j)
        if j not in self._fiber_cache:
            fiber = self.family.cocycle_at(j)
            fm = self._fiber_cache[j] = AlgebraModel(self.zs, fiber, self.level_bound)
            # a record keeps form exponents, which no fiber changes
            fm._cores = self._cores
        return self._fiber_cache[j]

    def evaluate_fiber(self, x: Element, j) -> Element:
        """Evaluate every coefficient at grid point j (a one-point grid)."""
        fm = self.fiber_model(j)
        out = {}
        for key, f in x.terms.items():
            out[key] = GridFunction([f.at(j)])
        return Element(fm, out)

    # -- central grid action and vertex supports

    def vertex_support_identity(self, x: Element, vertices) -> Element:
        """(sum of S_v over the set) times x: keeps terms ranged in the set."""
        keep = set(vertices)
        total = self.zero()
        for v in keep:
            total = total + self.vertex(v) * x
        return total

    def vertex_filter(self, x: Element, vertices) -> Element:
        """The same sub-sum computed directly from term ranges."""
        keep = set(vertices)
        return Element(
            self, {k: f for k, f in x.terms.items() if self.D.r(k[0]) in keep}
        )


def random_element(model: AlgebraModel, rng, gen_degree=None):
    """A random two-term element with unit-phase grid coefficients (seeded,
    exact); the terms may coincide and add up."""
    D, G = model.D, model.G
    if gen_degree is None:
        gen_degree = (1,) * D.k
    pools = getattr(model, "_rand_pools", None)
    if pools is None or pools[0] != gen_degree:
        window = D.morphisms(gen_degree)
        by_source = {}
        for p in window:
            by_source.setdefault(p.src, []).append(p)
        tails = {v: [g for g in G.morphisms(None) if G.r(g) == v] for v in D.vertices}
        pools = (gen_degree, window, by_source, tails)
        model._rand_pools = pools
    _, window, by_source, tails = pools
    terms = {}
    for _ in range(2):
        lam = rng.choice(window)
        g = rng.choice(tails[D.s(lam)])
        mu = rng.choice(by_source[G.s(g)])
        coeff = GridFunction([PhaseSum.residue(rng.randrange(24), 24) for _ in range(model.m)])
        key = (lam, g, mu)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Element(model, terms)


# ---------------------------------------------------------------------------
# Hilbert-module pairing over the one-higher-color edge set


class ModuleVector:
    """A sum of S_e . a with e an edge of the split-off color, the last one,
    and a an element of the lower-color subalgebra."""

    def __init__(self, model: AlgebraModel, pairs):
        from .kgraph import deg_unit

        self.model = model
        k = model.D.k
        self.pairs = []
        for edge_path, a in pairs:
            if edge_path.degree != deg_unit(k, k):
                raise NotInModuleFormError(f"{edge_path!r} is not a split-color edge")
            for (lam, g, mu) in a.terms:
                if lam.degree[k - 1] or mu.degree[k - 1]:
                    raise NotInModuleFormError(
                        f"coefficient term ({lam}, {g}, {mu}) leaves the subalgebra"
                    )
            self.pairs.append((edge_path, a))

    def rmul(self, b: Element) -> "ModuleVector":
        return ModuleVector(self.model, [(e, a * b) for e, a in self.pairs])


def correspondence_pair(xi: ModuleVector, eta: ModuleVector) -> Element:
    """<xi | eta> = sum over matching edges of a* S_{s(e)} b, sesquilinear."""
    model = xi.model
    out = model.zero()
    for e, a in xi.pairs:
        for f, b in eta.pairs:
            if e != f:
                continue
            out = out + a.star() * model.vertex(model.D.s(e)) * b
    return out


# ---------------------------------------------------------------------------
# corner decomposition for tail-only algebras (rank-0 path part)


def corner_decomposition(model: AlgebraModel, transversal) -> Report:
    """Off-diagonal corners vanish and diagonal corners are isotropy-spanned.

    Requires a rank-0 path part, so elements are sums of z(f) S_g.  Checks
    exhaustively over the groupoid: S_x S_g S_y = 0 for distinct transversal
    units x != y, and each corner is closed under products with keys in the
    isotropy group.
    """
    if model.D.k != 0:
        raise NotApplicableError("corner decomposition needs a rank-0 path part")
    G = model.G
    X = list(transversal)
    for x in X:
        for y in X:
            if x == y:
                continue
            for g in G.morphisms(None):
                prod = model.vertex(x) * model.tail_gen(g) * model.vertex(y)
                if not prod.is_zero():
                    return failing("corner_decomposition", witness=("off_diagonal", x, g, y))
    for x in X:
        iso = {g for g in G.morphisms(None) if G.r(g) == x and G.s(g) == x}
        corner = [model.vertex(x) * model.tail_gen(g) * model.vertex(x) for g in G.morphisms(None)]
        corner = [c for c in corner if not c.is_zero()]
        for c in corner:
            for key in c.terms:
                if key[1] not in iso:
                    return failing("corner_decomposition", witness=("not_isotropy", x, key))
        for c1 in corner:
            for c2 in corner:
                prod = c1 * c2
                for key in prod.terms:
                    if key[1] not in iso:
                        return failing(
                            "corner_decomposition", witness=("corner_not_closed", x, key)
                        )
    return passing("corner_decomposition", transversal=list(X))
