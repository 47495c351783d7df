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
"""

from __future__ import annotations

from .cocycle import GridFunction, Homotopy, Phase
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
from .selfsim import ZSCategory, ZSMorphism


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


class AlgebraModel:
    """The algebra of a product category twisted by a sampled cocycle family.

    ``covariant`` selects between the Toeplitz-type model (no level
    rewrites) and the covariant one (level raising enabled); the distinction
    matters only for which rewrites are legal, the product is the same.
    """

    def __init__(self, zs: ZSCategory, family: Homotopy, level_bound, covariant=True):
        if not zs.is_groupoid_tailed():
            raise NotApplicableError("the normal-form model needs a groupoid tail")
        self.zs = zs
        self.D = zs.D
        self.G = zs.C
        self.pair = zs.pair
        self.family = family
        self.m = family.m
        self.level_bound = tuple(level_bound)
        self.covariant = covariant
        self._e_memo = {}
        self._expand_memo = {}
        self._scales = family.grid_scales()
        self._no_sources = all(
            self.D.edges_at.get((v, i))
            for v in self.D.vertices
            for i in range(1, self.D.k + 1)
        )

    # -- cocycle samples on product-category pairs
    #
    # The configured families (linear homotopies, constant cocycles) expose a
    # scalar additive exponent per pair, so coefficient twists accumulate as
    # one scalar and expand to grid phases once per emitted term.

    def _e(self, x: ZSMorphism, y: ZSMorphism):
        memo = self._e_memo
        key = (x, y)
        out = memo.get(key)
        if out is None:
            out = self.family.exponent(x, y)
            memo[key] = out
        return out

    def _expand(self, exponent):
        memo = self._expand_memo
        out = memo.get(exponent)
        if out is None:
            out = tuple(Phase(s * exponent) for s in self._scales)
            memo[exponent] = out
        return out

    def _zs_path(self, p: Path) -> ZSMorphism:
        return self.zs.from_path(p)

    def _zs_tail(self, g) -> ZSMorphism:
        return self.zs.from_tail(g)

    def e_pp(self, p, q):
        return self._e(self._zs_path(p), self._zs_path(q))

    def e_pt(self, p, g):
        return self._e(self._zs_path(p), self._zs_tail(g))

    def e_tp(self, g, p):
        return self._e(self._zs_tail(g), self._zs_path(p))

    def e_tt(self, g, h):
        return self._e(self._zs_tail(g), self._zs_tail(h))

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

        When ``audit`` is a list, one record per term pair and common
        extension is appended to it, with the data every coefficient factor
        came from.
        """
        for (l1, g1, m1), f1 in xterms:
            for (l2, g2, m2), f2 in yterms:
                if self.D.r(m1) != self.D.r(l2):
                    continue
                join = tuple(max(a, b) for a, b in zip(m1.degree, l2.degree))
                if not deg_le(join, self.level_bound):
                    raise WindowExceededError(
                        f"needed extension degree {join} exceeds window {self.level_bound}"
                    )
                g2inv = self.G.inverse(g2)
                base = f1 * f2
                for xi in self.D.mce(m1, l2):
                    alpha = self.D.factorize(xi, m1.degree, deg_sub(xi.degree, m1.degree))[1]
                    beta = self.D.factorize(xi, l2.degree, deg_sub(xi.degree, l2.degree))[1]
                    a_moved, g1_res = self.pair.extend(g1, alpha)
                    b_moved, h = self.pair.extend(g2inv, beta)
                    hinv = self.G.inverse(h)
                    # adjoint-sandwich expansion over the common extension,
                    # then push g1 through alpha and absorb into l1
                    tw = (
                        -self.e_pp(m1, alpha)
                        + self.e_pp(l2, beta)
                        + self.e_tp(g1, alpha)
                        - self.e_pt(a_moved, g1_res)
                        + self.e_pp(l1, a_moved)
                    )
                    # convert S_beta* S_g2 via the inverse tail, merge the
                    # tails and the adjoint-side paths
                    tw = (
                        tw
                        + self.e_tt(g2inv, g2)
                        - self.e_tp(g2inv, beta)
                        + self.e_pt(b_moved, h)
                        - self.e_tt(h, hinv)
                        + self.e_tt(g1_res, hinv)
                        - self.e_pp(m2, b_moved)
                    )
                    key = (
                        self.D.compose(l1, a_moved),
                        self.G.compose(g1_res, hinv),
                        self.D.compose(m2, b_moved),
                    )
                    if audit is not None:
                        audit.append(
                            {
                                "left_term": [str(l1), str(g1), str(m1)],
                                "right_term": [str(l2), str(g2), str(m2)],
                                "common_extension": str(xi),
                                "alpha": str(alpha),
                                "beta": str(beta),
                                "moved_alpha": str(a_moved),
                                "residual_tail": str(g1_res),
                                "inverse_push": [str(b_moved), str(h)],
                                "result": [str(part) for part in key],
                            }
                        )
                    yield key, base.times_phases(self._expand(tw))

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
            coeff = f.conj().times_phases(self._expand(-self.e_tt(g, ginv)))
            key = (mu, ginv, lam)
            out[key] = out[key] + coeff if key in out else coeff
        return Element(self, out)

    # -- level raising (covariant model only)

    def level_raise(self, x: Element, n) -> Element:
        """Rewrite every term so its first path has degree exactly n."""
        n = tuple(n)
        if not self.covariant:
            raise NotApplicableError("level raising is a covariant-model rewrite")
        if not self._no_sources:
            raise NoSourcesRequiredError("level raising needs no sources on the window")
        if not deg_le(n, self.level_bound):
            raise WindowExceededError(f"level {n} exceeds window {self.level_bound}")
        out = {}
        for (lam, g, mu), f in x.terms.items():
            if not deg_le(lam.degree, n):
                raise DegreeMismatchError(f"term path degree {lam.degree} above level {n}")
            gap = deg_sub(n, lam.degree)
            for alpha in self.D.paths(self.G.s(g), gap):
                a_moved, g_res = self.pair.extend(g, alpha)
                tw = (
                    self.e_pp(lam, a_moved)
                    + self.e_tp(g, alpha)
                    - self.e_pt(a_moved, g_res)
                    - self.e_pp(mu, alpha)
                )
                coeff = f.times_phases(self._expand(tw))
                key = (self.D.compose(lam, a_moved), g_res, self.D.compose(mu, alpha))
                out[key] = out[key] + coeff if key in out else coeff
        return Element(self, out)

    def equal_up_to_level(self, x: Element, y: Element, n) -> bool:
        """Sound equality in the covariant quotient: compare at a common level."""
        return self.level_raise(x, n).same_as(self.level_raise(y, n))

    # -- fibers

    def fiber_model(self, j) -> "AlgebraModel":
        from .cocycle import ConstantHomotopy

        if not isinstance(j, int) or not 0 <= j < self.m:
            raise OffGridError(f"grid index {j} outside 0..{self.m - 1}")
        cached = getattr(self, "_fiber_cache", None)
        if cached is None:
            cached = {}
            self._fiber_cache = cached
        if j not in cached:
            cached[j] = AlgebraModel(
                self.zs,
                ConstantHomotopy(self.family.cocycle_at(j), m=1),
                self.level_bound,
                self.covariant,
            )
        return cached[j]

    def evaluate_fiber(self, x: Element, j) -> Element:
        """Evaluate every coefficient at grid point j (a one-point grid)."""
        fm = self.fiber_model(j)
        out = {}
        for key, f in x.terms.items():
            out[key] = GridFunction([f.at(j)])
        return Element(fm, out)

    # -- central grid action and vertex supports

    def zhat_apply(self, fn: GridFunction, x: Element) -> Element:
        return x.scale_fn(fn)

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
    from fractions import Fraction

    from .cocycle import Phase

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
        coeff = GridFunction.from_phases(
            [Phase(Fraction(rng.randrange(24), 24)) for _ in range(model.m)]
        )
        key = (lam, g, mu)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Element(model, terms)


# ---------------------------------------------------------------------------
# Hilbert-module pairing over the one-higher-color edge set


class ModuleVector:
    """A sum of S_e . a with e an edge of the split-off color and a an
    element of the lower-color subalgebra."""

    def __init__(self, model: AlgebraModel, pairs, split_color=None):
        from .kgraph import deg_unit

        self.model = model
        self.split_color = split_color or model.D.k
        self.pairs = []
        for edge_path, a in pairs:
            if edge_path.degree != deg_unit(model.D.k, self.split_color):
                raise NotInModuleFormError(f"{edge_path!r} is not a split-color edge")
            for (lam, g, mu) in a.terms:
                if lam.degree[self.split_color - 1] or mu.degree[self.split_color - 1]:
                    raise NotInModuleFormError(
                        f"coefficient term ({lam}, {g}, {mu}) leaves the subalgebra"
                    )
            self.pairs.append((edge_path, a))

    def rmul(self, b: Element) -> "ModuleVector":
        return ModuleVector(
            self.model, [(e, a * b) for e, a in self.pairs], self.split_color
        )


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
