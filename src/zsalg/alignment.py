"""Finite alignment, exhaustive sets, and concordance of inclusions.

Ideal intersections c1 C  n  c2 C are represented by a finite independent
generating set F.  Each category answers divisibility and meet questions
through its own SmallCategory methods, so the method is the category's:
minimal common extensions for path categories ("MCE"), path-part lifting for
products with groupoid tails ("ZS-path-lift"; the tail never changes a
principal ideal), and the bounded brute-force default with minimality
reduction otherwise ("brute").  Every answer is certified only within its
stated bound and says so.

Concordance of a subcategory asks more than agreeing intersections: every
ambient factorization of a common extension must route through the internal
generating set.  The builtin counterexample reproduces the product of N with
the free monoid on two letters, whose free-monoid part is finitely aligned
but NOT concordant: a.(1,e) = b.(1,e) = (1,a) while a and b have no common
extension internally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .categories import (
    SmallCategory,
    check_left_cancellative,
    invertibles,
    principal_ideal,
    size_fits,
)
from .errors import CombinatorialBlowupError, NotIndependentError
from .kgraph import KGraph
from .report import Report, failing, passing
from .selfsim import ZSCategory
from . import fixtures


# ---------------------------------------------------------------------------
# divisibility and independence


def divisors_into(a, b, cat: SmallCategory, bound):
    """All x with a x = b, searching the window (at most one if cat is
    left-cancellative)."""
    return cat.divisors_into(a, b, bound)


def divides(a, b, cat: SmallCategory, bound) -> bool:
    """b lies in the principal right ideal of a (window-certified)."""
    return cat.divides(a, b, bound)


def independent(A, cat: SmallCategory, bound) -> Report:
    """No member of A right-divides another."""
    A = list(A)
    for a, a2 in itertools.permutations(A, 2):
        if divides(a2, a, cat, bound):
            return failing("independent", witness=(a, a2), bound=bound)
    return passing("independent", bound=bound, size=len(A))


def equivalent_sets(A, B, cat: SmallCategory, bound) -> bool:
    """A ~ B: equal unions of principal ideals, element-matched.

    Both sets must be independent; then equality of the ideal unions within
    the window forces a bijection a -> b_a with a ~ b_a, which is checked.
    """
    A, B = list(A), list(B)
    if not independent(A, cat, bound) or not independent(B, cat, bound):
        raise NotIndependentError("equivalent_sets needs independent inputs")
    union_a = set()
    for a in A:
        union_a.update(principal_ideal(a, cat, bound))
    union_b = set()
    for b in B:
        union_b.update(principal_ideal(b, cat, bound))
    if union_a != union_b:
        return False
    if len(A) != len(B):
        return False
    for a in A:
        matches = [b for b in B if divides(b, a, cat, bound) and divides(a, b, cat, bound)]
        if len(matches) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# ideal meets


@dataclass
class IdealMeetResult:
    generators: tuple
    method: str
    bound: object = None

    def __iter__(self):
        return iter(self.generators)


def meet_ideal(c1, c2, cat: SmallCategory, bound) -> IdealMeetResult:
    """A finite independent set F with F C = c1 C  n  c2 C (within bound)."""
    generators, method = cat.meet(c1, c2, bound)
    return IdealMeetResult(generators, method, bound)


def check_exhaustive(F, v, cat: SmallCategory, bound) -> Report:
    """Every window morphism out of v has a common extension with some member."""
    F = list(F)
    for c in cat.morphisms_from(v, bound):
        if not any(cat.meets(c, a, bound) for a in F):
            return failing("exhaustive", witness=c, bound=bound)
    return passing("exhaustive", bound=bound, vertex=v, size=len(F))


# ---------------------------------------------------------------------------
# inclusions


class Subcategory:
    """A declared inclusion sub -> amb along an injective embedding map."""

    def __init__(self, sub: SmallCategory, amb: SmallCategory, embed):
        self.sub = sub
        self.amb = amb
        self.embed = embed


def path_inclusion(sub: KGraph, amb: KGraph) -> Subcategory:
    """Sub-k-graph inclusion: paths embed by their edge names."""

    def embed(p):
        return amb.nf(p.edges, rng=p.rng) if p.edges else amb.identity(p.rng)

    return Subcategory(sub, amb, embed)


def zs_inclusion(sub: ZSCategory, amb: ZSCategory) -> Subcategory:
    """Product-category inclusion over a shared tail groupoid."""
    inner = path_inclusion(sub.D, amb.D)

    def embed(m):
        return amb.intern(inner.embed(m.path), m.tail)

    return Subcategory(sub, amb, embed)


def check_concordant(inc: Subcategory, sub_bound, amb_bound) -> Report:
    """Concordance of the inclusion, exhaustively on the window.

    For each internal pair with intersecting ambient ideals, every ambient
    solution c1 x1 = c2 x2 must factor through the internal generating set F
    via a common y.  If the canonical F fails, up to 64 equivalent
    independent generating sets are tried before reporting failure, since
    the defining property only requires one good F to exist.
    """
    sub, amb, embed = inc.sub, inc.amb, inc.embed
    window = sub.morphisms(sub_bound)
    invs = invertibles(sub, sub_bound)
    checked_pairs = 0
    for c1, c2 in itertools.combinations_with_replacement(window, 2):
        if sub.r(c1) != sub.r(c2):
            continue
        e1, e2 = embed(c1), embed(c2)
        solutions = []
        for x1 in amb.morphisms_from(amb.s(e1), amb_bound):
            z = amb.compose(e1, x1)
            if not size_fits(amb.size(z), amb_bound):
                continue
            for x2 in divisors_into(e2, z, amb, amb_bound):
                solutions.append((x1, x2, z))
        if not solutions:
            continue
        checked_pairs += 1
        base = meet_ideal(c1, c2, sub, sub_bound)
        bad = _unrouted_solution(
            inc, c1, c2, solutions, base.generators, invs, sub_bound, amb_bound
        )
        if bad is not None:
            x1, x2 = bad
            return failing(
                "concordant",
                witness=(c1, c2, x1, x2),
                bound=(sub_bound, amb_bound),
                generators=list(base.generators),
            )
    return passing("concordant", bound=(sub_bound, amb_bound), pairs=checked_pairs)


def _unrouted_solution(inc, c1, c2, solutions, F, invs, sub_bound, amb_bound):
    """None when one candidate generating set routes every solution: the
    canonical F, else one of its alternatives, which are built only then.
    Otherwise the witness (x1, x2): the first solution no candidate routes,
    or the first solution when each routes through some candidate."""

    def routes(G, x1, x2):
        return _solution_routes(inc, c1, c2, x1, x2, G, sub_bound, amb_bound)

    if all(routes(F, x1, x2) for x1, x2, _z in solutions):
        return None
    alternatives = _alternative_generating_sets(F, invs, inc.sub)
    if any(all(routes(G, x1, x2) for x1, x2, _z in solutions) for G in alternatives):
        return None
    for x1, x2, _z in solutions:
        if not any(routes(G, x1, x2) for G in [F, *alternatives]):
            return x1, x2
    return solutions[0][0], solutions[0][1]


def _solution_routes(inc, c1, c2, x1, x2, F, sub_bound, amb_bound):
    sub, amb, embed = inc.sub, inc.amb, inc.embed
    for f in F:
        for a1 in divisors_into(c1, f, sub, sub_bound):
            for a2 in divisors_into(c2, f, sub, sub_bound):
                ea1, ea2 = embed(a1), embed(a2)
                for y in divisors_into(ea1, x1, amb, amb_bound):
                    if amb.compose(ea2, y) == x2:
                        return True
    return False


def _alternative_generating_sets(F, invs, cat):
    """Up to 64 equivalent independent generating sets, by swapping in
    ~-partners: F's members times the invertibles ``invs``."""
    if not F:
        return []
    variants = []
    for f in F:
        reps = {f}
        for u in invs:
            if cat.s(f) == cat.r(u):
                fu = cat.compose(f, u)
                if fu is not None:
                    reps.add(fu)
        variants.append(sorted(reps, key=cat.sort_key))
    out = []
    for combo in itertools.islice(itertools.product(*variants), 64):
        if tuple(combo) != tuple(F):
            out.append(tuple(combo))
    return out


def minimal_exhaustive_sets(v, cat: SmallCategory, bound, max_size=6, window_cap=200):
    """All minimal finite exhaustive independent subsets of vC on the window.

    Exhaustive sets are set covers (each candidate covers the window
    morphisms it meets); candidates are deduplicated up to equivalence since
    covering is an ideal-level property, and minimal covers are enumerated
    by always branching on the least uncovered morphism.
    """
    candidates = cat.morphisms_from(v, bound)
    if len(candidates) > window_cap:
        raise CombinatorialBlowupError(
            f"{len(candidates)} window morphisms at {v} exceeds cap {window_cap}"
        )
    cover_of = {}
    for a in candidates:
        cov = frozenset(
            i for i, c in enumerate(candidates) if cat.meets(c, a, bound)
        )
        if cov not in cover_of:
            cover_of[cov] = a
    reps = sorted(cover_of.items(), key=lambda kv: cat.sort_key(kv[1]))
    universe = frozenset(range(len(candidates)))
    found = []

    def search(chosen, covered):
        if len(chosen) > max_size:
            return
        if covered == universe:
            for skip in range(len(chosen)):
                rest = frozenset().union(
                    *(cov for j, (cov, _) in enumerate(chosen) if j != skip)
                )
                if rest == universe:
                    return  # not minimal
            fset = tuple(a for _, a in chosen)
            if independent([*fset], cat, bound):
                found.append(fset)
            return
        least = min(universe - covered)
        for cov, a in reps:
            if least not in cov:
                continue
            if any(a == b or divides(a, b, cat, bound) or divides(b, a, cat, bound)
                   for _, b in chosen):
                continue
            search(chosen + [(cov, a)], covered | cov)

    search([], frozenset())
    unique = []
    for f in found:
        key = frozenset(f)
        if key not in {frozenset(g) for g in unique}:
            unique.append(f)
    return unique


def check_exhaustive_lifting(
    inc: Subcategory, sub_bound, amb_bound, max_size=6, window_cap=200
) -> Report:
    """Every minimal finite exhaustive set of the subcategory stays exhaustive
    in the ambient category."""
    sub, amb, embed = inc.sub, inc.amb, inc.embed
    tested = 0
    for v in sub.objects():
        for F in minimal_exhaustive_sets(v, sub, sub_bound, max_size, window_cap):
            tested += 1
            lifted = [embed(a) for a in F]
            rep = check_exhaustive(lifted, v, amb, amb_bound)
            if not rep:
                return failing(
                    "exhaustive_lifting",
                    witness={"vertex": v, "set": list(F), "ambient_witness": rep.witness},
                    bound=(sub_bound, amb_bound),
                )
    return passing("exhaustive_lifting", bound=(sub_bound, amb_bound), sets=tested)


# ---------------------------------------------------------------------------
# the builtin counterexample


def free_monoid_join(w, u):
    """w v u in the free monoid: defined when one word extends the other."""
    if w.startswith(u):
        return w
    if u.startswith(w):
        return u
    return None


def builtin_counterexample() -> dict:
    """Construct the counterexample monoid and verify everything about it.

    Returns a deterministic transcript: left cancellativity on the window of
    size 4, the two-branch ideal intersection formula checked against the
    brute-force oracle for all same-length prefixes of total size at most 3,
    and the failure of concordance for the free-monoid inclusion, with its
    witness.
    """
    size_bound, formula_size = 4, 3
    X = fixtures.x_monoid()
    transcript = {"bound": size_bound}
    lc = check_left_cancellative(X, size_bound)
    transcript["left_cancellative"] = lc.to_json()

    words = [""]
    for _ in range(formula_size):
        words = words + [w + x for w in words if len(w) < formula_size for x in "ab"]
    words = sorted(set(words), key=lambda w: (len(w), w))

    formula_checks = []
    all_match = True
    for n in range(formula_size + 1):
        for w in words:
            if n + len(w) > formula_size:
                continue
            for u in words:
                if n + len(u) > formula_size:
                    continue
                cw = fixtures.x_elem(X, n, w)
                cu = fixtures.x_elem(X, n, u)
                brute = meet_ideal(cw, cu, X, size_bound)
                join = free_monoid_join(w, u)
                predicted = [fixtures.x_elem(X, n + 1, "a" * max(len(w), len(u)))]
                if join is not None:
                    predicted.insert(0, fixtures.x_elem(X, n, join))
                # reduce the predicted generators to an independent set
                reduced = []
                for g in predicted:
                    if not any(divides(h, g, X, size_bound) for h in reduced):
                        reduced.append(g)
                match = equivalent_sets(
                    list(brute.generators), reduced, X, size_bound
                ) if brute.generators or reduced else True
                all_match = all_match and match
                formula_checks.append(
                    {
                        "pair": [f"{n}.{w or 'e'}", f"{n}.{u or 'e'}"],
                        "branch": "join" if join is not None else "disjoint",
                        "brute": [str(g) for g in brute.generators],
                        "formula": [str(g) for g in reduced],
                        "match": match,
                    }
                )
    transcript["ideal_formula"] = {
        "all_match": all_match,
        "cases": formula_checks,
        "branches_seen": sorted({c["branch"] for c in formula_checks}),
    }

    free = X.C
    inc = Subcategory(free, X, lambda w: fixtures.x_elem(X, 0, w))
    concordance = check_concordant(inc, formula_size, size_bound)
    transcript["concordant"] = concordance.to_json()
    transcript["finitely_aligned_within_bound"] = all_match
    return transcript
