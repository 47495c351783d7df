"""The acceptance suite: eleven numbered criteria over builtin fixtures.

Each criterion function returns a dict with a verdict, its runtime and the
evidence that matters for auditing (bounds, counts, worst residuals).  The
suite is deterministic for a fixed seed; pytest wraps these functions one
test per criterion, and the command-line ``all`` command prints one line
per criterion.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import fixtures
from .alignment import (
    builtin_counterexample,
    check_concordant,
    check_exhaustive_lifting,
    minimal_exhaustive_sets,
    path_inclusion,
    zs_inclusion,
)
from .cocycle import (
    Cocycle,
    ConstantHomotopy,
    LinearHomotopy,
    RotationForm,
    TableForm,
    linear_homotopy,
    trivial_cocycle,
    verify_cocycle,
    verify_homotopy,
)
from .groupoid import check_transversal
from .kgraph import deg_le, deg_splits, sub_kgraph, validate_kgraph
from .matrixrep import (
    PASS_TOL,
    TruncatedRep,
    build_grid_reps,
    check_product_agreement,
    check_relations,
    nan_max,
)
from .normalform import (
    AlgebraModel,
    ModuleVector,
    corner_decomposition,
    correspondence_pair,
    random_element,
)
from .selfsim import (
    ActionTable,
    MatchedPair,
    ZSCategory,
    check_self_similar,
    restrict_pair,
    verify_matched_pair,
)


def _result(name, passed, t0, **details):
    return {
        "criterion": name,
        "passed": bool(passed),
        "runtime_s": round(time.perf_counter() - t0, 3),
        "details": details,
    }


def criterion_1_counterexample(seed=0):
    """Counterexample monoid: cancellative, aligned, ideal formula, and the
    non-concordance witness a.(1,e) = b.(1,e) = (1,a)."""
    t0 = time.perf_counter()
    tr = builtin_counterexample()
    witness = tr["concordant"].get("witness")
    ok = (
        tr["left_cancellative"]["passed"]
        and tr["ideal_formula"]["all_match"]
        and set(tr["ideal_formula"]["branches_seen"]) == {"join", "disjoint"}
        and not tr["concordant"]["passed"]
        and witness == ["a", "b", "(1|'')", "(1|'')"]
    )
    runtime = time.perf_counter() - t0
    return _result(
        "1 counterexample reproduction",
        ok and runtime < 5.0,
        t0,
        formula_cases=len(tr["ideal_formula"]["cases"]),
        witness=witness,
        bound=tr["bound"],
    )


def criterion_2_mce_oracle(seed=0):
    """Randomized k-graphs: the prefix-test MCE equals the double-extension
    oracle on every checked pair, exactly, on 20 graphs with at most 30,000
    same-range pairs each."""
    t0 = time.perf_counter()
    graphs, pair_budget = 20, 30000
    checked_graphs = 0
    checked_pairs = 0
    mismatches = 0
    seeds_used = []
    seed_iter = itertools.count(seed)
    while checked_graphs < graphs:
        s = next(seed_iter)
        graph = fixtures.random_kgraph(s)
        seeds_used.append(s)
        cap = (3,) * graph.k
        pairs = _same_range_pairs(graph, cap, pair_budget)
        while pairs is None and any(c > 1 for c in cap):
            cap = tuple(max(c - 1, 1) for c in cap)
            pairs = _same_range_pairs(graph, cap, pair_budget)
        if pairs is None:
            continue
        for mu, nu in pairs:
            if set(graph.mce(mu, nu)) != set(graph.mce_oracle(mu, nu)):
                mismatches += 1
        checked_pairs += len(pairs)
        # a few cross-range pairs: both sides must agree on emptiness
        verts = list(graph.vertices)
        if len(verts) > 1:
            ps = graph.morphisms((1,) * graph.k)
            for mu in ps[:5]:
                for nu in ps[:5]:
                    if mu.rng != nu.rng:
                        checked_pairs += 1
                        if graph.mce(mu, nu) != () or graph.mce_oracle(mu, nu) != ():
                            mismatches += 1
        checked_graphs += 1
    return _result(
        "2 MCE oracle equivalence",
        mismatches == 0 and checked_graphs >= graphs,
        t0,
        graphs=checked_graphs,
        pairs=checked_pairs,
        mismatches=mismatches,
        seeds=seeds_used,
    )


def _same_range_pairs(graph, cap, budget):
    per_vertex = {}
    total = 0
    for v in graph.vertices:
        window = graph.morphisms_from(v, cap)
        per_vertex[v] = window
        total += len(window) ** 2
        if total > budget:
            return None
    pairs = []
    for v, window in sorted(per_vertex.items()):
        for mu in window:
            for nu in window:
                if deg_le(tuple(max(a, b) for a, b in zip(mu.degree, nu.degree)), cap):
                    pairs.append((mu, nu))
    return pairs


def criterion_3_le_laws(seed=0):
    """Window-restricted path laws on every locally convex fixture, sources
    included; the non-convex control must break the product law."""
    t0 = time.perf_counter()
    convex = {
        "one_square": fixtures.kgraph_k1((2, 2)),
        "with_source_2graph": fixtures.kgraph_convex_with_source((2, 2)),
        "with_source_1graph": fixtures.kgraph_source_1graph((2,)),
    }
    failures = []
    for name, graph in convex.items():
        bound = (2,) * graph.k
        if not _le_product_law(graph, bound):
            failures.append((name, "le_product"))
        if not _le_rigidity(graph, bound):
            failures.append((name, "le_rigidity"))
    control = fixtures.kgraph_not_locally_convex((1, 1))
    control_breaks = not _le_product_law(control, (1, 1))
    return _result(
        "3 le-path laws on locally convex fixtures",
        not failures and control_breaks,
        t0,
        fixtures=sorted(convex),
        failures=failures,
        non_convex_control_breaks_law=control_breaks,
    )


def _le_product_law(graph, bound):
    for total, _ in deg_splits(bound):
        for m, n in deg_splits(total):
            lhs = {p for v in graph.vertices for p in graph.le_paths(v, total)}
            rhs = set()
            for v in graph.vertices:
                for p in graph.le_paths(v, m):
                    for q in graph.le_paths(p.src, n):
                        rhs.add(graph.compose(p, q))
            if lhs != rhs:
                return False
    return True


def _le_rigidity(graph, bound):
    for n, _ in deg_splits(bound):
        for v in graph.vertices:
            les = graph.le_paths(v, n)
            for mu in les:
                for nu in les:
                    if graph.mce(mu, nu) and mu != nu:
                        return False
            window = [p for p in graph.morphisms_from(v, bound) if deg_le(p.degree, n)]
            for mu in window:
                for nu in les:
                    if graph.mce(mu, nu) and not graph.extends(nu, mu):
                        return False
    return True


def criterion_4_matched_pair(seed=0):
    """Flip action verifies; product composition is associative on the
    window; the broken restriction table is rejected at (g, g, a)."""
    t0 = time.perf_counter()
    swap = fixtures.swap_pair()
    ok_pair = verify_matched_pair(swap, (3,))
    ok_ss = check_self_similar(swap, (3,))
    zs = ZSCategory(swap)
    window = zs.morphisms((3,))
    assoc = next(zs.associativity_failures(window), None) is None
    bad = verify_matched_pair(fixtures.badswap_pair(), (2,))
    bad_witness = bad.witness
    expected = bad_witness is not None and tuple(map(str, bad_witness[1:])) == ("g", "g", "a")
    return _result(
        "4 matched pair and product suite",
        bool(ok_pair) and bool(ok_ss) and assoc and not bad.passed and expected,
        t0,
        window=len(window),
        badswap_witness=[str(w) for w in (bad_witness or ())],
    )


def criterion_5_cocycles(seed=0):
    """Rotation cocycles at three angles verify exactly; a perturbed table
    is rejected with a triple; all linear-homotopy fibers pass at M = 11."""
    t0 = time.perf_counter()
    k1 = fixtures.kgraph_k1((3, 3))
    all_ok = True
    for theta in (Fraction(0), Fraction(1, 4), Fraction(1, 3)):
        sigma = Cocycle(RotationForm([[0, 0], [theta, 0]]), name=f"rot({theta})")
        rep = verify_cocycle(sigma, k1, (2, 2))
        all_ok = all_ok and rep.passed
    e2 = fixtures.kgraph_e2()
    a, b = e2.paths("v", (1,))
    perturbed = Cocycle(TableForm({(a, b): Fraction(1, 10)}), name="perturbed")
    bad = verify_cocycle(perturbed, e2, (2,))
    hom = linear_homotopy(RotationForm([[0, 0], [Fraction(1, 4), 0]]), k1, (2, 2), m=11)
    fibers = verify_homotopy(hom, k1, (2, 2))
    return _result(
        "5 cocycle suite",
        all_ok and not bad.passed and bad.witness is not None and fibers.passed,
        t0,
        perturbed_witness=[str(w) for w in (bad.witness or ())],
        fibers=11,
    )


def _k1_models(theta):
    """The product of k1 with its trivial groupoid, and the rotation family
    of angle theta on an 11-point grid."""
    k1 = fixtures.kgraph_k1((3, 3))
    zs = ZSCategory(fixtures.trivial_pair(k1))
    if theta == 0:
        family = ConstantHomotopy(trivial_cocycle(), m=11)
    else:
        family = LinearHomotopy(RotationForm([[0, 0], [theta, 0]]), m=11)
    return zs, family


def criterion_6_relation_residuals(seed=0):
    """Truncated representations meet every relation family at its stated
    guard within 1e-12, for both twisted and untwisted fixtures."""
    t0 = time.perf_counter()
    worst = 0.0
    reps_checked = 0
    configs = []
    for theta in (Fraction(0), Fraction(1, 4)):
        zs, family = _k1_models(theta)
        configs.append((zs, family, (2, 2)))
    zs2 = ZSCategory(fixtures.swap_pair())
    configs.append((zs2, ConstantHomotopy(trivial_cocycle(), m=1), (2,)))
    all_ok = True
    for zs, family, bound in configs:
        exhaustive = []
        for v in zs.objects():
            for F in minimal_exhaustive_sets(v, zs, (1,) * zs.D.k, max_size=4, window_cap=60)[:4]:
                exhaustive.append((v, list(F)))
        for j in (0, family.m - 1) if family.m > 1 else (0,):
            rep = TruncatedRep(zs, family, bound, j)
            out = check_relations(rep, exhaustive_sets=exhaustive)
            reps_checked += 1
            all_ok = all_ok and out.passed
            for r in out.details["residuals"].values():
                worst = nan_max(worst, r)
    runtime = time.perf_counter() - t0
    return _result(
        "6 relation residuals",
        all_ok and worst <= PASS_TOL and runtime < 30,
        t0,
        reps=reps_checked,
        worst_residual=worst,
    )


def criterion_7_normal_form(seed=0):
    """Associativity and involution fuzz on 1000 triples; level raising
    reproduces the covariant vertex identity; the two models agree through
    representation."""
    t0 = time.perf_counter()
    triples = 1000
    rng = random.Random(seed)
    zs_rot, fam_rot = _k1_models(Fraction(1, 4))
    model_rot = AlgebraModel(zs_rot, fam_rot, (8, 8))
    zs_swap = ZSCategory(fixtures.swap_pair())
    model_swap = AlgebraModel(zs_swap, ConstantHomotopy(trivial_cocycle(), m=1), (8,))
    assoc_fail = invol_fail = 0
    for model in (model_rot, model_swap):
        for _ in range(triples):
            x = random_element(model, rng)
            y = random_element(model, rng)
            z = random_element(model, rng)
            if not ((x * y) * z).same_as(x * (y * z)):
                assoc_fail += 1
                break
        for _ in range(triples):
            x = random_element(model, rng)
            y = random_element(model, rng)
            if not (x * y).star().same_as(y.star() * x.star()):
                invol_fail += 1
                break
    ck_ok = True
    for model in (model_rot, model_swap):
        k = model.D.k
        for n, _ in deg_splits((2,) * k):
            for v in model.D.vertices:
                target = model.zero()
                for lam in model.D.paths(v, n):
                    target = target + model.range_projection(lam)
                if not model.equal_up_to_level(model.vertex(v), target, n):
                    ck_ok = False
    cross_worst = 0.0
    reps = build_grid_reps(zs_rot, fam_rot, (2, 2))
    for _ in range(30):
        x = random_element(model_rot, rng)
        y = random_element(model_rot, rng)
        for rep in reps:
            cross_worst = nan_max(cross_worst, check_product_agreement(rep, x, y))
    return _result(
        "7 normal-form engine",
        assoc_fail == 0 and invol_fail == 0 and ck_ok and cross_worst <= PASS_TOL,
        t0,
        triples=triples,
        cross_model_worst=cross_worst,
    )


def criterion_8_fibers(seed=0):
    """Fiber evaluation is multiplicative and star-preserving at all grid
    points, exactly, on 200 pairs; the zero fiber is the untwisted algebra."""
    t0 = time.perf_counter()
    pairs = 200
    rng = random.Random(seed)
    zs, fam = _k1_models(Fraction(1, 4))
    model = AlgebraModel(zs, fam, (8, 8))
    untwisted = AlgebraModel(zs, ConstantHomotopy(trivial_cocycle(), m=1), (8, 8))
    ok = True
    for _ in range(pairs):
        x = random_element(model, rng)
        y = random_element(model, rng)
        xy = x * y
        for j in range(model.m):
            fm_prod = model.evaluate_fiber(x, j) * model.evaluate_fiber(y, j)
            if not model.evaluate_fiber(xy, j).same_as(fm_prod):
                ok = False
            if not model.evaluate_fiber(x.star(), j).same_as(model.evaluate_fiber(x, j).star()):
                ok = False
        # fiber zero agrees with the untwisted model term by term
        x0 = _transport(model.evaluate_fiber(x, 0), untwisted)
        y0 = _transport(model.evaluate_fiber(y, 0), untwisted)
        xy0 = _transport(model.evaluate_fiber(xy, 0), untwisted)
        if not (x0 * y0).same_as(xy0):
            ok = False
    return _result("8 fiber evaluation", ok, t0, pairs=pairs, grid=model.m)


def _transport(x, target_model):
    from .normalform import Element

    return Element(target_model, dict(x.terms))


def criterion_9_concordance(seed=0):
    """The lower-color inclusion passes concordance and exhaustive-set
    lifting on both split fixtures, with bounds recorded."""
    t0 = time.perf_counter()
    k1 = fixtures.kgraph_k1((3, 3))
    gamma, grep = validate_kgraph(sub_kgraph(k1, [1]), (2,))
    inc1 = path_inclusion(gamma, k1)
    c1 = check_concordant(inc1, (2,), (2, 2))
    l1 = check_exhaustive_lifting(inc1, (2,), (2, 2))

    swap2 = fixtures.swap2_pair()
    amb = ZSCategory(swap2)
    gamma2, grep2 = validate_kgraph(sub_kgraph(swap2.acted, [1]), (2,))
    inc2 = zs_inclusion(ZSCategory(restrict_pair(swap2, gamma2)), amb)
    c2 = check_concordant(inc2, (2,), (2, 2))
    l2 = check_exhaustive_lifting(inc2, (2,), (2, 2))
    ok = grep.passed and grep2.passed and all(map(bool, (c1, l1, c2, l2)))
    return _result(
        "9 concordance and lifting",
        ok,
        t0,
        split_one_square={"concordant": c1.to_json(), "lifting": l1.to_json()},
        split_flip_2graph={"concordant": c2.to_json(), "lifting": l2.to_json()},
    )


def criterion_10_corners(seed=0):
    """Transversals meet each orbit once; corner structure of the tail-only
    algebra verifies exhaustively on both groupoid fixtures."""
    t0 = time.perf_counter()
    from .kgraph import KGraphPresentation

    results = []
    for gpd, units in (
        (fixtures.pair_groupoid_2(), ["u", "w"]),
        (fixtures.two_orbit_groupoid(), ["u", "w", "z"]),
    ):
        tv = check_transversal(gpd)
        zero_graph, zrep = validate_kgraph(KGraphPresentation(0, units, [], []), ())
        pair = MatchedPair(gpd, zero_graph, ActionTable())
        model = AlgebraModel(
            ZSCategory(pair), ConstantHomotopy(trivial_cocycle(), m=1), ()
        )
        X = gpd.transversal()[0]
        corner = corner_decomposition(model, X)
        results.append((tv, zrep, corner, X))
    ok = all(tv and z and c for tv, z, c, _ in results)
    return _result(
        "10 groupoid corner suite",
        ok,
        t0,
        transversals=[list(X) for *_, X in results],
    )


def criterion_11_correspondence(seed=0):
    """Hilbert-module pairing: conjugate symmetry, right-linearity on 200
    vector pairs, and the edge orthogonality rule, on both split fixtures."""
    t0 = time.perf_counter()
    vectors = 200
    rng = random.Random(seed)
    ok = True

    # one-square fixture, trivial tail: module edges are the color-2 edge
    zs_k1, fam = _k1_models(Fraction(1, 4))
    mk = AlgebraModel(zs_k1, fam, (6, 6))
    edges_k1 = [mk.D.nf((name,)) for name in mk.D.edges_by_color[2]]

    swap2 = fixtures.swap2_pair()
    m2 = AlgebraModel(
        ZSCategory(swap2), ConstantHomotopy(trivial_cocycle(), m=1), (6, 6)
    )
    edges_s2 = [m2.D.nf((name,)) for name in m2.D.edges_by_color[2]]

    for model, edges in ((mk, edges_k1), (m2, edges_s2)):
        for e in edges:
            for f in edges:
                xi = ModuleVector(model, [(e, model.vertex(model.D.s(e)))])
                eta = ModuleVector(model, [(f, model.vertex(model.D.s(f)))])
                got = correspondence_pair(xi, eta)
                want = model.vertex(model.D.s(e)) if e == f else model.zero()
                if not got.same_as(want):
                    ok = False

    def random_sub_element(model):
        return random_element(model, rng, gen_degree=(1, 0))

    count = 0
    while count < vectors:
        model, edges = (mk, edges_k1) if count % 2 == 0 else (m2, edges_s2)
        xi = ModuleVector(model, [(rng.choice(edges), random_sub_element(model))])
        eta = ModuleVector(model, [(rng.choice(edges), random_sub_element(model))])
        b = random_sub_element(model)
        inner = correspondence_pair(xi, eta)
        if not inner.star().same_as(correspondence_pair(eta, xi)):
            ok = False
        if not correspondence_pair(xi, eta.rmul(b)).same_as(inner * b):
            ok = False
        count += 1
    return _result("11 correspondence axioms", ok, t0, vectors=vectors)


CRITERIA = [
    criterion_1_counterexample,
    criterion_2_mce_oracle,
    criterion_3_le_laws,
    criterion_4_matched_pair,
    criterion_5_cocycles,
    criterion_6_relation_residuals,
    criterion_7_normal_form,
    criterion_8_fibers,
    criterion_9_concordance,
    criterion_10_corners,
    criterion_11_correspondence,
]


def run_all(seed=0):
    results = [fn(seed=seed) for fn in CRITERIA]
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in results),
        "criteria": results,
    }
