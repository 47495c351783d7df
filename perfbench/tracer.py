"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions listed in ``LAYERS`` with
timing wrappers: a method is patched on its class, and a module-level
function in every ``zsalg`` module that bound it by name (``acceptance`` and
``cli`` import ``check_relations``, ``fixtures`` imports ``validate_kgraph``,
and so on), so that calls made inside the program are seen as well.

Each wrapper aggregates calls and self time online (self time is the call's
duration minus the time covered by nested wrapped calls).  A full span (name,
start, end, parent span, verdict id) is kept only when the call crosses a
module boundary, that is when the nearest enclosing wrapped call belongs to
another module or there is none; the millions of ``nf``/``factorize`` calls
made inside ``kgraph`` are counted but not stored.  Spans live in compact
arrays and are written out once, when the run ends.

A few wrappers also feed layer counters (MCE yield, repeat shares, the share
of zero tests decided by the float tolerance, term pairs, matrix sizes,
worst residual).  The time those counters take is not charged to any span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter

#: module -> wrapped public functions, as ``name`` or ``Class.method``.
LAYERS = {
    "kgraph": [
        "validate_kgraph",
        "KGraph.nf",
        "KGraph.paths",
        "KGraph.compose",
        "KGraph.factorize",
        "KGraph.extends",
        "KGraph.mce",
        "KGraph.mce_oracle",
    ],
    "selfsim": [
        "MatchedPair.extend",
        "ZSCategory.compose",
        "ZSCategory.morphisms",
        "verify_matched_pair",
        "check_self_similar",
        "check_jointly_faithful",
    ],
    "groupoid": ["FiniteGroupoid.compose", "FiniteGroupoid.inverse", "validate_groupoid"],
    "categories": ["validate_category", "check_left_cancellative", "principal_ideal"],
    "alignment": [
        "divisors_into",
        "divides",
        "meet_ideal",
        "check_concordant",
        "check_exhaustive_lifting",
        "minimal_exhaustive_sets",
        "builtin_counterexample",
    ],
    "cocycle": [
        "PhaseSum.__mul__",
        "PhaseSum.__add__",
        "PhaseSum.is_zero",
        "GridFunction.__mul__",
        "GridFunction.times_phases",
        "GridFunction.same_as",
        "verify_cocycle",
        "verify_homotopy",
        "linear_homotopy",
    ],
    "normalform": [
        "AlgebraModel.mul",
        "AlgebraModel.involution",
        "Element.same_as",
    ],
    "matrixrep": [
        "TruncatedRep.matrix",
        "operator_norm",
        "join_projection",
        "check_relations",
        "check_homotopy_relations",
    ],
    "cli": ["main", "Workspace.__init__", "builtin_workspace"],
    "fixtures": ["random_kgraph"],
}

#: layer counters: name -> (unit, better)
EXTRA_METRICS = {
    "kgraph.mce.yield": ("ratio", "higher"),
    "kgraph.nf.repeat_share": ("ratio", "lower"),
    "selfsim.extend.repeat_share": ("ratio", "lower"),
    "cocycle.is_zero.float_share": ("ratio", "lower"),
    "normalform.term_pairs": ("count", "lower"),
    "normalform.terms_out": ("count", "lower"),
    "matrixrep.dim.max": ("count", "higher"),
    "matrixrep.norm_flops": ("flop_computed", "lower"),
    "matrixrep.worst_residual": ("norm", "lower"),
}

#: the counts that must repeat exactly across two traced runs at one seed
COUNT_METRICS = {
    "kgraph.mce.yield",
    "kgraph.nf.repeat_share",
    "selfsim.extend.repeat_share",
    "cocycle.is_zero.float_share",
    "normalform.term_pairs",
    "normalform.terms_out",
}


def function_names():
    return [f"{mod}.{qual}" for mod, quals in LAYERS.items() for qual in quals]


def per_layer_names():
    """Every per-layer metric name with its unit and direction, in report order."""
    out = []
    for name in function_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in EXTRA_METRICS.items())
    out.append(("trace.overhead_share", "ratio", "lower"))
    return out


class _Frame:
    __slots__ = ("module", "child", "span")

    def __init__(self, module, span):
        self.module = module
        self.child = 0.0
        self.span = span


class Tracer:
    """Wraps the ``LAYERS`` functions; holds their statistics and spans."""

    def __init__(self):
        self.stats = {}  # full name -> [calls, self seconds]
        self.stack = []
        self.verdict = -1
        self.span_names = []
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_verdict = array("i")
        self.counters = {
            "mce_found": 0,
            "mce_window": 0,
            "nf_calls": 0,
            "nf_repeats": 0,
            "extend_calls": 0,
            "extend_repeats": 0,
            "is_zero_calls": 0,
            "is_zero_float": 0,
            "term_pairs": 0,
            "terms_out": 0,
            "dim_max": 0,
            "norm_flops": 0,
            "worst_residual": 0.0,
        }
        # per-object argument sets for the repeat shares; the objects are kept
        # alive so that an id is never reused within one run
        self._nf_seen = {}
        self._extend_seen = {}

    # -- installation

    def install(self):
        for mod_name in LAYERS:
            importlib.import_module(f"zsalg.{mod_name}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zsalg"]
        hooks = self._hooks()
        for mod_name, quals in LAYERS.items():
            mod = sys.modules[f"zsalg.{mod_name}"]
            for qual in quals:
                full = f"{mod_name}.{qual}"
                before, after = hooks.get(full, (None, None))
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(full, mod_name, orig, before, after))
                else:
                    orig = getattr(mod, qual)
                    wrapper = self._wrap(full, mod_name, orig, before, after)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, key, wrapper)

    def _wrap(self, full, module, fn, before, after):
        stats = self.stats.setdefault(full, [0, 0.0])
        stack = self.stack
        name_id = len(self.span_names)
        self.span_names.append(full)
        sp_name, sp_start, sp_end = self.sp_name, self.sp_start, self.sp_end
        sp_parent, sp_verdict = self.sp_parent, self.sp_verdict
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if before is not None:
                t_hook = perf_counter()
                args = before(args, kwargs)
                if parent is not None:
                    parent.child += perf_counter() - t_hook
            if parent is None or parent.module != module:
                span = len(sp_start)
                sp_name.append(name_id)
                sp_parent.append(parent.span if parent is not None else -1)
                sp_verdict.append(tracer.verdict)
                sp_start.append(0.0)
                sp_end.append(0.0)
                frame = _Frame(module, span)
            else:
                span = -1
                frame = _Frame(module, parent.span)
            stack.append(frame)
            t0 = perf_counter()
            if span >= 0:
                sp_start[span] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                stats[0] += 1
                stats[1] += duration - frame.child
                if parent is not None:
                    parent.child += duration
                if span >= 0:
                    sp_end[span] = t1
            if after is not None:
                t_hook = perf_counter()
                after(args, kwargs, result)
                if parent is not None:
                    parent.child += perf_counter() - t_hook
            return result

        return wrapper

    # -- layer counters

    def _hooks(self):
        c = self.counters
        from zsalg import cocycle, kgraph

        paths = kgraph.KGraph.__dict__["paths"]
        tol_default = cocycle.TOL

        def nf_before(args, kwargs):
            graph, seq, *rest = args
            seq = tuple(seq)
            rng = rest[0] if len(rest) > 0 else kwargs.get("rng")
            src = rest[1] if len(rest) > 1 else kwargs.get("src")
            seen = self._nf_seen.setdefault(id(graph), (graph, set()))[1]
            key = (seq, rng, src)
            c["nf_calls"] += 1
            if key in seen:
                c["nf_repeats"] += 1
            else:
                seen.add(key)
            return (graph, seq, *rest)

        def extend_before(args, kwargs):
            pair, cc, d = args
            seen = self._extend_seen.setdefault(id(pair), (pair, set()))[1]
            c["extend_calls"] += 1
            if (cc, d) in seen:
                c["extend_repeats"] += 1
            else:
                seen.add((cc, d))
            return args

        def mce_after(args, kwargs, result):
            graph, mu, nu = args
            c["mce_found"] += len(result)
            if mu.rng == nu.rng:
                join = tuple(max(a, b) for a, b in zip(mu.degree, nu.degree))
                c["mce_window"] += len(paths(graph, mu.rng, join))

        def is_zero_before(args, kwargs):
            ps = args[0]
            tol = args[1] if len(args) > 1 else kwargs.get("tol", tol_default)
            c["is_zero_calls"] += 1
            # mirrors PhaseSum.is_zero: only an empty exact part with a
            # remainder inside the tolerance is decided without the float test
            if ps.terms or abs(ps.rem) > tol:
                c["is_zero_float"] += 1
            return args

        def mul_after(args, kwargs, result):
            _model, x, y = args
            c["term_pairs"] += len(x.terms) * len(y.terms)
            c["terms_out"] += len(result.terms)

        def matrix_before(args, kwargs):
            c["dim_max"] = max(c["dim_max"], args[0].dim)
            return args

        def norm_before(args, kwargs):
            shape = getattr(args[0], "shape", ())
            if shape:
                c["norm_flops"] += max(shape) ** 3
            return args

        def relations_after(args, kwargs, report):
            residuals = report.details.get("residuals") or {}
            if residuals:
                c["worst_residual"] = max(c["worst_residual"], max(residuals.values()))

        return {
            "kgraph.KGraph.nf": (nf_before, None),
            "kgraph.KGraph.mce": (None, mce_after),
            "selfsim.MatchedPair.extend": (extend_before, None),
            "cocycle.PhaseSum.is_zero": (is_zero_before, None),
            "normalform.AlgebraModel.mul": (None, mul_after),
            "matrixrep.TruncatedRep.matrix": (matrix_before, None),
            "matrixrep.operator_norm": (norm_before, None),
            "matrixrep.check_relations": (None, relations_after),
        }

    # -- results

    def metrics(self, overhead_share):
        """Every per-layer metric, as the benchmark reports it."""
        c = self.counters

        def share(num, den):
            return num / den if den else 0.0

        values = {}
        for name in function_names():
            calls, self_s = self.stats.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        values.update({
            "kgraph.mce.yield": share(c["mce_found"], c["mce_window"]),
            "kgraph.nf.repeat_share": share(c["nf_repeats"], c["nf_calls"]),
            "selfsim.extend.repeat_share": share(c["extend_repeats"], c["extend_calls"]),
            "cocycle.is_zero.float_share": share(c["is_zero_float"], c["is_zero_calls"]),
            "normalform.term_pairs": c["term_pairs"],
            "normalform.terms_out": c["terms_out"],
            "matrixrep.dim.max": c["dim_max"],
            "matrixrep.norm_flops": c["norm_flops"],
            "matrixrep.worst_residual": c["worst_residual"],
            "trace.overhead_share": overhead_share,
        })
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better in per_layer_names()
        }

    def write_spans(self, path):
        """Write the kept spans as gzip'd CSV: name,start_s,end_s,parent,verdict."""
        origin = self.sp_start[0] if self.sp_start else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span,name,start_s,end_s,parent,verdict\n")
            for i in range(len(self.sp_start)):
                fh.write(
                    f"{i},{self.span_names[self.sp_name[i]]},"
                    f"{self.sp_start[i] - origin:.9f},{self.sp_end[i] - origin:.9f},"
                    f"{self.sp_parent[i]},{self.sp_verdict[i]}\n"
                )
        return len(self.sp_start)
