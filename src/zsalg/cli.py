"""Command-line surface: ingest a workspace JSON, run checks, emit reports.

A workspace file describes a k-graph (and optionally a groupoid, an action,
a cocycle, and a homotopy generator):

    {
      "kgraph":   {"k": 2, "vertices": ["v"],
                   "edges": [{"id": "e", "color": 1, "src": "v", "dst": "v"}, ...],
                   "squares": [{"ef": ["e", "f"], "fe": ["f", "e"]}]},
      "groupoid": {"units": ["v"],
                   "morphisms": [{"id": "g", "src": "v", "dst": "v", "inv": "g"}],
                   "compose": [["g", "g", "v"]]},
      "action":   {"left":  [{"g": "g", "edge": "a", "out": "b"}],
                   "right": [{"g": "g", "edge": "a", "out": "g"}]},
      "cocycle":  {"rotation": [[0, 0], ["1/4", 0]]}
                  or {"table": [{"c1": ["a"], "c2": ["b"], "phase": "1/10"}]},
      "homotopy": {"generator": {"rotation": [[0, 0], ["1/4", 0]]}, "grid": 11},
      "bounds":   {"degree": [2, 2]},
      "budgets":  {"antichain": 6, "window": 200}
    }

Edges are morphisms from src to dst (dst is the range).  Rational entries
may be strings like "1/4"; floats are accepted and switch the affected
comparisons to 1e-12 tolerance.  Exit codes: 0 all checks passed, 1 a
violation was witnessed, 2 malformed input.  Reports are deterministic for
a fixed seed and embed every truncation bound used.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import acceptance, fixtures
from .alignment import (
    builtin_counterexample,
    check_concordant,
    check_exhaustive_lifting,
    meet_ideal,
    path_inclusion,
    zs_inclusion,
)
from .categories import validate_category
from .cocycle import (
    Cocycle,
    ConstantHomotopy,
    LinearHomotopy,
    RotationForm,
    TableForm,
    linear_homotopy,
    trivial_cocycle,
    verify_cocycle,
)
from .errors import BadActionError, BadGeneratorError, NotAPathError, ZsalgError
from .groupoid import validate_groupoid
from .kgraph import structural_predicates, sub_kgraph, validate_kgraph
from .matrixrep import build_grid_reps, check_homotopy_relations, check_relations
from .normalform import AlgebraModel, random_element
from .report import passing
from .selfsim import (
    MatchedPair,
    ZSCategory,
    check_jointly_faithful,
    check_self_similar,
    restrict_pair,
    verify_matched_pair,
)


def _rat(x):
    """A workspace number: exact for strings and ints, else a finite float.
    json.load accepts NaN and Infinity, which no check can compare; true and
    false are not numbers, and "1/0" is none either."""
    if isinstance(x, (str, int)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ZsalgError(f"zero denominator: {x!r}") from None
    if not isinstance(x, float) or not math.isfinite(x):
        raise ZsalgError(f"not a finite number: {x!r}")
    return x


def _section(parse, *args):
    """parse(*args) on a workspace section: a TypeError there is a value of
    the wrong JSON type, which is malformed input, not an internal error."""
    try:
        return parse(*args)
    except TypeError as exc:
        raise ZsalgError(f"malformed workspace section: {exc}") from exc


class Workspace:
    """Parsed and validated workspace objects."""

    def __init__(self, doc, bound=None, grid=None):
        if not isinstance(doc, dict):
            raise ZsalgError(f"a workspace is a JSON object, not {type(doc).__name__}")
        if doc.get("kgraph") is None:
            raise ZsalgError("workspace needs a 'kgraph' section")
        for name in ("kgraph", "action", "bounds", "homotopy", "budgets"):
            if not isinstance(doc.get(name, {}), dict):
                raise ZsalgError(f"workspace section {name!r} must be a JSON object")
        self.doc = doc
        self.pres = _section(fixtures.parse_kgraph, doc["kgraph"])
        self.k = self.pres.k
        if bound is None:
            bound = doc.get("bounds", {}).get("degree", (2,) * self.k)
        self.bound = _section(tuple, bound)
        if len(self.bound) != self.k or not all(type(b) is int and b >= 0 for b in self.bound):
            raise ZsalgError(f"degree bound {list(self.bound)}: need rank {self.k} integers >= 0")
        self.graph, self.graph_report = validate_kgraph(self.pres, self.bound)

        gp = doc.get("groupoid")
        if gp is None:
            self.groupoid, self.groupoid_report = (
                fixtures.trivial_groupoid(self.graph.vertices),
                None,
            )
        else:
            presentation = _section(fixtures.parse_groupoid, gp)
            self.groupoid, self.groupoid_report = validate_groupoid(presentation)

        table = _section(fixtures.parse_action, doc.get("action", {}), self.groupoid, self.graph)
        self.pair = MatchedPair(self.groupoid, self.graph, table)
        try:
            self.zs, self.action_report = ZSCategory(self.pair), None
        except BadActionError as exc:
            # a witnessed violation, and the third structure check: no
            # product is built on an action that breaks an endpoint law
            self.zs, self.action_report = None, exc.report

        if grid is None:
            grid = fixtures.json_int(doc.get("homotopy", {}).get("grid", 11), "homotopy.grid")
        self.grid = grid
        # a copy: --budget writes here, and builtin documents are shared
        self.budgets = dict(doc.get("budgets", {}))

    def cocycle(self) -> Cocycle:
        spec = self.doc.get("cocycle")
        if spec is None:
            return trivial_cocycle()
        form = _section(self._form, spec, "cocycle")
        return Cocycle(form, name="rotation" if "rotation" in spec else "table")

    def generator_form(self):
        section, spec = "homotopy.generator", self.doc.get("homotopy", {}).get("generator")
        if spec is None:
            section = "cocycle"
            spec = self.doc.get(section, {"rotation": [[0] * self.k] * self.k})
        return _section(self._form, spec, section)

    def _form(self, spec, section):
        """A "rotation" angle matrix, or a "table" of phases keyed by product
        morphisms of the path part."""
        if "rotation" in spec:
            rows = spec["rotation"]
            if len(rows) != self.k or any(len(row) != self.k for row in rows):
                raise ZsalgError(f"a rotation matrix has {self.k} rows of {self.k} entries")
            return RotationForm([[_rat(x) for x in row] for row in rows])
        table = {}
        for n, e in enumerate(spec["table"]):
            where = f"{section}.table[{n}]"
            c1, c2 = (self._decode_pathlike(e[c], f"{where}.{c}") for c in ("c1", "c2"))
            table[c1, c2] = _rat(e["phase"])
        return TableForm(table)

    def family(self):
        if "homotopy" in self.doc:
            return LinearHomotopy(self.generator_form(), m=self.grid)
        return ConstantHomotopy(self.cocycle(), m=1)

    def _decode_pathlike(self, spec, where):
        """The product morphism of a table's path, named ``where`` in errors."""
        if isinstance(spec, dict) and "vertex" in spec:
            v = spec["vertex"]
            if v not in self.graph.vertices:
                raise NotAPathError(f"{where}: no vertex {v!r}")
            p = self.graph.identity(v)
        else:
            try:
                p = self.graph.nf(tuple(spec))
            except NotAPathError as exc:
                raise NotAPathError(f"{where}: {exc}") from None
        return self.zs.from_path(p)


def builtin_workspace(name, bound=None, grid=None) -> Workspace:
    """Builtin fixtures addressable by name from the command line."""
    if name not in fixtures.FIXTURE_DOCS:
        raise ZsalgError(f"unknown fixture {name!r}; choose from {sorted(fixtures.FIXTURE_DOCS)}")
    return Workspace(fixtures.FIXTURE_DOCS[name], bound=bound, grid=grid)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(ws: Workspace, args):
    checks = [ws.graph_report.to_json()]
    checks.extend(r.to_json() for r in structural_predicates(ws.graph, ws.bound).values())
    if ws.groupoid_report is not None:
        checks.append(ws.groupoid_report.to_json())
    checks.append(validate_category(ws.graph, ws.bound).to_json())
    if ws.doc.get("action"):
        checks.append(verify_matched_pair(ws.pair, ws.bound).to_json())
        checks.append(check_self_similar(ws.pair, ws.bound).to_json())
    return {"checks": checks}


def cmd_enumerate(ws: Workspace, args):
    from .categories import principal_ideal
    from .kgraph import deg_splits

    out = {"paths": {}, "le_paths": {}, "ideals": {}}
    for v in ws.graph.vertices:
        for n, _ in deg_splits(ws.bound):
            key = f"{v}|{','.join(map(str, n))}"
            out["paths"][key] = [str(p) for p in ws.graph.paths(v, n)]
        out["le_paths"][f"{v}|{','.join(map(str, ws.bound))}"] = [
            str(p) for p in ws.graph.le_paths(v, ws.bound)
        ]
    seeds = (
        [ws.graph.nf(tuple(args.mu.split(",")))]
        if args.mu
        else [ws.graph.nf((name,)) for name in sorted(ws.graph.edge)]
    )
    for p in seeds:
        out["ideals"][str(p)] = [
            str(q) for q in principal_ideal(p, ws.graph, ws.bound)
        ]
    return {"checks": [{"check": "enumerate", "passed": True}], "enumeration": out}


def cmd_mce(ws: Workspace, args):
    mu = ws.graph.nf(tuple(args.mu.split(",")))
    nu = ws.graph.nf(tuple(args.nu.split(",")))
    got = ws.graph.mce(mu, nu)
    oracle = ws.graph.mce_oracle(mu, nu)
    agree = set(got) == set(oracle)
    _generators, method = meet_ideal(ws.zs.from_path(mu), ws.zs.from_path(nu), ws.zs, ws.bound)
    return {
        "checks": [{"check": "mce_oracle_agreement", "passed": agree}],
        "mce": [str(p) for p in got],
        "oracle": [str(p) for p in oracle],
        "meet_method": method,
    }


def cmd_zs(ws: Workspace, args):
    checks = [
        verify_matched_pair(ws.pair, ws.bound).to_json(),
        check_self_similar(ws.pair, ws.bound).to_json(),
    ]
    window = ws.zs.morphisms(ws.bound)
    witness = None  # the last failing triple
    for triple in ws.zs.associativity_failures(window):
        witness = triple
    checks.append(
        {
            "check": "zs_associativity",
            "passed": witness is None,
            "witness": None if witness is None else [str(m) for m in witness],
            "window": len(window),
        }
    )
    for v in ws.graph.vertices:
        checks.append(
            check_jointly_faithful(ws.pair, v, tuple(min(1, b) for b in ws.bound)).to_json()
        )
    return {"checks": checks}


def _split(ws: Workspace, args):
    """The colors kept by concordance: --split, by default all but the last."""
    return args.split if args.split is not None else ws.k - 1


def _antichain_budget(ws: Workspace):
    return fixtures.json_int(ws.budgets.get("antichain", 6), "budgets.antichain")


def cmd_concordance(ws: Workspace, args):
    split, budget = _split(ws, args), _antichain_budget(ws)
    colors = list(range(1, split + 1))
    gamma, grep = validate_kgraph(sub_kgraph(ws.graph, colors), ws.bound[:split])
    checks = [grep.to_json()]
    if ws.doc.get("groupoid"):
        inc = zs_inclusion(ZSCategory(restrict_pair(ws.pair, gamma)), ws.zs)
    else:
        inc = path_inclusion(gamma, ws.graph)
    checks.append(check_concordant(inc, ws.bound[:split], ws.bound).to_json())
    checks.append(
        check_exhaustive_lifting(
            inc,
            ws.bound[:split],
            ws.bound,
            max_size=budget,
            window_cap=fixtures.json_int(ws.budgets.get("window", 200), "budgets.window"),
        ).to_json()
    )
    return {"checks": checks}


def cmd_cocycle_check(ws: Workspace, args):
    # the product category, which is the path category when the groupoid
    # is trivial: the table forms are keyed by its morphisms
    return {"checks": [verify_cocycle(ws.cocycle(), ws.zs, ws.bound).to_json()]}


def cmd_homotopy_check(ws: Workspace, args):
    try:
        hom = linear_homotopy(ws.generator_form(), ws.zs, ws.bound, m=ws.grid)
    except BadGeneratorError as exc:
        # a witnessed non-cocycle is a violation, not malformed input
        return {"checks": [exc.report.to_json()]}
    # every defect delta passed the zero rule, so each fiber's s_j*delta does too:
    # this is verify_homotopy's report, without its second sweep of the window
    checks = [passing("homotopy_fibers", bound=ws.bound, fibers=hom.m).to_json()]
    checks.append(check_homotopy_relations(ws.zs, hom, ws.bound).to_json())
    return {"checks": checks}


def cmd_nf_mult(ws: Workspace, args):
    import random as _random

    rng = _random.Random(args.seed)
    wide = tuple(4 * b + 4 for b in ws.bound)
    model = AlgebraModel(ws.zs, ws.family(), wide)
    gen_degree = tuple(min(b, 1) for b in ws.bound)
    assoc = invol = 0
    for _ in range(args.triples):
        x = random_element(model, rng, gen_degree)
        y = random_element(model, rng, gen_degree)
        z = random_element(model, rng, gen_degree)
        xy = x * y
        if (xy * z).same_as(x * (y * z)):
            assoc += 1
        if xy.star().same_as(y.star() * x.star()):
            invol += 1
    ok = assoc == args.triples and invol == args.triples
    return {
        "checks": [
            {
                "check": "nf_associativity_batch",
                "passed": ok,
                "associative": f"{assoc}/{args.triples}",
                "anti_multiplicative": f"{invol}/{args.triples}",
            }
        ]
    }


def cmd_rep_check(ws: Workspace, args):
    family = ws.family()
    checks = []
    for rep in build_grid_reps(ws.zs, family, ws.bound):
        out = check_relations(rep)
        entry = out.to_json()
        entry["fiber"] = rep.grid_index
        checks.append(entry)
    return {"checks": checks}


def cmd_counterexample(ws, args):
    tr = builtin_counterexample()
    passed = (
        tr["left_cancellative"]["passed"]
        and tr["ideal_formula"]["all_match"]
        and not tr["concordant"]["passed"]
    )
    # the command succeeds by WITNESSING the violation: report it as such
    return {
        "checks": [
            {
                "check": "counterexample_transcript",
                "passed": tr["left_cancellative"]["passed"] and tr["ideal_formula"]["all_match"],
            },
            {
                "check": "concordant",
                "passed": tr["concordant"]["passed"],
                "witness": tr["concordant"].get("witness"),
            },
        ],
        "transcript": tr,
        "expected_violation": passed,
    }


def cmd_all(ws, args):
    out = acceptance.run_all(seed=args.seed)
    checks = [
        {"check": r["criterion"], "passed": r["passed"], "runtime_s": r["runtime_s"]}
        for r in out["criteria"]
    ]
    return {"checks": checks}


COMMANDS = {
    "validate": (cmd_validate, True),
    "enumerate": (cmd_enumerate, True),
    "mce": (cmd_mce, True),
    "zs": (cmd_zs, True),
    "concordance": (cmd_concordance, True),
    "cocycle-check": (cmd_cocycle_check, True),
    "homotopy-check": (cmd_homotopy_check, True),
    "nf-mult": (cmd_nf_mult, True),
    "rep-check": (cmd_rep_check, True),
    "counterexample": (cmd_counterexample, False),
    "all": (cmd_all, False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zsalg",
        description="verification toolkit for twisted product-category algebras",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--workspace", help="path to a workspace JSON file")
    parser.add_argument("--fixture", help="builtin fixture name (k1, e2, swap, swap2)")
    parser.add_argument("--bound", help="comma-separated degree bound, e.g. 2,2")
    parser.add_argument("--grid", type=int, help="homotopy grid size M")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, help="antichain enumeration budget")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--mu", help="edge list for the mce command, e.g. e,f")
    parser.add_argument("--nu", help="edge list for the mce command")
    parser.add_argument("--split", type=int, help="colors kept in the subcategory")
    parser.add_argument("--triples", type=int, default=1000)
    return parser


#: the one parser of the process; parse_args keeps no state between calls
PARSER = build_parser()


def check_arguments(args, ws):
    """The argument errors: main raises them before the structure check,
    whose failure would otherwise stand in for them.  Concordance's split
    and budget ranges read the workspace's rank and budgets."""
    if args.command == "mce":
        for flag in ("mu", "nu"):
            if getattr(args, flag) is None:
                raise ZsalgError(f"mce needs --{flag}")
    if args.command == "nf-mult" and args.triples < 1:
        raise ZsalgError(f"--triples must be at least 1, not {args.triples}")
    if args.command == "concordance":
        if not 0 <= _split(ws, args) < ws.k:
            raise ZsalgError(f"--split must be in 0..{ws.k - 1}")
        budget = _antichain_budget(ws)
        if budget < 1:
            raise ZsalgError(f"the antichain budget must be at least 1, not {budget}")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    fn, needs_ws = COMMANDS[args.command]
    try:
        bound = tuple(int(x) for x in args.bound.split(",")) if args.bound else None
        ws = None  # a command that reads no workspace builds none
        if needs_ws:
            if args.workspace:
                with open(args.workspace) as fh:
                    doc = json.load(fh)
                ws = Workspace(doc, bound=bound, grid=args.grid)
            else:
                ws = builtin_workspace(args.fixture or "k1", bound=bound, grid=args.grid)
            if args.budget is not None:
                ws.budgets["antichain"] = args.budget
        check_arguments(args, ws)
        # a failed structure check is the verdict of every workspace command
        # but validate, which reports it with its own: no check runs on it
        structure = (ws.graph_report, ws.groupoid_report, ws.action_report) if needs_ws else ()
        broken = [r.to_json() for r in structure if r is not None and not r]
        body = fn(ws, args) if not broken or fn is cmd_validate else {"checks": broken}
    except (ZsalgError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc), "exit": 2}
        _emit(report, args.out)
        return 2
    passed = all(c.get("passed", False) for c in body["checks"])
    report = {
        "command": args.command,
        "seed": args.seed,
        "bound": list(ws.bound) if ws else None,
        "verdict": "pass" if passed else "violation",
        **body,
    }
    _emit(report, args.out)
    return 0 if passed else 1


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
