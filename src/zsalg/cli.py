"""Command-line surface: ingest a workspace JSON, run checks, emit reports.

A workspace file describes a k-graph (and optionally a groupoid, an action,
a cocycle, and a homotopy generator) in the format ``fixtures.SCHEMA`` sets:

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
      "bounds":   {"degree": [2, 2]}
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
import sys

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


class Workspace:
    """Parsed and validated workspace objects."""

    def __init__(self, doc, bound=None, grid=None):
        fixtures.check_document(doc)
        self.doc = doc
        self.pres = fixtures.parse_kgraph(doc["kgraph"])
        self.k = self.pres.k
        if bound is None:
            bound = doc.get("bounds", {}).get("degree", (2,) * self.k)
        self.bound = tuple(bound)
        if len(self.bound) != self.k or not all(type(b) is int and b >= 0 for b in self.bound):
            raise ZsalgError(f"degree bound {list(self.bound)}: need rank {self.k} integers >= 0")
        self.graph, self.graph_report = validate_kgraph(self.pres, self.bound)

        if "groupoid" in doc:
            presentation = fixtures.parse_groupoid(doc["groupoid"])
            self.groupoid, self.groupoid_report = validate_groupoid(presentation)
        else:
            self.groupoid, self.groupoid_report = fixtures.trivial_groupoid(self.graph.vertices), None

        table = fixtures.parse_action(doc.get("action", {}), self.groupoid, self.graph)
        self.pair = MatchedPair(self.groupoid, self.graph, table)
        try:
            self.zs, self.action_report = ZSCategory(self.pair), None
        except BadActionError as exc:
            # a witnessed violation, and the third structure check: no
            # product is built on an action that breaks an endpoint law
            self.zs, self.action_report = None, exc.report

        self.grid = doc.get("homotopy", {}).get("grid", 11) if grid is None else grid

    def cocycle(self) -> Cocycle:
        spec = self.doc.get("cocycle")
        if spec is None:
            return trivial_cocycle()
        form = self._form(spec, "cocycle")
        return Cocycle(form, name="rotation" if "rotation" in spec else "table")

    def generator_form(self):
        section, spec = "homotopy.generator", self.doc.get("homotopy", {}).get("generator")
        if spec is None:
            section = "cocycle"
            spec = self.doc.get(section, {"rotation": [[0] * self.k] * self.k})
        return self._form(spec, section)

    def _form(self, spec, section):
        """A "rotation" angle matrix, or a "table" of phases keyed by product
        morphisms of the path part."""
        if "rotation" in spec:
            rows = spec["rotation"]
            if len(rows) != self.k or any(len(row) != self.k for row in rows):
                raise ZsalgError(f"a rotation matrix has {self.k} rows of {self.k} entries")
            return RotationForm([[fixtures.number(x, section) for x in row] for row in rows])
        if "table" not in spec:
            raise ZsalgError(f"{section}: no 'rotation' or 'table'")
        table = {}
        for n, e in enumerate(spec["table"]):
            where = f"{section}.table[{n}]"
            c1, c2 = (self._decode_pathlike(e[c], f"{where}.{c}") for c in ("c1", "c2"))
            table[c1, c2] = fixtures.number(e["phase"], where)
        return TableForm(table)

    def family(self):
        if "homotopy" in self.doc:
            return LinearHomotopy(self.generator_form(), m=self.grid)
        return ConstantHomotopy(self.cocycle(), m=1)

    def _decode_pathlike(self, spec, where):
        """The product morphism of a table's path, named ``where`` in errors."""
        try:
            if type(spec) is not dict:
                return self.zs.from_path(self.graph.nf(tuple(spec)))
            if spec["vertex"] not in self.graph.vertices:
                raise NotAPathError(f"no vertex {spec['vertex']!r}")
            return self.zs.from_path(self.graph.identity(spec["vertex"]))
        except NotAPathError as exc:
            raise NotAPathError(f"{where}: {exc}") from None


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


def cmd_concordance(ws: Workspace, args):
    # the subcategory keeps every color but the last
    sub_bound = ws.bound[:-1]
    gamma, grep = validate_kgraph(sub_kgraph(ws.graph, range(1, ws.k)), sub_bound)
    checks = [grep.to_json()]
    if ws.doc.get("groupoid"):
        inc = zs_inclusion(ZSCategory(restrict_pair(ws.pair, gamma)), ws.zs)
    else:
        inc = path_inclusion(gamma, ws.graph)
    checks.append(check_concordant(inc, sub_bound, ws.bound).to_json())
    checks.append(check_exhaustive_lifting(inc, sub_bound, ws.bound).to_json())
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
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--mu", help="edge list for the mce command, e.g. e,f")
    parser.add_argument("--nu", help="edge list for the mce command")
    parser.add_argument("--triples", type=int, default=1000)
    return parser


#: the one parser of the process; parse_args keeps no state between calls
PARSER = build_parser()


def check_arguments(args, ws):
    """The argument errors: main raises them before the structure check,
    whose failure would otherwise stand in for them.  Concordance's rank
    range reads the workspace."""
    if args.command == "mce":
        for flag in ("mu", "nu"):
            if getattr(args, flag) is None:
                raise ZsalgError(f"mce needs --{flag}")
    if args.command == "nf-mult" and args.triples < 1:
        raise ZsalgError(f"--triples must be at least 1, not {args.triples}")
    if args.command == "concordance" and ws.k < 1:
        raise ZsalgError(f"concordance needs rank >= 1, not {ws.k}")


def _bound_flag(text):
    """The --bound flag: comma-separated integers, one per color; the
    empty text is the empty bound."""
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ZsalgError(f"--bound {text}: need comma-separated integers") from None


def _read_workspace(path):
    """A workspace file's JSON.  Text that is not UTF-8, an integer too
    long for Python to read, and arrays or objects nested too deep for the
    reader are malformed input, as a syntax error is."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # UnicodeDecodeError, or int's digit limit
            raise ZsalgError(f"{path}: {exc}") from None
        except RecursionError:
            raise ZsalgError(f"{path}: nested too deep to read") from None


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    fn, needs_ws = COMMANDS[args.command]
    try:
        bound = None if args.bound is None else _bound_flag(args.bound)
        ws = None  # a command that reads no workspace builds none
        if needs_ws:
            if args.workspace is not None:
                if args.fixture is not None:
                    raise ZsalgError("give --fixture or --workspace, not both")
                ws = Workspace(_read_workspace(args.workspace), bound=bound, grid=args.grid)
            else:
                name = "k1" if args.fixture is None else args.fixture
                ws = builtin_workspace(name, bound=bound, grid=args.grid)
        check_arguments(args, ws)
        # a failed structure check is the verdict of every workspace command
        # but validate, which reports it with its own: no check runs on it
        structure = (ws.graph_report, ws.groupoid_report, ws.action_report) if needs_ws else ()
        broken = [r.to_json() for r in structure if r is not None and not r]
        body = fn(ws, args) if not broken or fn is cmd_validate else {"checks": broken}
    except (ZsalgError, OSError, json.JSONDecodeError) as exc:
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
