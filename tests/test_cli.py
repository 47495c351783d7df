"""Command surface: exit codes, determinism, witnesses in reports."""

import functools
import json
import math
import operator
import re

import pytest

from perfbench.workloads import CLI_WORKSPACES
from zsalg.cli import Workspace, main
from zsalg.cocycle import linear_homotopy, verify_homotopy
from zsalg.errors import NotAPathError
from zsalg.fixtures import FIXTURE_DOCS
from zsalg.normalform import AlgebraModel


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_validate_fixture_passes(tmp_path):
    code, report = run(tmp_path, "validate", "--fixture", "swap")
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["seed"] == 0
    assert all(c["passed"] for c in report["checks"])


def test_validate_detects_source(tmp_path):
    ws = {
        "kgraph": {
            "k": 1,
            "vertices": ["v", "w"],
            "edges": [{"id": "e", "color": 1, "src": "w", "dst": "v"}],
            "squares": [],
        },
        "bounds": {"degree": [2]},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code, report = run(tmp_path, "validate", "--workspace", str(path))
    assert code == 1
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and failing[0]["check"] == "no_sources"
    assert failing[0]["witness"] == ["w", 1]


def test_malformed_workspace_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kgraph": {"k": 1}}')
    out = tmp_path / "r.json"
    assert main(["validate", "--workspace", str(path), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["exit"] == 2 and "error" in report


def test_unknown_fixture_exits_two(tmp_path):
    code, report = (
        main(["validate", "--fixture", "nope", "--out", str(tmp_path / "r.json")]),
        json.loads((tmp_path / "r.json").read_text()),
    )
    assert code == 2


def test_mce_command(tmp_path):
    code, report = run(tmp_path, "mce", "--fixture", "k1", "--mu", "e", "--nu", "f")
    assert code == 0
    assert report["mce"] == ["ef"] and report["oracle"] == ["ef"]
    assert report["meet_method"] == "ZS-path-lift"


def test_zs_command(tmp_path):
    code, report = run(tmp_path, "zs", "--fixture", "swap")
    assert code == 0
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["zs_associativity"]["passed"]


def test_concordance_command(tmp_path):
    code, report = run(tmp_path, "concordance", "--fixture", "swap2")
    assert code == 0
    names = [c["check"] for c in report["checks"]]
    assert "concordant" in names and "exhaustive_lifting" in names


def test_cocycle_and_homotopy_commands(tmp_path):
    code, _ = run(tmp_path, "cocycle-check", "--fixture", "k1")
    assert code == 0
    code, report = run(tmp_path, "homotopy-check", "--fixture", "k1")
    assert code == 0


def test_cocycle_check_table_without_groupoid(tmp_path):
    """A table cocycle is keyed by product morphisms, so it is verified on
    the product category even when the groupoid section is absent."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(CLI_WORKSPACES["perturbed"]))
    code, report = run(tmp_path, "cocycle-check", "--workspace", str(path))
    assert code == 1
    assert report["checks"][0]["witness"] == ["identity", "(a|'v')", "(a|'v')", "(b|'v')"]
    # the same table as a homotopy generator is a witnessed violation too
    code, report = run(tmp_path, "homotopy-check", "--workspace", str(path))
    assert code == 1
    assert report["checks"][0]["check"] == "additive_generator"
    assert report["checks"][0]["witness"] == ["identity", "(a|'v')", "(a|'v')", "(b|'v')"]


@pytest.mark.parametrize("command", ["rep-check", "homotopy-check"])
@pytest.mark.parametrize(
    "section",
    [
        {"cocycle": {"rotation": [[0, 0], [math.nan, 0]]}},
        {"homotopy": {"generator": {"rotation": [[0, 0], [math.inf, 0]]}, "grid": 3}},
        {"cocycle": {"table": [{"c1": ["e"], "c2": ["f"], "phase": None}]}},
    ],
    ids=["nan-angle", "infinite-generator", "null-phase"],
)
def test_non_finite_number_is_malformed(tmp_path, command, section):
    """json.load accepts NaN and Infinity; no check can compare them, and a
    phase that is not a number at all is malformed too."""
    ws = {
        "kgraph": {
            "k": 2,
            "vertices": ["v"],
            "edges": [
                {"id": "e", "color": 1, "src": "v", "dst": "v"},
                {"id": "f", "color": 2, "src": "v", "dst": "v"},
            ],
            "squares": [{"ef": ["e", "f"], "fe": ["f", "e"]}],
        },
        "bounds": {"degree": [1, 1]},
        **section,
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code, report = run(tmp_path, command, "--workspace", str(path))
    assert code == 2
    assert report["error"] == "ZsalgError" and "not a finite number" in report["message"]


@pytest.mark.parametrize(
    "command, section, message",
    [
        ("cocycle-check", {"cocycle": {"rotation": [[0, 0], ["1/0", 0]]}}, "zero denominator"),
        ("cocycle-check", {"cocycle": {"rotation": [[0]]}}, "2 rows of 2 entries"),
        (
            "homotopy-check",
            {"homotopy": {"generator": {"rotation": [[0, 0, 0]] * 3}, "grid": 3}},
            "2 rows of 2 entries",
        ),
        ("cocycle-check", {"cocycle": {"rotation": [[0, 0], [True, 0]]}}, "not a finite number"),
        (
            "cocycle-check",
            {"cocycle": {"rotation": ["00", "10"]}},
            "cocycle.rotation[0]: not a JSON array: '00'",
        ),
        (
            "homotopy-check",
            {"homotopy": {"generator": {"rotation": [[0, 0], "10"]}, "grid": 3}},
            "homotopy.generator.rotation[1]: not a JSON array: '10'",
        ),
        ("cocycle-check", {"cocycle": {"rotation": [[0, 0], ["a", 0]]}}, "not a rational number: 'a'"),
    ],
    ids=[
        "zero-denominator", "short-matrix", "wide-generator", "bool-angle", "string-row",
        "string-generator-row", "non-rational-string",
    ],
)
def test_malformed_angle_matrix_is_malformed(tmp_path, command, section, message):
    """An angle "1/0" or "a", a matrix that is not k by k, a row that is
    not a JSON array (a string is not read as its characters), and true
    for an angle are malformed input: no traceback, no verdict, no silent
    truncation."""
    ws = {
        "kgraph": FIXTURE_DOCS["k1"]["kgraph"],
        "bounds": {"degree": [1, 1]},
        **section,
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code, report = run(tmp_path, command, "--workspace", str(path))
    assert code == 2
    assert report["error"] == "ZsalgError" and message in report["message"]


def test_zs_broken_flip_witness(tmp_path):
    """The flip action with a <| g = v breaks the interchange law; zs
    reports the last non-associative triple of the product window."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(CLI_WORKSPACES["broken_flip"]))
    code, report = run(tmp_path, "zs", "--workspace", str(path))
    assert code == 1
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["matched_pair"]["witness"] == ["acting_interchange", "g", "g", "a"]
    assert checks["zs_associativity"]["witness"] == ["(bb|'g')", "(bb|'g')", "(bb|'v')"]


def test_concordance_broken_flip_witness(tmp_path):
    """On the broken flip's product, which is not a category, the canonical
    generating set leaves a solution unrouted: concordance fails with that
    solution and the set, as validate, zs and rep-check fail."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(CLI_WORKSPACES["broken_flip"]))
    code, report = run(tmp_path, "concordance", "--workspace", str(path))
    assert code == 1
    checks = {c["check"]: c for c in report["checks"]}
    concordant = checks["concordant"]
    assert not concordant["passed"]
    assert concordant["witness"] == ["(<v>|'g')", "(<v>|'v')", "(a|'g')", "(b|'g')"]
    assert concordant["details"]["generators"] == ["(<v>|'v')"]


@pytest.mark.parametrize(
    "source",
    [["--fixture", "k1"], ["--workspace", "{ws}"]],
    ids=["fixture", "unread-workspace"],
)
def test_counterexample_builds_no_workspace(tmp_path, source):
    """counterexample reads no workspace, so it builds none: naming a
    fixture, or a workspace it could not parse, gives the bytes of the plain
    command, bound included."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"kgraph": []}))
    argv = [str(path) if arg == "{ws}" else arg for arg in source]
    plain, named = tmp_path / "plain.json", tmp_path / "named.json"
    assert main(["counterexample", "--out", str(plain)]) == 1
    assert main(["counterexample", *argv, "--out", str(named)]) == 1
    assert named.read_bytes() == plain.read_bytes()


def test_nf_mult_command(tmp_path):
    code, report = run(tmp_path, "nf-mult", "--fixture", "swap", "--triples", "25")
    assert code == 0
    batch = report["checks"][0]
    assert batch["associative"] == "25/25"
    assert batch["anti_multiplicative"] == "25/25"


def test_rep_check_command(tmp_path):
    code, report = run(tmp_path, "rep-check", "--fixture", "swap")
    assert code == 0
    assert all(c["passed"] for c in report["checks"])


def test_counterexample_command(tmp_path):
    code, report = run(tmp_path, "counterexample")
    assert code == 1  # the violation is the point
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["counterexample_transcript"]["passed"]
    assert checks["concordant"]["passed"] is False
    assert checks["concordant"]["witness"] == ["a", "b", "(1|'')", "(1|'')"]
    assert report["expected_violation"] is True


def test_reports_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["rep-check", "--fixture", "k1", "--out", str(out1)])
    main(["rep-check", "--fixture", "k1", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_enumerate_command(tmp_path):
    code, report = run(tmp_path, "enumerate", "--fixture", "e2")
    assert code == 0
    paths = report["enumeration"]["paths"]
    assert paths["v|2"] == ["aa", "ab", "ba", "bb"]


@pytest.mark.parametrize("missing", ["mu", "nu"])
def test_mce_without_an_edge_list_is_malformed(tmp_path, missing):
    given = {"mu": ["--mu", "a"], "nu": ["--nu", "b"]}
    del given[missing]
    argv = [arg for pair in given.values() for arg in pair]
    code, report = run(tmp_path, "mce", "--fixture", "e2", *argv)
    assert code == 2
    assert report["error"] == "ZsalgError" and f"--{missing}" in report["message"]


@pytest.mark.parametrize(
    "command, ws, message",
    [
        (
            "validate",
            {"kgraph": {"k": None, "vertices": ["v"], "edges": [], "squares": []}},
            "malformed workspace section: kgraph.k must be an integer, not None",
        ),
        (
            "cocycle-check",
            {
                "kgraph": {"k": 1, "vertices": ["v"], "edges": [], "squares": []},
                "cocycle": {"rotation": 5},
            },
            "cocycle.rotation: not a JSON array: 5",
        ),
    ],
    ids=["null-k", "scalar-rotation"],
)
def test_wrongly_typed_value_is_malformed(tmp_path, command, ws, message):
    """A workspace value of the wrong JSON type is malformed input (exit 2),
    not a traceback, and the message names the value's path."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code, report = run(tmp_path, command, "--workspace", str(path))
    assert code == 2
    assert report["error"] == "ZsalgError" and report["message"] == message


def _workspace(tmp_path, fixture, **sections):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({**FIXTURE_DOCS[fixture], **sections}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--fixture", "k1", "--bound", "2"],
        ["rep-check", "--fixture", "swap", "--bound", "1,5"],
        ["validate", "--workspace", "{ws}"],
    ],
    ids=["short-flag", "long-flag", "workspace-degree"],
)
def test_bound_of_the_wrong_length_is_malformed(tmp_path, argv):
    """A degree bound needs one entry per color; any other length is
    malformed input, never cut or padded."""
    ws = _workspace(tmp_path, "k1", bounds={"degree": [2, 2, 2]})
    code, report = run(tmp_path, *[ws if arg == "{ws}" else arg for arg in argv])
    assert code == 2
    assert report["error"] == "ZsalgError" and "rank" in report["message"]


def test_rank_zero_bound_is_empty(tmp_path):
    ws = {"kgraph": {"k": 0, "vertices": ["v"], "edges": [], "squares": []}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code, report = run(tmp_path, "validate", "--workspace", str(path))
    assert code == 0 and report["bound"] == []


@pytest.mark.parametrize("grid", ["0", "1"])
def test_homotopy_grid_below_two_is_malformed(tmp_path, grid):
    code, report = run(tmp_path, "homotopy-check", "--fixture", "k1", "--grid", grid)
    assert code == 2
    assert report["error"] == "ZsalgError"
    assert report["message"] == f"a homotopy grid needs at least the two endpoints, not {grid}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--fixture", "k1", "--bound=-1,2"], "degree bound [-1, 2]"),
        (["--fixture", "k1", "--bound", "1,x"], "--bound 1,x"),
        (["--fixture", "k1", "--bound", ""], "degree bound []: need rank 2"),
        (["--workspace", {"degree": "22"}], "bounds.degree: not a JSON array: '22'"),
        (["--workspace", {"degree": [1.5, 2]}], "bounds.degree[0] must be an integer, not 1.5"),
    ],
    ids=["negative", "not-a-number", "empty", "workspace-string", "workspace-float"],
)
def test_bound_must_be_non_negative_integers(tmp_path, argv, message):
    """A degree bound is one non-negative integer per color.  A negative
    entry used to give an empty window, on which every check passes, and an
    empty --bound was read as no flag.  The error names the bound, or the
    workspace value's path."""
    if argv[0] == "--workspace":
        argv = ["--workspace", _workspace(tmp_path, "k1", bounds=argv[1])]
    code, report = run(tmp_path, "validate", *argv)
    assert code == 2
    assert report["error"] == "ZsalgError" and message in report["message"]


@pytest.mark.parametrize("triples", ["-3", "0"])
def test_nf_mult_needs_at_least_one_triple(tmp_path, triples):
    code, report = run(tmp_path, "nf-mult", "--fixture", "k1", "--triples", triples)
    assert code == 2
    assert report["error"] == "ZsalgError" and "--triples" in report["message"]


@pytest.mark.parametrize("command", ["cocycle-check", "homotopy-check"])
def test_float_identity_pair_phase_within_tolerance_passes(tmp_path, command):
    """One zero rule for every defect: an identity pair's float exponent of
    1e-20 is zero within 1e-12, as a triple's defect of 1e-20 is."""
    table = {"table": [{"c1": {"vertex": "v"}, "c2": ["a"], "phase": 1e-20}]}
    section = {"cocycle": table}
    if command == "homotopy-check":
        section = {"homotopy": {"generator": table}}
    ws = _workspace(tmp_path, "e2", bounds={"degree": [2]}, **section)
    code, report = run(tmp_path, command, "--workspace", ws)
    assert code == 0 and report["verdict"] == "pass"



def _ab(phase):
    """A table with a float phase on (a, b) alone."""
    return {"table": [{"c1": ["a"], "c2": ["b"], "phase": phase}]}


@pytest.mark.parametrize(
    "command, section",
    [
        ("homotopy-check", {"homotopy": {"generator": _ab(1e-12)}}),
        ("cocycle-check", {"cocycle": _ab(5e-13)}),
    ],
)
def test_defect_within_tolerance_is_zero_for_every_fiber(tmp_path, command, section):
    """One zero rule: a defect of at most 1e-12 is zero in the generator
    check and in every fiber, whatever the fiber's scale."""
    ws = _workspace(tmp_path, "e2", bounds={"degree": [2]}, **section)
    code, report = run(tmp_path, command, "--workspace", ws)
    assert code == 0 and report["verdict"] == "pass"


def test_defect_above_tolerance_fails_with_its_witness(tmp_path):
    ws = _workspace(tmp_path, "e2", bounds={"degree": [2]}, cocycle=_ab(2e-12))
    code, report = run(tmp_path, "cocycle-check", "--workspace", ws)
    assert code == 1
    [check] = report["checks"]
    assert check["witness"] == ["identity", "(a|'v')", "(a|'v')", "(b|'v')"]


@pytest.mark.parametrize(
    "fixture, sections, bound",
    [
        ("k1", {}, None),
        ("k1", {"homotopy": {"generator": {"rotation": [[0, 0], [0.25, 0]]}, "grid": 11}}, None),
        ("e2", {"homotopy": {"generator": _ab(1e-12)}}, (2,)),
        ("swap2", {}, (1, 1)),
    ],
    ids=["k1", "float-k1", "e2-1e-12", "swap2-1-1"],
)
def test_homotopy_fibers_entry_is_the_verify_homotopy_report(tmp_path, fixture, sections, bound):
    """homotopy-check certifies its fibers through the generator's sweep; the
    entry it prints is the report verify_homotopy gives after its own sweep,
    and it passes, since linear_homotopy accepted the generator."""
    path = _workspace(tmp_path, fixture, **sections)
    argv = ["--bound", ",".join(map(str, bound))] if bound else []
    code, report = run(tmp_path, "homotopy-check", "--workspace", path, *argv)
    with open(path) as fh:
        ws = Workspace(json.load(fh), bound=bound)
    hom = linear_homotopy(ws.generator_form(), ws.zs, ws.bound, m=ws.grid)
    expected = json.loads(json.dumps(verify_homotopy(hom, ws.zs, ws.bound).to_json()))
    [entry] = [c for c in report["checks"] if c["check"] == "homotopy_fibers"]
    assert entry == expected and entry["passed"]
    assert code == 0


_E2_SECTION = FIXTURE_DOCS["e2"]["kgraph"]

#: Z/2 with g's inverse declared as v, although g.g = v
_BAD_INVERSE_Z2 = {
    "units": ["v"],
    "morphisms": [
        {"id": "v", "src": "v", "dst": "v", "inv": "v"},
        {"id": "g", "src": "v", "dst": "v", "inv": "v"},
    ],
    "compose": [["g", "g", "v"]],
}

#: test_kgraph.broken_three_graph: the path c b1 a1 has two normal forms
_BROKEN_THREE_GRAPH = {
    "k": 3,
    "vertices": ["v"],
    "edges": [
        {"id": name, "color": color, "src": "v", "dst": "v"}
        for name, color in (("a1", 1), ("a2", 1), ("b1", 2), ("b2", 2), ("c", 3))
    ],
    "squares": [
        {"ef": ef.split(), "fe": fe.split()}
        for ef, fe in (
            ("a1 b1", "b1 a1"), ("a1 b2", "b1 a2"), ("a2 b1", "b2 a1"), ("a2 b2", "b2 a2"),
            ("a1 c", "c a1"), ("a2 c", "c a2"), ("b1 c", "c b2"), ("b2 c", "c b1"),
        )
    ],
}

#: a two-vertex 1-graph, loops a at v and b at w, with Z/2 = {v, g} at v
_TWO_VERTEX_SECTIONS = {
    "kgraph": {
        "k": 1,
        "vertices": ["v", "w"],
        "edges": [
            {"id": "a", "color": 1, "src": "v", "dst": "v"},
            {"id": "b", "color": 1, "src": "w", "dst": "w"},
        ],
        "squares": [],
    },
    "groupoid": {
        "units": ["v", "w"],
        "morphisms": [
            {"id": "v", "src": "v", "dst": "v", "inv": "v"},
            {"id": "w", "src": "w", "dst": "w", "inv": "w"},
            {"id": "g", "src": "v", "dst": "v", "inv": "g"},
        ],
        "compose": [["g", "g", "v"]],
    },
    "bounds": {"degree": [2]},
}


def _two_vertex_action(left, right):
    """g |> a = left and g <| a = right on the two-vertex graph."""
    action = {
        "left": [{"g": "g", "edge": "a", "out": left}],
        "right": [{"g": "g", "edge": "a", "out": right}],
    }
    return {**_TWO_VERTEX_SECTIONS, "action": action}


_WORKSPACE_COMMANDS = [
    ["validate"],
    ["enumerate"],
    ["mce", "--mu", "{edge}", "--nu", "{edge}"],
    ["zs"],
    ["concordance"],
    ["cocycle-check"],
    ["homotopy-check"],
    ["nf-mult", "--triples", "5"],
    ["rep-check"],
]


@pytest.mark.parametrize("command", _WORKSPACE_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "doc, edge, failing_check",
    [
        ({"kgraph": _E2_SECTION, "groupoid": _BAD_INVERSE_Z2, "bounds": {"degree": [2]}},
         "a", "groupoid_axioms"),
        ({"kgraph": _BROKEN_THREE_GRAPH, "bounds": {"degree": [1, 1, 1]}},
         "c", "kgraph_factorization"),
        (_two_vertex_action("a", "w"), "a", "matched_pair"),
        (_two_vertex_action("b", "g"), "a", "matched_pair"),
    ],
    ids=["bad-inverse-z2", "broken-3-graph", "right-action-to-w", "left-action-to-b"],
)
def test_failed_structure_check_is_every_commands_verdict(
    tmp_path, command, doc, edge, failing_check
):
    """A workspace whose k-graph, groupoid or action fails its check gets no
    PASS: validate reports the failure among its checks, and every other
    command exits 1 with the failing entry as its only check."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    argv = [edge if arg == "{edge}" else arg for arg in command]
    code, report = run(tmp_path, *argv, "--workspace", str(path))
    assert code == 1 and report["verdict"] == "violation"
    failed = [c["check"] for c in report["checks"] if not c["passed"]]
    if command[0] == "validate":
        assert failing_check in failed
    else:
        assert [c["check"] for c in report["checks"]] == failed == [failing_check]


@pytest.mark.parametrize("command", _WORKSPACE_COMMANDS, ids=lambda argv: argv[0])
def test_groupoid_over_other_objects_exits_two(tmp_path, command):
    """A groupoid whose units are not the graph's vertices is malformed
    input for every workspace command."""
    doc = {
        "kgraph": _E2_SECTION,
        "groupoid": {
            "units": ["v", "w"],
            "morphisms": [
                {"id": "v", "src": "v", "dst": "v", "inv": "v"},
                {"id": "w", "src": "w", "dst": "w", "inv": "w"},
            ],
            "compose": [],
        },
        "bounds": {"degree": [2]},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    argv = ["a" if arg == "{edge}" else arg for arg in command]
    code, report = run(tmp_path, *argv, "--workspace", str(path))
    assert code == 2
    assert report["error"] == "NotApplicableError"
    assert report["message"] == "acting category is not a groupoid over the vertices"


_UNKNOWN_ACTION_NAMES = {
    "element": ("left", {"g": "h", "edge": "a", "out": "b"}, "no groupoid element 'h'"),
    "edge": ("left", {"g": "g", "edge": "z", "out": "b"}, "no edge 'z'"),
    "left-out": ("left", {"g": "g", "edge": "a", "out": "zz"}, "no edge 'zz'"),
    "right-out": ("right", {"g": "g", "edge": "a", "out": "h"}, "no groupoid element 'h'"),
}


@pytest.mark.parametrize("kind", sorted(_UNKNOWN_ACTION_NAMES))
@pytest.mark.parametrize("command", _WORKSPACE_COMMANDS, ids=lambda argv: argv[0])
def test_action_entry_naming_an_unknown_name_exits_two(tmp_path, command, kind):
    """An action entry whose g, edge or out is not in the groupoid or the
    graph is malformed input for every workspace command, and the message
    names the side, the entry and the name."""
    side, entry, missing = _UNKNOWN_ACTION_NAMES[kind]
    doc = json.loads(json.dumps(FIXTURE_DOCS["swap"]))
    doc["action"][side].append(entry)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    argv = ["a" if arg == "{edge}" else arg for arg in command]
    code, report = run(tmp_path, *argv, "--workspace", str(path))
    assert code == 2
    assert report["error"] == "MalformedTableError"
    assert report["message"] == f"action.{side}[2]: {missing}"


def _edge_doc(**edge):
    return {
        "kgraph": {
            "k": 1,
            "vertices": ["v"],
            "edges": [{"id": "a", "color": 1, "src": "v", "dst": "v", **edge}],
            "squares": [],
        },
        "bounds": {"degree": [2]},
    }


@pytest.mark.parametrize(
    "doc, message",
    [
        (_edge_doc(color=0), "color 0"),
        (_edge_doc(color=2), "color 2"),
        ([_edge_doc()], "JSON object"),
        (_edge_doc(dst="w"), "undeclared vertex"),
        (
            {"kgraph": {**FIXTURE_DOCS["k1"]["kgraph"], "squares": [{"ef": ["e"], "fe": ["f", "e"]}]}},
            "kgraph.squares[0].ef: a square side is two edges, not ['e']",
        ),
        (
            {"kgraph": {**_edge_doc()["kgraph"], "vertices": [["v"]]}},
            "kgraph.vertices[0]: a name is a JSON string, not ['v']",
        ),
        (_edge_doc(id=["a"]), "kgraph.edges[0].id: a name is a JSON string, not ['a']"),
        (
            {"kgraph": {**_edge_doc()["kgraph"], "vertices": "vw",
                        "edges": [{"id": x, "color": 1, "src": x, "dst": x} for x in "vw"]}},
            "kgraph.vertices: not a JSON array: 'vw'",
        ),
    ],
    ids=[
        "color-0", "color-above-rank", "top-level-array", "undeclared-vertex",
        "one-edge-square-side", "list-vertex-name", "list-edge-id", "string-vertex-list",
    ],
)
def test_malformed_presentation_exits_two(tmp_path, doc, message):
    """A presentation that names a color outside 1..k or an undeclared
    vertex, a square side that is not two edges, a name that is not a
    string, a vertex list that is not an array, or a document that is not an
    object, is malformed input: exit 2, not a traceback and not a verdict."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code, report = run(tmp_path, "validate", "--workspace", str(path))
    assert code == 2
    assert report["error"] in ("MalformedSquaresError", "ZsalgError")
    assert message in report["message"]


def _groupoid_doc(**section):
    doc = json.loads(json.dumps(FIXTURE_DOCS["swap"]))
    doc["groupoid"].update(section)
    return doc


_SWAP_MORPHISMS = FIXTURE_DOCS["swap"]["groupoid"]["morphisms"]


@pytest.mark.parametrize(
    "doc, message",
    [
        (_groupoid_doc(units="v"), "groupoid.units: not a JSON array: 'v'"),
        (
            _groupoid_doc(morphisms=[_SWAP_MORPHISMS[0], {**_SWAP_MORPHISMS[1], "id": ["g"]}]),
            "groupoid.morphisms[1].id: a name is a JSON string, not ['g']",
        ),
        (
            _groupoid_doc(morphisms=[_SWAP_MORPHISMS[0], "g"]),
            "groupoid.morphisms[1]: not a JSON object: 'g'",
        ),
        (
            _groupoid_doc(compose=[["g", "g"]]),
            "groupoid.compose[0]: a compose entry is three names, not ['g', 'g']",
        ),
        (_groupoid_doc(compose={"a": 1}), "groupoid.compose: not a JSON array: {'a': 1}"),
        (
            _groupoid_doc(compose=[["g", "g", 1]]),
            "groupoid.compose[0][2]: a name is a JSON string, not 1",
        ),
        (_groupoid_doc(compose=[["g", "g", "zz"]]), "groupoid.compose[0][2]: no morphism 'zz'"),
        (_groupoid_doc(compose=[["zz", "g", "v"]]), "groupoid.compose[0][0]: no morphism 'zz'"),
        (
            _groupoid_doc(morphisms=[_SWAP_MORPHISMS[0], {**_SWAP_MORPHISMS[1], "inv": "zz"}]),
            "groupoid.morphisms[1].inv: no morphism 'zz'",
        ),
        (
            _groupoid_doc(morphisms=[_SWAP_MORPHISMS[0], {**_SWAP_MORPHISMS[1], "dst": "zz"}]),
            "groupoid.morphisms[1].dst: no unit 'zz'",
        ),
        (
            _groupoid_doc(morphisms=[_SWAP_MORPHISMS[0], {**_SWAP_MORPHISMS[1], "src": "zz"}]),
            "groupoid.morphisms[1].src: no unit 'zz'",
        ),
    ],
    ids=[
        "string-unit-list", "list-morphism-id", "string-morphism", "two-item-compose",
        "object-compose", "non-name-composite", "undeclared-composite", "undeclared-factor",
        "undeclared-inverse", "undeclared-dst", "undeclared-src",
    ],
)
def test_malformed_groupoid_section_exits_two(tmp_path, doc, message):
    """The groupoid section is checked entry by entry: a unit list that is
    not an array (a string is not read as its characters), a morphism that
    is not an object, a name that is not a string, a compose entry that is
    not three names, an inverse or compose entry naming an undeclared
    morphism, or a dst or src naming no unit is malformed input, exit 2
    naming the entry."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code, report = run(tmp_path, "validate", "--workspace", str(path))
    assert code == 2
    assert report["error"] == "MalformedTableError"
    assert report["message"] == message


@pytest.mark.parametrize(
    "command, sections, field",
    [
        ("homotopy-check", {"homotopy": {"grid": 2.5}}, "homotopy.grid"),
        ("validate", {"kgraph": _edge_doc(color=1.5)["kgraph"]}, "color"),
        ("validate", {"kgraph": {**_E2_SECTION, "k": True}}, "k"),
    ],
    ids=["grid", "color", "bool-rank"],
)
def test_integer_field_is_not_truncated(tmp_path, command, sections, field):
    """An integer field takes a JSON integer: 2.5 is not read as 2, and
    true is not read as 1."""
    code, report = run(tmp_path, command, "--workspace", _workspace(tmp_path, "e2", **sections))
    assert code == 2
    assert report["error"] == "ZsalgError"
    assert f"{field} must be an integer" in report["message"]


@pytest.mark.parametrize(
    "command, section, value, message",
    [
        ("homotopy-check", "homotopy", [11], "section 'homotopy' must be a JSON object"),
        ("validate", "bounds", [2], "section 'bounds' must be a JSON object"),
        ("concordance", "budgets", {"antichain": 6}, "workspace: unknown section 'budgets'"),
        ("validate", "kgraph", [], "section 'kgraph' must be a JSON object"),
        ("validate", "action", [], "section 'action' must be a JSON object"),
    ],
    ids=["homotopy", "bounds", "budgets", "kgraph", "action"],
)
def test_workspace_section_of_the_wrong_type_is_malformed(
    tmp_path, command, section, value, message
):
    """A kgraph, action, bounds or homotopy section that is not a JSON
    object is malformed input (exit 2), named in the message, not a
    traceback.  A budgets section, which the format no longer has, is an
    unknown section whatever its type."""
    path = _workspace(tmp_path, "e2", **{section: value})
    code, report = run(tmp_path, command, "--workspace", path)
    assert code == 2
    assert report["error"] == "ZsalgError" and message in report["message"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mce", "--mu", "a"], "--nu"),
        (["nf-mult", "--triples", "0"], "--triples"),
    ],
    ids=["mce-without-nu", "nf-mult-no-triples"],
)
def test_argument_errors_come_before_the_workspace(tmp_path, argv, flag):
    """An argument error exits 2 even on a workspace whose structure check
    fails, which would otherwise be the verdict."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"kgraph": _E2_SECTION, "groupoid": _BAD_INVERSE_Z2}))
    code, report = run(tmp_path, *argv, "--workspace", str(path))
    assert code == 2
    assert report["error"] == "ZsalgError" and flag in report["message"]


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    """main parses with the process's one parser, and a call's options do
    not reach the next call: concordance after concordance --bound 1,1 gets
    the fixture's bound back."""
    from zsalg import cli

    def no_new_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    _, default = run(tmp_path, "concordance", "--fixture", "swap2")
    _, bound_1 = run(tmp_path, "concordance", "--fixture", "swap2", "--bound", "1,1")
    _, after = run(tmp_path, "concordance", "--fixture", "swap2")
    assert (default["bound"], bound_1["bound"]) == ([2, 2], [1, 1])
    assert after == default != bound_1


def test_zs_swap2_associativity_on_the_larger_window(tmp_path):
    """zs at bound 3,3 on swap2: the associativity sweep passes on a window
    of 120 product morphisms, 1.73 M composable triples."""
    code, report = run(tmp_path, "zs", "--fixture", "swap2", "--bound", "3,3")
    assert code == 0
    (assoc,) = [c for c in report["checks"] if c["check"] == "zs_associativity"]
    assert assoc["passed"] and assoc["window"] == 120 and assoc["witness"] is None


#: e: w -> v, a loop l at w and a loop m at v; ee is not a path
_NOT_A_PATH_DOC = {
    "kgraph": {
        "k": 1,
        "vertices": ["v", "w"],
        "edges": [
            {"id": "e", "color": 1, "src": "w", "dst": "v"},
            {"id": "l", "color": 1, "src": "w", "dst": "w"},
            {"id": "m", "color": 1, "src": "v", "dst": "v"},
        ],
        "squares": [],
    },
    "bounds": {"degree": [2]},
}

_NOT_A_PATH = {
    "pair": (["e", "e"], "'e' then 'e': s(e) = 'w' is not r(e) = 'v'"),
    "edge": (["q"], "no edge 'q'"),
}


@pytest.mark.parametrize("kind", sorted(_NOT_A_PATH))
@pytest.mark.parametrize(
    "command", [["mce", "--nu", "e", "--mu"], ["enumerate", "--mu"]], ids=lambda argv: argv[0]
)
def test_edge_list_that_is_no_path_exits_two(tmp_path, command, kind):
    """An --mu that is not a path is malformed input; the message names
    the unknown edge or the pair that does not meet."""
    edges, message = _NOT_A_PATH[kind]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(_NOT_A_PATH_DOC))
    code, report = run(tmp_path, *command, ",".join(edges), "--workspace", str(path))
    assert code == 2
    assert report["error"] == "NotAPathError"
    assert report["message"] == message


@pytest.mark.parametrize("kind", sorted(_NOT_A_PATH))
@pytest.mark.parametrize("column", ["c1", "c2"])
@pytest.mark.parametrize(
    "command, section",
    [
        ("cocycle-check", "cocycle"),
        ("rep-check", "cocycle"),
        ("homotopy-check", "homotopy.generator"),
        ("rep-check", "homotopy.generator"),
    ],
)
def test_table_entry_that_is_no_path_exits_two(tmp_path, command, section, column, kind):
    """A cocycle or generator table entry that is not a path is malformed
    input; the message names the entry, then the edge or the pair."""
    edges, message = _NOT_A_PATH[kind]
    bad = {"c1": ["l"], "c2": ["l"], "phase": "1/4"}
    bad[column] = edges
    table = {"table": [{"c1": ["m"], "c2": ["m"], "phase": "1/4"}, bad]}
    doc = dict(_NOT_A_PATH_DOC)
    if section == "cocycle":
        doc["cocycle"] = table
    else:
        doc["homotopy"] = {"generator": table, "grid": 3}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code, report = run(tmp_path, command, "--workspace", str(path))
    assert code == 2
    assert report["error"] == "NotAPathError"
    assert report["message"] == f"{section}.table[1].{column}: {message}"


@pytest.mark.parametrize(
    "command, section",
    [
        ("cocycle-check", "cocycle"),
        ("rep-check", "cocycle"),
        ("homotopy-check", "homotopy.generator"),
        ("rep-check", "homotopy.generator"),
    ],
)
def test_table_entry_at_an_unknown_vertex_exits_two(tmp_path, command, section):
    """A table entry {"vertex": v} at a vertex the graph does not have is
    malformed input, named with its entry, as a non-path edge list is."""
    table = {"table": [{"c1": {"vertex": "zz"}, "c2": ["m"], "phase": "1/4"}]}
    doc = dict(_NOT_A_PATH_DOC)
    if section == "cocycle":
        doc["cocycle"] = table
    else:
        doc["homotopy"] = {"generator": table, "grid": 3}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code, report = run(tmp_path, command, "--workspace", str(path))
    assert code == 2
    assert report["error"] == "NotAPathError"
    assert report["message"] == f"{section}.table[0].c1: no vertex 'zz'"


def test_unknown_vertex_entry_interns_no_path():
    """Refusing {"vertex": "zz"} builds no vertex path at 'zz'."""
    entry = {"c1": {"vertex": "zz"}, "c2": ["m"], "phase": 0}
    doc = dict(_NOT_A_PATH_DOC, cocycle={"table": [entry]})
    ws = Workspace(doc)
    before = len(ws.graph.morphs)
    with pytest.raises(NotAPathError, match="no vertex 'zz'"):
        ws.cocycle()
    assert len(ws.graph.morphs) == before
    assert all(p.rng != "zz" for p in ws.graph.morphs)


def test_nf_mult_makes_five_products_per_triple(tmp_path, monkeypatch):
    """nf-mult computes x * y once per triple, for both the associativity
    and the involution check: 5 products per triple, not 6."""
    calls = []
    mul = AlgebraModel.mul

    def counting(self, x, y):
        calls.append((x, y))
        return mul(self, x, y)

    monkeypatch.setattr(AlgebraModel, "mul", counting)
    code, report = run(tmp_path, "nf-mult", "--fixture", "swap", "--triples", "7")
    assert code == 0
    (check,) = report["checks"]
    assert check["associative"] == check["anti_multiplicative"] == "7/7"
    assert len(calls) == 5 * 7


def test_concordance_needs_rank_one(tmp_path):
    """Concordance keeps every color but the last, so a 0-graph has no
    subcategory to check: malformed input."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"kgraph": {"k": 0, "vertices": ["v"]}}))
    code, report = run(tmp_path, "concordance", "--workspace", str(path))
    assert code == 2
    assert report["error"] == "ZsalgError"
    assert report["message"] == "concordance needs rank >= 1, not 0"


def test_empty_table_path_exits_two(tmp_path):
    """An empty edge list names no vertex path; {"vertex": v} does."""
    entry = {"c1": [], "c2": ["m"], "phase": "1/4"}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(dict(_NOT_A_PATH_DOC, cocycle={"table": [entry]})))
    code, report = run(tmp_path, "cocycle-check", "--workspace", str(path))
    assert code == 2
    assert report["error"] == "NotAPathError"
    assert report["message"] == "cocycle.table[0].c1: an empty edge list names no vertex"


def _without(doc, *path):
    """A copy of doc with the key or item at path deleted."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    del functools.reduce(operator.getitem, head, doc)[last]
    return doc


_PERTURBED_UNIT_GROUPOID = CLI_WORKSPACES["perturbed_unit_groupoid"]


def _missing(command, doc, path, error, message):
    """A test_missing_required_key_exits_two case, named by its message."""
    return pytest.param(command, _without(doc, *path), error, message, id=message)


@pytest.mark.parametrize(
    "command, doc, error, message",
    [
        *(
            _missing("validate", FIXTURE_DOCS["swap"], ("kgraph", *path), "MalformedSquaresError",
                     f"kgraph{where}: no {path[-1]!r}")
            for path, where in [
                (("k",), ""),
                (("vertices",), ""),
                *((("edges", 0, key), ".edges[0]") for key in ("id", "color", "src", "dst")),
            ]
        ),
        *(
            _missing("validate", FIXTURE_DOCS["k1"], ("kgraph", "squares", 0, side),
                     "MalformedSquaresError", f"kgraph.squares[0]: no {side!r}")
            for side in ("ef", "fe")
        ),
        *(
            _missing("validate", FIXTURE_DOCS["swap"], ("groupoid", *path), "MalformedTableError",
                     f"groupoid{where}: no {path[-1]!r}")
            for path, where in [
                (("units",), ""),
                (("morphisms",), ""),
                *((("morphisms", 1, key), ".morphisms[1]") for key in ("id", "src", "dst", "inv")),
            ]
        ),
        *(
            _missing("validate", FIXTURE_DOCS["swap"], ("action", side, 0, key),
                     "MalformedTableError", f"action.{side}[0]: no {key!r}")
            for side in ("left", "right")
            for key in ("g", "edge", "out")
        ),
        *(
            _missing("cocycle-check", _PERTURBED_UNIT_GROUPOID, ("cocycle", "table", 0, key),
                     "ZsalgError", f"cocycle.table[0]: no {key!r}")
            for key in ("c1", "c2", "phase")
        ),
        _missing("cocycle-check", _PERTURBED_UNIT_GROUPOID, ("cocycle", "table"), "ZsalgError",
                 "cocycle: no 'rotation' or 'table'"),
        _missing("homotopy-check", FIXTURE_DOCS["k1"], ("homotopy", "generator", "rotation"),
                 "ZsalgError", "homotopy.generator: no 'rotation' or 'table'"),
    ],
)
def test_missing_required_key_exits_two(tmp_path, command, doc, error, message):
    """A required key that is missing is malformed input named by its
    path, in its section's error class: not a bare KeyError."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code, report = run(tmp_path, command, "--workspace", str(path))
    assert code == 2
    assert (report["error"], report["message"]) == (error, message)


def _mutations(doc):
    """(path, change, copy) for each copy of doc with one key or item
    deleted, or set to null, [], {} or "zz"."""

    def paths(x, path):
        items = x.items() if type(x) is dict else enumerate(x) if type(x) is list else ()
        for key, child in items:
            yield (*path, key)
            yield from paths(child, (*path, key))

    for path in paths(doc, ()):
        yield path, "deleted", _without(doc, *path)
        for value in (None, [], {}, "zz"):
            copy = json.loads(json.dumps(doc))
            *head, last = path
            functools.reduce(operator.getitem, head, copy)[last] = value
            yield path, f"set to {json.dumps(value)}", copy


_PYTHON_TYPES = {"KeyError", "ValueError", "TypeError"}


def test_one_value_mutations_exit_0_1_or_2_with_a_named_error(tmp_path):
    """Each value of three workspaces, deleted or set to null, [], {} or
    "zz" in turn: validate and cocycle-check exit 0, 1 or 2, nothing raises
    out of main, and an exit-2 report is a toolkit error whose message is
    the toolkit's own, never Python's text for a KeyError, ValueError or
    TypeError."""
    docs = [
        FIXTURE_DOCS["swap"],
        _PERTURBED_UNIT_GROUPOID,
        {**FIXTURE_DOCS["k1"], "bounds": {"degree": [1, 1]}},
    ]
    ws, out = tmp_path / "ws.json", tmp_path / "r.json"
    runs, bad = 0, []
    for doc in docs:
        for path, change, copy in _mutations(doc):
            ws.write_text(json.dumps(copy))
            for command in ("validate", "cocycle-check"):
                try:
                    code = main([command, "--workspace", str(ws), "--out", str(out)])
                except Exception as exc:
                    exc.add_note(f"{command} with {path} {change}")
                    raise
                runs += 1
                report = json.loads(out.read_text())
                message = report.get("message", "")
                _, malformed, rest = message.partition("malformed workspace section: ")
                if (
                    code not in (0, 1, 2)
                    or report.get("error") in _PYTHON_TYPES
                    or malformed and not re.fullmatch(r"\S+ must be an integer, not .+", rest)
                ):
                    bad.append((command, path, change, code, report.get("error"), message))
    assert runs > 1000
    assert bad == []


def test_an_internal_error_is_not_malformed_input(tmp_path, monkeypatch):
    """A KeyError inside a check is a bug: it propagates out of main with
    its traceback, and no report is written."""
    from zsalg import cli

    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "verify_cocycle", broken)
    out = tmp_path / "r.json"
    with pytest.raises(KeyError, match="internal"):
        main(["cocycle-check", "--fixture", "k1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "content, error, message",
    [
        (b'{"kgraph": ', "JSONDecodeError", "Expecting value"),
        (b'{"kgraph": {"k": 1, "vertices": ["v\xff"]}}', "ZsalgError", "can't decode byte 0xff"),
        (b'{"kgraph": {"k": ' + b"1" * 5000 + b"}}", "ZsalgError", "Exceeds the limit"),
        (b'{"kgraph": ' + b"[" * 100000 + b"]" * 100000 + b"}", "ZsalgError", "nested too deep"),
        (None, "FileNotFoundError", "No such file"),
    ],
    ids=["syntax", "not-utf-8", "long-integer", "deep-nesting", "missing-file"],
)
def test_unreadable_workspace_file_exits_two(tmp_path, content, error, message):
    """A workspace file that is missing, is not JSON, is not UTF-8 text,
    holds an integer too long to read or nests arrays too deep to read is
    malformed input: exit 2 with a report naming the file, not a
    traceback."""
    path = tmp_path / "ws.json"
    if content is not None:
        path.write_bytes(content)
    code, report = run(tmp_path, "validate", "--workspace", str(path))
    assert code == 2
    assert report["error"] == error and message in report["message"]
    if error == "ZsalgError":
        assert report["message"].startswith(f"{path}: ")


@pytest.mark.parametrize(
    "command, sections, error, message",
    [
        ("cocycle-check", {"cocyle": {"rotation": [[0, 0], [0, 0]]}},
         "ZsalgError", "workspace: unknown section 'cocyle'"),
        ("cocycle-check", {"bounds": {"degre": [1, 1]}},
         "ZsalgError", "bounds: unknown key 'degre'"),
        ("homotopy-check", {"homotopy": {"grid": 11, "comment": "eleven"}},
         "ZsalgError", "homotopy: unknown key 'comment'"),
        ("cocycle-check", {"cocycle": {"table": [
            {"c1": {"vertex": "v", "at": 0}, "c2": ["e"], "phase": 0}]}},
         "ZsalgError", "cocycle.table[0].c1: unknown key 'at'"),
        ("validate", {"kgraph": {**FIXTURE_DOCS["k1"]["kgraph"], "rank": 2}},
         "MalformedSquaresError", "kgraph: unknown key 'rank'"),
        ("validate", {"edges?": []},
         "ZsalgError", "workspace: unknown section 'edges?'"),
    ],
    ids=["section", "bounds-key", "comment-key", "path-key", "kgraph-key", "marked-name"],
)
def test_unknown_workspace_key_is_malformed(tmp_path, command, sections, error, message):
    """A key that the workspace format does not declare, at any level, is
    malformed input named by its path and its section's error: a misspelt
    section or key is not read as an absent one, which would run the check
    on a default (cocycle-check passed on the trivial cocycle)."""
    code, report = run(tmp_path, command, "--workspace", _workspace(tmp_path, "k1", **sections))
    assert code == 2
    assert report["error"] == error and report["message"] == message


@pytest.mark.parametrize("exists", [True, False], ids=["workspace", "missing-file"])
def test_fixture_and_workspace_together_are_an_argument_error(tmp_path, exists):
    """Two workspace sources are an argument error, raised before the
    file is read: neither one silently wins."""
    path = _workspace(tmp_path, "k1") if exists else str(tmp_path / "missing.json")
    code, report = run(tmp_path, "validate", "--fixture", "swap", "--workspace", path)
    assert code == 2
    assert report["error"] == "ZsalgError" and "not both" in report["message"]


@pytest.mark.parametrize(
    "flag, error",
    [("--fixture", "ZsalgError"), ("--workspace", "FileNotFoundError")],
    ids=["fixture", "workspace"],
)
def test_empty_source_name_is_used(tmp_path, flag, error):
    """An empty --fixture or --workspace is a name that names nothing, not
    an absent flag: the run does not fall back to k1."""
    code, report = run(tmp_path, "validate", flag, "")
    assert code == 2 and report["error"] == error


def test_homotopy_check_passes_on_a_large_grid(tmp_path):
    """The grid-family residual does not grow with the grid: k1's valid
    homotopy passes at 10,000 grid points, with the residual of a few."""
    code, report = run(tmp_path, "homotopy-check", "--fixture", "k1", "--grid", "10000")
    assert code == 0
    relations = [c for c in report["checks"] if c["check"] == "homotopy_relations"]
    assert relations[0]["details"]["IR_commutation_residual"] < 1e-15
