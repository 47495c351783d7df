"""Command surface: exit codes, determinism, witnesses in reports."""

import json
import math

import pytest

from zsalg.cli import main


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
    ws = {
        "kgraph": {
            "k": 1,
            "vertices": ["v"],
            "edges": [
                {"id": "a", "color": 1, "src": "v", "dst": "v"},
                {"id": "b", "color": 1, "src": "v", "dst": "v"},
            ],
            "squares": [],
        },
        "cocycle": {"table": [{"c1": ["a"], "c2": ["b"], "phase": "1/10"}]},
        "bounds": {"degree": [2]},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
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


def test_zs_broken_flip_witness(tmp_path):
    """The flip action with a <| g = v breaks the interchange law; zs
    reports the last non-associative triple of the product window."""
    e2 = {
        "k": 1,
        "vertices": ["v"],
        "edges": [
            {"id": "a", "color": 1, "src": "v", "dst": "v"},
            {"id": "b", "color": 1, "src": "v", "dst": "v"},
        ],
        "squares": [],
    }
    ws = {
        "kgraph": e2,
        "groupoid": {
            "units": ["v"],
            "morphisms": [
                {"id": "v", "src": "v", "dst": "v", "inv": "v"},
                {"id": "g", "src": "v", "dst": "v", "inv": "g"},
            ],
            "compose": [["g", "g", "v"]],
        },
        "action": {
            "left": [{"g": "g", "edge": "a", "out": "b"}, {"g": "g", "edge": "b", "out": "a"}],
            "right": [{"g": "g", "edge": "a", "out": "v"}, {"g": "g", "edge": "b", "out": "g"}],
        },
        "bounds": {"degree": [2]},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code, report = run(tmp_path, "zs", "--workspace", str(path))
    assert code == 1
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["matched_pair"]["witness"] == ["acting_interchange", "g", "g", "a"]
    assert checks["zs_associativity"]["witness"] == ["(bb|'g')", "(bb|'g')", "(bb|'v')"]


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
