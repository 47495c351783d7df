"""Pinned CLI reports: every command but `all` gives the report it gave when
the digests were taken, so a simplification that changes any verdict,
witness or report field fails here.

Each case runs in process at --seed 0.  Its digest is the SHA-256 of the
exit code and the report, with every float rounded to 12 decimals.  Runs
that take over about a second are left out: `homotopy-check` on swap2 at
its default bound (it runs at a smaller bound instead), and `nf-mult` at its
default 1000 triples (it runs at 20).  To re-pin after an intended report
change, print `digest(argv, tmp_path)` for the changed cases.
"""

import hashlib
import json

import pytest

from zsalg.cli import main

#: k1 with its rotation generator given as a float: the tolerance path
FLOAT_K1 = {
    "kgraph": {
        "k": 2,
        "vertices": ["v"],
        "edges": [
            {"id": "e", "color": 1, "src": "v", "dst": "v"},
            {"id": "f", "color": 2, "src": "v", "dst": "v"},
        ],
        "squares": [{"ef": ["e", "f"], "fe": ["f", "e"]}],
    },
    "homotopy": {"generator": {"rotation": [[0, 0], [0.25, 0]]}, "grid": 11},
    "bounds": {"degree": [2, 2]},
}

#: the free monoid on {a, b} with phase 1/10 on (a, b) alone: not a cocycle,
#: and as a homotopy generator not additive
PERTURBED_E2 = {
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

#: Z/2 flipping a and b, with a <| g = v: the interchange law breaks at
#: (g, g, a), so the matched-pair check and R1 fail
BROKEN_FLIP = {
    "kgraph": PERTURBED_E2["kgraph"],
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

#: PERTURBED_E2 over an explicit one-unit groupoid
PERTURBED_UNIT_GROUPOID = {
    **PERTURBED_E2,
    "groupoid": {
        "units": ["v"],
        "morphisms": [{"id": "v", "src": "v", "dst": "v", "inv": "v"}],
        "compose": [],
    },
}

WORKSPACES = {
    "float_k1": FLOAT_K1,
    "perturbed_e2": PERTURBED_E2,
    "broken_flip": BROKEN_FLIP,
    "perturbed_unit_groupoid": PERTURBED_UNIT_GROUPOID,
}

_QUICK = ["validate", "enumerate", "mce", "zs", "concordance", "cocycle-check", "rep-check"]
_NF = ["nf-mult", "--triples", "20"]
#: the failing workspaces: FAIL paths of validate_category on the k-graph
#: and of zs associativity on the product
_FAILING = ["validate", "enumerate", "zs", "concordance", "cocycle-check", "rep-check"]

CASES = {
    **{f"{cmd}-{fx}": [cmd, "--fixture", fx] for fx in ("k1", "e2", "swap") for cmd in _QUICK},
    **{f"{cmd}-swap2": [cmd, "--fixture", "swap2"] for cmd in _QUICK},
    **{f"nf-mult-{fx}": [*_NF, "--fixture", fx] for fx in ("k1", "e2", "swap", "swap2")},
    "homotopy-check-k1": ["homotopy-check", "--fixture", "k1"],
    "mce-k1-e-f": ["mce", "--fixture", "k1", "--mu", "e", "--nu", "f"],
    "homotopy-check-float-k1": ["homotopy-check", "--workspace", "{float_k1}"],
    "nf-mult-float-k1": ["nf-mult", "--triples", "5", "--workspace", "{float_k1}"],
    "counterexample": ["counterexample"],
    "cocycle-check-perturbed-e2": ["cocycle-check", "--workspace", "{perturbed_e2}"],
    "homotopy-check-perturbed-e2": ["homotopy-check", "--workspace", "{perturbed_e2}"],
    "homotopy-check-swap": ["homotopy-check", "--fixture", "swap"],
    "homotopy-check-swap-2": ["homotopy-check", "--fixture", "swap", "--bound", "2"],
    "homotopy-check-swap2-1-1": ["homotopy-check", "--fixture", "swap2", "--bound", "1,1"],
    "homotopy-check-e2-2": ["homotopy-check", "--fixture", "e2", "--bound", "2"],
    "homotopy-check-e2": ["homotopy-check", "--fixture", "e2"],
    **{
        f"{cmd}-{name.replace('_', '-')}": [cmd, "--workspace", "{" + name + "}"]
        for name in ("broken_flip", "perturbed_unit_groupoid")
        for cmd in _FAILING
    },
}

DIGESTS = {
    "cocycle-check-broken-flip": "595d154bc057cdfdaed2684b9ce9bbfa25544c88e36887dabbded90f6db84a69",
    "cocycle-check-e2": "ec9add7de3dc9bb0eee6dea30f69dda665ff683b639f0c4785ddfff6509ddd20",
    "cocycle-check-k1": "198c14476e6699ef6aab1e8b16766721e14d99708013bbfd62958eaa6ec3d72a",
    "cocycle-check-perturbed-e2": "23da8ad6dca142f806fe3b696c60d93751ad1d5d155e01b59d7ed5e5513f5402",
    "cocycle-check-perturbed-unit-groupoid": "23da8ad6dca142f806fe3b696c60d93751ad1d5d155e01b59d7ed5e5513f5402",
    "cocycle-check-swap": "e4171a8fcb35ac31da91a13d317cc568369d3d1da9d1a70c40708a59c9239718",
    "cocycle-check-swap2": "a49a1d8f9961299b046993bd5239be4606c9868bc4832f88eb99ae3abf28a9bc",
    "concordance-broken-flip": "aa32799e5a6952d1b7b6da4739f52a6a15997654c8d2bbb0f4c9227991f2ade8",
    "concordance-e2": "0d49bb1acf42113523cb59838b8323993cd67ac7e06e0f83486cecc667efff4d",
    "concordance-k1": "64b12db3d4488def49d70f7ad374365c76b9fb40d46cfb3964253ccdbc54e420",
    "concordance-perturbed-unit-groupoid": "5eedc69f9119ed73a4b3cca504b7a2219f9dbef5cff53c65b0714f7623a1050b",
    "concordance-swap": "62b71db3054b0bb83160046aa66d0ace2a8ddb3557624865bceeba969bd8b938",
    "concordance-swap2": "3427b87971d529df9a8d655e880353a176c336a7189a08aededa62b65771662c",
    "counterexample": "7448a97c464e91aa15ac142283a2a0743ea355a95845b1f72f3b15f649cf2bb7",
    "enumerate-broken-flip": "67ae63cfc8291b6f08e6baac61df11bdae94acbfd983c655bb578e1abc4c3a0d",
    "enumerate-e2": "5e3200303dd73fe00f6984f545e9e5db1ebac6a498ea6e8ff32cf6a10efcc3ca",
    "enumerate-k1": "a199399937c5acb9c2810251386dec94d9385fd0ffc47ab2ff78a5009977db8a",
    "enumerate-perturbed-unit-groupoid": "67ae63cfc8291b6f08e6baac61df11bdae94acbfd983c655bb578e1abc4c3a0d",
    "enumerate-swap": "5e3200303dd73fe00f6984f545e9e5db1ebac6a498ea6e8ff32cf6a10efcc3ca",
    "enumerate-swap2": "e106c5d950bc9215e8de671c2d82b506f662c68bbb5bd9ba71d0eb155cd48e8e",
    "homotopy-check-e2": "a0e7b1ab551c51ddcb41339f9ab7427d4faa197c65c8eb6b5e8b6cf765aa1272",
    "homotopy-check-e2-2": "52b04ad70f427e56e8fdf953252c4f29e4cc6e9e4aca2f7c6488b1881fdc67c4",
    "homotopy-check-float-k1": "c6a44c3b018c5e9b1d084d7a4b95ea5575eb9f10a4452862762fdd6a09da4d61",
    "homotopy-check-k1": "c6a44c3b018c5e9b1d084d7a4b95ea5575eb9f10a4452862762fdd6a09da4d61",
    "homotopy-check-perturbed-e2": "a549fd48d6c1ab7f80fe585b5d0a01f1588aa46040f3ea22d6723274e7cfa2cb",
    "homotopy-check-swap": "a0e7b1ab551c51ddcb41339f9ab7427d4faa197c65c8eb6b5e8b6cf765aa1272",
    "homotopy-check-swap-2": "52b04ad70f427e56e8fdf953252c4f29e4cc6e9e4aca2f7c6488b1881fdc67c4",
    "homotopy-check-swap2-1-1": "327827eb059a38809c16c27131a1c692d2bdba856f488ef26fb4b5058209c4d8",
    "mce-e2": "7337a19244cbd44e47c3590a1f716709fc167aa0dd6813d2b9a612475eff8eb3",
    "mce-k1": "7337a19244cbd44e47c3590a1f716709fc167aa0dd6813d2b9a612475eff8eb3",
    "mce-k1-e-f": "62de10919f7d8eae1a0c0fce4902fc83f3e48b693de62e5a13d7dadee90788c3",
    "mce-swap": "7337a19244cbd44e47c3590a1f716709fc167aa0dd6813d2b9a612475eff8eb3",
    "mce-swap2": "7337a19244cbd44e47c3590a1f716709fc167aa0dd6813d2b9a612475eff8eb3",
    "nf-mult-e2": "872c2e041f15b886ef60d7768a48347f60ecda43ae1d140daaa6ec701d0a3304",
    "nf-mult-float-k1": "1ed594133c013d9e93c6d69286fbba449ace86fb5848fc2099d95cfd8932b369",
    "nf-mult-k1": "4bbd4e311eaccc504555f34b771f824f6970c053ab81ba69f392284b320c5718",
    "nf-mult-swap": "872c2e041f15b886ef60d7768a48347f60ecda43ae1d140daaa6ec701d0a3304",
    "nf-mult-swap2": "4bbd4e311eaccc504555f34b771f824f6970c053ab81ba69f392284b320c5718",
    "rep-check-broken-flip": "c207368516eb8ff3d5b2c08372d906e6e5bfb44f2d9a8d4de1f5acab912a1b8f",
    "rep-check-e2": "547cde17068b382cebdfb91cfd96c54eba59ffbccd6e716b3536a3a2618cb054",
    "rep-check-k1": "7f56f348c707d216f49126a13661bae8fefb489e68e8503cad70a2c63fb51375",
    "rep-check-perturbed-unit-groupoid": "a7d7961d69108cd9bf7789f83189e6ea6fb2fa27642e71eb9ef27719f7f2f0e3",
    "rep-check-swap": "412ee6edbed99deb61f653b75fc7e63abf34687b9e74128d817b900d52f8f015",
    "rep-check-swap2": "e34d37ab51b1bb31f4e1d12c81091df5e0ecae8db8f16d2cb9d43f511eceea80",
    "validate-broken-flip": "f5917b0ee5a6398eb12da0f5c0f21b56cd56faa9355a8f07c3778e57dcd4d15c",
    "validate-e2": "6052385ccf15aa2172723bf72eced4c566e6d5e4e036ed5619c7679389a07bfb",
    "validate-k1": "0565f858bfb556f832d05b9f8373f9fd41072e02139096a95cc7060f1465205d",
    "validate-perturbed-unit-groupoid": "81a396de866af341ccc9088b71b1e8e9fd1bd56dba2db4dea1cdeb088141d786",
    "validate-swap": "c75ab0f7db2826e0feced7710b627bf0e4b63725bf6134619aebb5b94e7835eb",
    "validate-swap2": "2d1513dc91acd6158c95284138397d286258925827420db0d7d3389470ac5fc7",
    "zs-broken-flip": "338b214cd9bf20d6ff54500d0e6c7903af82d54564eceb12782f22f7ab7eae96",
    "zs-e2": "b165ef0b6aacb140eb4fd542d7bcfaf58a7a331509a2f22f75a9e40b6a742442",
    "zs-k1": "c9566a8ab4e03b24b69148baec669660878c3910741bfa5efe23f0222aa59fbf",
    "zs-perturbed-unit-groupoid": "e3427e56c18f94451488cb6cba116d8ee25fe64bfc91026a71febaf4294c84b3",
    "zs-swap": "744e4cdb1f83581d203e63988be101f28bc4cc4f80fb7260c18ba3f6803846de",
    "zs-swap2": "1bbd4b8d429f49cc04a8947f6b60c7c27a1190cf32e5cdb8b21af8775733283f",
}


def _rounded(x):
    if isinstance(x, float):
        return round(x, 12)
    if isinstance(x, list):
        return [_rounded(v) for v in x]
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    return x


def digest(argv, tmp_path):
    paths = {}
    for name, doc in WORKSPACES.items():
        paths["{" + name + "}"] = path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
    code = main([*argv, "--seed", "0", "--out", str(out)])
    report = _rounded(json.loads(out.read_text()))
    text = f"{code}\n{json.dumps(report, sort_keys=True)}"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_is_pinned(name, tmp_path):
    assert digest(CASES[name], tmp_path) == DIGESTS[name]
