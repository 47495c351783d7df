"""The two verdict workloads.

``build(name, seed, scratch)`` makes a workload's inputs (this is the timed
set-up) and returns an object whose ``rounds()`` yields lists of
``(case_id, thunk)``.  A thunk computes one verdict and returns True when it
equals the answer known independently of the code under test: a theorem of
the paper, a fixture's defining data, or the independent double-extension
oracle for MCE.  The program only ever sees the generated inputs.

zsalg is imported inside ``build`` so that the set-up timer covers it.
"""

from __future__ import annotations

import itertools
import json
import os
import random

#: criterion 2's sweep at its default seed 0: graphs random_kgraph(0..19).
#: Graphs drawn at seed + i make a different workload per seed (one graph
#: with 25,600 pairs among twenty gives 83% of the pairs at seed 0, none at
#: other seeds), so the corpus is fixed and the seed draws the pair stream.
MCE_CORPUS_SEEDS = range(20)
MCE_CAP = 3
MCE_PAIR_BUDGET = 30000
MCE_ROUND = 200


def build(name, seed, scratch):
    return WORKLOADS[name](seed, scratch)


# ---------------------------------------------------------------------------
# mce-random


class MceRandom:
    """Prefix-test MCE against the double-extension oracle, pair by pair."""

    def __init__(self, seed, scratch):
        from zsalg import fixtures

        self.seed = seed
        self.cases = []  # (case_id, graph, mu, nu, same_range)
        for s in MCE_CORPUS_SEEDS:
            graph = fixtures.random_kgraph(s)
            pairs = _same_range_pairs(graph)
            self.cases.extend(
                (f"mce-g{s}-p{i}", graph, mu, nu, True) for i, (mu, nu) in enumerate(pairs)
            )
            if len(graph.vertices) > 1:
                edges = graph.morphisms((1,) * graph.k)[:5]
                cross = [(mu, nu) for mu in edges for nu in edges if mu.rng != nu.rng]
                self.cases.extend(
                    (f"mce-g{s}-x{i}", graph, mu, nu, False) for i, (mu, nu) in enumerate(cross)
                )

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            yield [self._verdict(rng.choice(self.cases)) for _ in range(MCE_ROUND)]

    @staticmethod
    def _verdict(case):
        case_id, graph, mu, nu, same = case
        if same:
            return case_id, lambda: set(graph.mce(mu, nu)) == set(graph.mce_oracle(mu, nu))
        return case_id, lambda: not graph.mce(mu, nu) and not graph.mce_oracle(mu, nu)


def _same_range_pairs(graph):
    """Criterion 2's pairs: same-range paths on the window, cap lowered until
    the pair count fits the budget, join degree inside the cap."""
    cap = (MCE_CAP,) * graph.k
    while True:
        windows = [
            [p for p in graph.morphisms(cap) if p.rng == v] for v in sorted(graph.vertices)
        ]
        if sum(len(w) ** 2 for w in windows) <= MCE_PAIR_BUDGET:
            break
        if all(c == 1 for c in cap):
            return []
        cap = tuple(max(c - 1, 1) for c in cap)
    return [
        (mu, nu)
        for window in windows
        for mu in window
        for nu in window
        if all(max(a, b) <= c for a, b, c in zip(mu.degree, nu.degree, cap))
    ]


# ---------------------------------------------------------------------------
# cli-verdicts

_E2 = {
    "k": 1,
    "vertices": ["v"],
    "edges": [
        {"id": "a", "color": 1, "src": "v", "dst": "v"},
        {"id": "b", "color": 1, "src": "v", "dst": "v"},
    ],
    "squares": [],
}
_K1_EDGES = [
    {"id": "e", "color": 1, "src": "v", "dst": "v"},
    {"id": "f", "color": 2, "src": "v", "dst": "v"},
]
_Z2 = {
    "units": ["v"],
    "morphisms": [
        {"id": "v", "src": "v", "dst": "v", "inv": "v"},
        {"id": "g", "src": "v", "dst": "v", "inv": "g"},
    ],
    "compose": [["g", "g", "v"]],
}
_PERTURBED = {"table": [{"c1": ["a"], "c2": ["b"], "phase": "1/10"}]}

#: workspaces written in set-up; each is rebuilt cold by every command
CLI_WORKSPACES = {
    # the flip action with a <| g = v: breaks the interchange law at (g, g, a)
    "broken_flip": {
        "kgraph": _E2,
        "groupoid": _Z2,
        "action": {
            "left": [{"g": "g", "edge": "a", "out": "b"}, {"g": "g", "edge": "b", "out": "a"}],
            "right": [{"g": "g", "edge": "a", "out": "v"}, {"g": "g", "edge": "b", "out": "g"}],
        },
        "bounds": {"degree": [2]},
    },
    # the free monoid on {a, b} with phase 1/10 on (a, b) alone: not a cocycle
    "perturbed_unit_groupoid": {
        "kgraph": _E2,
        "groupoid": {
            "units": ["v"],
            "morphisms": [{"id": "v", "src": "v", "dst": "v", "inv": "v"}],
            "compose": [],
        },
        "cocycle": _PERTURBED,
        "bounds": {"degree": [2]},
    },
    "perturbed": {"kgraph": _E2, "cocycle": _PERTURBED, "bounds": {"degree": [2]}},
    # a 2-graph with an e-f path and no square to commute it: malformed
    "empty_squares": {
        "kgraph": {"k": 2, "vertices": ["v"], "edges": _K1_EDGES, "squares": []},
        "bounds": {"degree": [2, 2]},
    },
    # k1 with the rotation generator given as a float: tolerance path
    "float_k1": {
        "kgraph": {
            "k": 2,
            "vertices": ["v"],
            "edges": _K1_EDGES,
            "squares": [{"ef": ["e", "f"], "fe": ["f", "e"]}],
        },
        "homotopy": {"generator": {"rotation": [[0, 0], [0.25, 0]]}, "grid": 11},
        "bounds": {"degree": [2, 2]},
    },
}

#: the non-concordance witness a.(1,e) = b.(1,e) = (1,a) of the paper
COUNTEREXAMPLE_WITNESS = ["a", "b", "(1|'')", "(1|'')"]


def _has_witness(report, check, witness, key=lambda w: w):
    return any(
        c.get("check") == check and not c.get("passed") and key(c.get("witness")) == witness
        for c in report.get("checks", [])
    )


def _path_parts(witness):
    """A cocycle witness with product morphisms "(p|'u')" reduced to the path
    p, so that the same triple reads alike on a k-graph and on its product."""
    return [w[1:].split("|")[0] if w.startswith("(") else w for w in witness or ()]


def _all_pass(report):
    return report.get("verdict") == "pass" and all(c.get("passed") for c in report["checks"])


def _batch(n):
    def check(report):
        batch = report["checks"][0]
        return batch["associative"] == f"{n}/{n}" and batch["anti_multiplicative"] == f"{n}/{n}"

    return check


#: (case id, argv, exit code, report check); "{ws:name}" names a workspace
#: file and "{seed}" the per-pass nf-mult seed.  The count is odd (23), so
#: that p50 is the middle command's own median (validate swap2) rather than
#: the midpoint of the slowest run of one command and the fastest of the
#: next, which are about twice apart.
CLI_CASES = [
    ("validate-swap", ["validate", "--fixture", "swap"], 0, _all_pass),
    ("validate-swap2", ["validate", "--fixture", "swap2"], 0, _all_pass),
    ("enumerate-e2", ["enumerate", "--fixture", "e2"], 0,
     lambda r: r["enumeration"]["paths"]["v|2"] == ["aa", "ab", "ba", "bb"]),
    ("mce-k1-e-f", ["mce", "--fixture", "k1", "--mu", "e", "--nu", "f"], 0,
     lambda r: r["mce"] == ["ef"] and r["oracle"] == ["ef"]),
    # distinct edges of the free monoid on {a, b} have no common extension
    ("mce-e2-a-b", ["mce", "--fixture", "e2", "--mu", "a", "--nu", "b"], 0,
     lambda r: r["mce"] == [] and r["oracle"] == []),
    ("zs-swap", ["zs", "--fixture", "swap"], 0, _all_pass),
    ("zs-swap2", ["zs", "--fixture", "swap2"], 0, _all_pass),
    ("concordance-k1", ["concordance", "--fixture", "k1"], 0, _all_pass),
    ("concordance-swap2", ["concordance", "--fixture", "swap2"], 0, _all_pass),
    ("cocycle-check-k1", ["cocycle-check", "--fixture", "k1"], 0, _all_pass),
    ("homotopy-check-k1", ["homotopy-check", "--fixture", "k1"], 0, _all_pass),
    ("homotopy-check-float-k1", ["homotopy-check", "--workspace", "{ws:float_k1}"], 0, _all_pass),
    ("nf-mult-swap", ["nf-mult", "--fixture", "swap", "--triples", "50", "--seed", "{seed}"],
     0, _batch(50)),
    ("nf-mult-k1", ["nf-mult", "--fixture", "k1", "--triples", "10", "--seed", "{seed}"],
     0, _batch(10)),
    ("nf-mult-float-k1",
     ["nf-mult", "--workspace", "{ws:float_k1}", "--triples", "10", "--seed", "{seed}"],
     0, _batch(10)),
    ("rep-check-k1", ["rep-check", "--fixture", "k1"], 0, _all_pass),
    ("rep-check-swap", ["rep-check", "--fixture", "swap"], 0, _all_pass),
    ("counterexample", ["counterexample"], 1,
     lambda r: _has_witness(r, "concordant", COUNTEREXAMPLE_WITNESS)),
    ("validate-broken-flip", ["validate", "--workspace", "{ws:broken_flip}"], 1,
     lambda r: _has_witness(r, "matched_pair", ["acting_interchange", "g", "g", "a"])),
    ("zs-broken-flip", ["zs", "--workspace", "{ws:broken_flip}"], 1,
     lambda r: _has_witness(r, "matched_pair", ["acting_interchange", "g", "g", "a"])),
    ("cocycle-check-perturbed-unit-groupoid",
     ["cocycle-check", "--workspace", "{ws:perturbed_unit_groupoid}"], 1,
     lambda r: _has_witness(r, "cocycle[table]", ["identity", "a", "a", "b"], _path_parts)),
    ("validate-empty-squares", ["validate", "--workspace", "{ws:empty_squares}"], 2,
     lambda r: r.get("exit") == 2 and "error" in r),
    ("zs-empty-squares", ["zs", "--workspace", "{ws:empty_squares}"], 2,
     lambda r: r.get("exit") == 2 and "error" in r),
]

#: cases whose true answer the program does not give at this commit, in the
#: form of CLI_CASES.  A verdict stream may hold no failing operation, so each
#: runs once after the timed phase, outside the stream and its metrics, and
#: the run reports whether it still fails.  Once it passes, it belongs back in
#: CLI_CASES (with a fast command taken out, to keep the count odd).
#:
#: cocycle-check on the perturbed table without a groupoid section exits 0:
#: Workspace._decode_pathlike keys the table by zs.from_path(...) while
#: cmd_cocycle_check verifies on the bare k-graph, so every lookup misses.
CLI_KNOWN_DEFECTS = [
    ("cocycle-check-perturbed", ["cocycle-check", "--workspace", "{ws:perturbed}"], 1,
     lambda r: _has_witness(r, "cocycle[table]", ["identity", "a", "a", "b"], _path_parts)),
]


class CliVerdicts:
    """One in-process ``zsalg`` command per verdict; the known answer is the
    exit code and, where one is defined, the witness in the report."""

    def __init__(self, seed, scratch):
        import zsalg.cli  # noqa: F401  (the set-up timer covers the import)

        self.seed = seed
        self.scratch = scratch
        self.paths = {}
        for name, doc in CLI_WORKSPACES.items():
            path = os.path.join(scratch, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.paths[name] = path
        self.out = os.path.join(scratch, "report.json")

    def rounds(self):
        rng = random.Random(self.seed)
        for n in itertools.count():
            cases = list(CLI_CASES)
            rng.shuffle(cases)
            nf_seed = str(self.seed * 1000 + n)
            yield self._thunks(cases, nf_seed)

    def known_defects(self):
        return self._thunks(CLI_KNOWN_DEFECTS, str(self.seed))

    def _thunks(self, cases, nf_seed):
        return [
            (case_id, lambda a=self._argv(argv, nf_seed), e=code, c=check: self._run(a, e, c))
            for case_id, argv, code, check in cases
        ]

    def _argv(self, argv, nf_seed):
        out = []
        for arg in argv:
            if arg.startswith("{ws:"):
                arg = self.paths[arg[4:-1]]
            elif arg == "{seed}":
                arg = nf_seed
            out.append(arg)
        return out + ["--out", self.out]

    def _run(self, argv, expected_code, check):
        from zsalg import cli

        if os.path.exists(self.out):
            os.remove(self.out)
        code = cli.main(argv)
        with open(self.out) as fh:
            report = json.load(fh)
        return code == expected_code and check(report)


WORKLOADS = {
    "mce-random": MceRandom,
    "cli-verdicts": CliVerdicts,
}

#: rounds run by a traced run: a fixed prefix of the stream, so that counts
#: repeat exactly across runs at one seed
TRACE_ROUNDS = {"mce-random": 50, "cli-verdicts": 1}
