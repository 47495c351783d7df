"""Digest the reference report set, to compare two checkouts byte for byte.

The set is every command but `all` at `--seed 0` on the fixtures k1, e2,
swap and swap2 and on the benchmark's workspaces
(`perfbench.workloads.CLI_WORKSPACES`), plus `counterexample`; `nf-mult`
runs at 100 triples.  Each case runs in process and is recorded as
``{case: [exit code, sha256 of the report bytes]}``.

Run from the root of a checkout, once per checkout, then diff the outputs:

    python3 tools/report_set.py reports.json

The workspace documents are written to a temporary directory; nothing under
`perfbench/` is written.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import CLI_WORKSPACES  # noqa: E402
from zsalg import cli  # noqa: E402

FIXTURES = ("k1", "e2", "swap", "swap2")


def cases(workspace_dir):
    """(case id, argv) for every run of the set, in a fixed order."""
    sources = [(name, ["--fixture", name]) for name in FIXTURES]
    for name, doc in CLI_WORKSPACES.items():
        path = os.path.join(workspace_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        sources.append((name, ["--workspace", path]))
    commands = sorted(c for c, (_, needs_ws) in cli.COMMANDS.items() if needs_ws)
    for name, source in sources:
        for command in commands:
            extra = ["--triples", "100"] if command == "nf-mult" else []
            yield f"{command}:{name}", [command, *source, "--seed", "0", *extra]
    yield "counterexample", ["counterexample", "--seed", "0"]


def digest_set():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for case, argv in cases(tmp):
            code = cli.main([*argv, "--out", report])
            with open(report, "rb") as fh:
                out[case] = [code, hashlib.sha256(fh.read()).hexdigest()]
            os.remove(report)
    return out


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/report_set.py OUT.json", file=sys.stderr)
        return 2
    digests = digest_set()
    with open(argv[0], "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
