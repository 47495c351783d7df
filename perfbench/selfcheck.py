"""Count self-check: two traced runs at one seed must give identical counts.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py --seed 1 [--workload mce-random ...]

Compares every ``.calls`` metric and the layer counts named in
``tracer.COUNT_METRICS`` between two ``run.py --trace 1`` runs of each
workload; exits 1 and lists the differences if any count differs.  These
counts are what later changes cite beside wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.tracer import COUNT_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: m["value"] for name, m in metrics.items()
        if name.endswith(".calls") or name in COUNT_METRICS
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    bad = 0
    for workload in args.workload or list(WORKLOADS):
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        diff = sorted(k for k in first if first[k] != second.get(k))
        nonzero = sum(1 for v in first.values() if v)
        print(f"{workload}: {len(first)} counts ({nonzero} nonzero), {len(diff)} differ")
        for name in diff:
            print(f"  {name}: {first[name]} != {second[name]}")
        bad += len(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
