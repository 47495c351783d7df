"""Verdict benchmark for zsalg.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mce-random --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload: time to
verdict, verdict rate, set-up time, peak memory and the share of verdicts
that match their known answers.  It also says whether each of the
workload's known-defect cases, run once outside the stream, still fails.
``--trace 1`` reports the per-layer metrics from a traced run of a fixed
prefix of the same stream (``--seconds`` is not used: the prefix is fixed so
that counts repeat exactly).  Both print the
metrics by name with their units, then one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.

The workload runs in a child process (``worker.py``) started with ``src`` on
the path, BLAS held to one thread and a fixed hash seed.  Set-up time is the
median over ``SETUP_PROBES`` fresh processes that only import zsalg and build
the inputs, half before the timed run and half after, plus the workload's own
process.  A record of the run, with its
provenance and every failed case, goes to ``.perfbench_out/``; nothing is
read or written outside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 6
#: every run ends within this many seconds, probes and worker together
RUN_LIMIT_S = 170


def main(argv=None):
    parser = argparse.ArgumentParser(description="zsalg verdict benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    spec = _load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "zsalg", "__init__.py")):
        sys.exit(f"no zsalg sources under {SRC}")
    os.makedirs(OUT_DIR, exist_ok=True)
    provenance = _provenance(args)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--seconds", str(args.seconds)]
    if args.trace:
        result = _worker(common + ["--trace"], deadline)
        expected = spec["per_layer"]
        metrics = result["metrics"]
    else:
        # half the set-up probes before the timed run and half after, so that
        # their median spans the same stretch of host speed as the run
        def probes():
            return [
                _worker(common + ["--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES // 2)
            ]

        samples = probes()
        result = _worker(common, deadline)
        samples += [result["setup_s"]] + probes()
        expected = spec["end_to_end"]
        metrics = dict(result["metrics"])
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
        result["setup_samples_s"] = samples
    provenance["numpy"] = result.pop("numpy")

    names = [m["name"] for m in expected]
    if set(metrics) != set(names):
        sys.exit(f"reported metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
    metrics = {name: metrics[name] for name in names}
    units = {m["name"]: m["unit"] for m in expected}
    for name, m in metrics.items():
        if m["unit"] != units[name]:
            sys.exit(f"{name}: unit {m['unit']!r} differs from BENCHMARK.json")

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {"provenance": provenance, **result, **summary}
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"{args.workload}: {result['attempted']} verdicts, {result['failed']} failed")
    for case_id, info in sorted(result["failures"].items()):
        print(f"  FAILED {case_id} x{info['count']}: {info['reason'].strip().splitlines()[-1]}")
    for case_id, fails in sorted(result.get("known_defects", {}).items()):
        state = "still fails" if fails else "now passes: move it back into the verdict stream"
        print(f"  known defect {case_id} (not a verdict, not timed): {state}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(out, ROOT)}")
    print(json.dumps(summary))
    return 0


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _worker(extra, deadline):
    """Run worker.py to completion; return the JSON of its last stdout line."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([ROOT, SRC]),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), *extra],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"worker {' '.join(extra)} did not finish within {RUN_LIMIT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _provenance(args):
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": 1,
    }


def _commit():
    """HEAD from the checkout's own .git, if it has one (never searched upward)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
