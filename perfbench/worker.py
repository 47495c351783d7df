"""One workload in one fresh process: set-up, then a closed-loop verdict stream.

Started by ``run.py`` with the environment it prepares (``src`` on the path,
BLAS on one thread, a fixed hash seed).  Prints one JSON object on its last
line of standard output.

Modes:

* ``--setup-only``: import zsalg and build the workload's inputs, report the
  time taken, and exit.
* default: the same set-up, then verdicts one at a time, one client, each
  started when the previous one ended, in whole rounds until ``--seconds``
  have passed and at least ``MIN_VERDICTS`` verdicts are done.  The
  workload's known-defect cases, if it has any, then run once, untimed.
* ``--trace``: a fixed prefix of the stream (``TRACE_ROUNDS``) run twice on
  fresh inputs, first untraced and then through the tracer, for the
  per-layer metrics and the tracing overhead.

``--seconds`` is used only by the default mode.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from time import perf_counter

from perfbench import tracer as tracing
from perfbench import workloads

#: enough verdicts that at least ten lie beyond p90
MIN_VERDICTS = 100
#: everything a run writes: the record, the spans and each worker's workspace
#: files, which are removed when the worker ends
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _setup(name, seed, scratch):
    """Import zsalg and build the inputs; returns (workload, seconds)."""
    t0 = perf_counter()
    import zsalg  # noqa: F401

    workload = workloads.build(name, seed, scratch)
    return workload, perf_counter() - t0


def run_stream(workload, seconds=None, rounds=None, tracer=None):
    """Run verdicts in whole rounds; stop after ``rounds`` rounds, or once
    ``seconds`` have passed and ``MIN_VERDICTS`` are done."""
    latencies = array("d")
    failures = {}  # case id -> [count, first reason]
    done = 0
    start = perf_counter()
    for rnd in workload.rounds():
        for case_id, thunk in rnd:
            if tracer is not None:
                tracer.verdict = len(latencies)
            t0 = perf_counter()
            try:
                ok = thunk()
                reason = "wrong verdict"
            except Exception:  # an unexpected exception is a failed verdict
                ok = False
                reason = traceback.format_exc(limit=4)
            latencies.append(perf_counter() - t0)
            if not ok:
                entry = failures.setdefault(case_id, [0, reason])
                entry[0] += 1
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif perf_counter() - start >= seconds and len(latencies) >= MIN_VERDICTS:
            break
    return latencies, perf_counter() - start, failures


def end_to_end(latencies, wall, failures):
    attempted = len(latencies)
    failed = sum(n for n, _ in failures.values())
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "verdicts_per_s": {"value": attempted / wall, "unit": "1/s"},
        "verdict_ms.p50": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "verdict_ms.p90": {"value": deciles[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "ok_share": {"value": 1 - failed / attempted, "unit": "ratio"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = os.path.join(OUT_DIR, f"w{os.getpid()}")
    os.makedirs(scratch)
    try:
        result = _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run(args, scratch):
    if args.setup_only:
        _, setup_s = _setup(args.workload, args.seed, scratch)
        return {"setup_s": setup_s}

    if not args.trace:
        workload, setup_s = _setup(args.workload, args.seed, scratch)
        latencies, wall, failures = run_stream(workload, seconds=args.seconds)
        return {
            "known_defects": _known_defects(workload),
            "setup_s": setup_s,
            "metrics": end_to_end(latencies, wall, failures),
            "attempted": len(latencies),
            "failed": sum(n for n, _ in failures.values()),
            "failures": {k: {"count": n, "reason": r} for k, (n, r) in failures.items()},
            "timed_s": wall,
            "numpy": sys.modules["numpy"].__version__,
        }

    rounds = workloads.TRACE_ROUNDS[args.workload]
    workload, _ = _setup(args.workload, args.seed, scratch)
    plain, plain_wall, _ = run_stream(workload, rounds=rounds)
    del workload
    tracer = tracing.Tracer()
    tracer.install()
    workload, _ = _setup(args.workload, args.seed, scratch)
    traced, traced_wall, failures = run_stream(workload, rounds=rounds, tracer=tracer)
    overhead = 1 - (len(traced) / traced_wall) / (len(plain) / plain_wall)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz")
    kept = tracer.write_spans(spans_path)
    return {
        "metrics": tracer.metrics(overhead),
        "attempted": len(traced),
        "failed": sum(n for n, _ in failures.values()),
        "failures": {k: {"count": n, "reason": r} for k, (n, r) in failures.items()},
        "spans_kept": kept,
        "spans_file": os.path.basename(spans_path),
        "untraced_s": plain_wall,
        "traced_s": traced_wall,
        "numpy": sys.modules["numpy"].__version__,
    }


def _known_defects(workload):
    """Run each known-defect case once, untimed; map case id -> still fails."""
    out = {}
    for case_id, thunk in getattr(workload, "known_defects", list)():
        try:
            out[case_id] = not thunk()
        except Exception:
            out[case_id] = True
    return out


if __name__ == "__main__":
    sys.exit(main())
