"""The reference report set (`tools/report_set.py`) does not depend on the
hash seed: two processes at different `PYTHONHASHSEED`s give the same
digest for every case."""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_set_is_the_same_at_two_hash_seeds(tmp_path):
    """Both runs go side by side, one process each.  The set's exit codes
    split 53 / 12 / 17 (pass, violation, malformed input)."""
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"reports_{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed}
        argv = [sys.executable, str(ROOT / "tools" / "report_set.py"), str(out)]
        runs.append((out, subprocess.Popen(argv, cwd=ROOT, env=env)))
    for _, proc in runs:
        assert proc.wait(timeout=300) == 0
    first, second = (json.loads(out.read_text()) for out, _ in runs)
    assert first == second
    assert len(first) == 82
    codes = collections.Counter(code for code, _ in first.values())
    assert codes == {0: 53, 1: 12, 2: 17}
