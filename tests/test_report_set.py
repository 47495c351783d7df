"""The reference report set (`tools/report_set.py`) does not depend on the
hash seed: two processes at different `PYTHONHASHSEED`s give the same
digest for every case, and both give the pinned digests of
`tests/report_set_digests.json`.  A change that moves a report on purpose
re-pins that file and says which reports moved and why."""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "report_set_digests.json"


def test_report_set_is_the_same_at_two_hash_seeds(tmp_path):
    """Both runs go side by side, one process each, and both equal the
    pinned set.  The set's exit codes split 52 / 13 / 17 (pass, violation,
    malformed input)."""
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"reports_{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed}
        argv = [sys.executable, str(ROOT / "tools" / "report_set.py"), str(out)]
        runs.append((out, subprocess.Popen(argv, cwd=ROOT, env=env)))
    for _, proc in runs:
        assert proc.wait(timeout=300) == 0
    first, second = (json.loads(out.read_text()) for out, _ in runs)
    assert first == second == json.loads(PINNED.read_text())
    assert len(first) == 82
    codes = collections.Counter(code for code, _ in first.values())
    assert codes == {0: 52, 1: 13, 2: 17}
