"""The benchmark tracer wraps program functions by name; each must exist."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """Resolve each LAYERS entry as Tracer.install does: a function by
    getattr on its module, a method in its class's own __dict__.  A name
    that moved or was renamed would break a traced benchmark run."""
    missing = []
    for module_name, quals in load_tracer().LAYERS.items():
        module = importlib.import_module(f"zsalg.{module_name}")
        for qual in quals:
            if "." in qual:
                cls_name, attr = qual.split(".")
                found = getattr(module, cls_name, None)
                found = None if found is None else found.__dict__.get(attr)
            else:
                found = getattr(module, qual, None)
            if not callable(found):
                missing.append(f"{module_name}.{qual}")
    assert missing == []


def test_traced_run_sees_the_matrix_model():
    """A traced cli-verdicts run still passes through check_relations and
    TruncatedRep.matrix: a design that went round either would read 0."""
    root = TRACER.parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "cli-verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert result["correct"]
    assert metrics["matrixrep.check_relations.calls"] == 34
    assert metrics["matrixrep.dim.max"] == 30
