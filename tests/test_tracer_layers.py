"""The benchmark tracer wraps program functions by name; each must exist."""

import importlib
import importlib.util
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
