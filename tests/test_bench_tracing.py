"""The benchmark's tracer wraps twogen functions by name; a renamed or
deleted one must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS
    for module, names in tracing.FUNCTIONS.items():
        mod = importlib.import_module(f"twogen.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"twogen.{module}.{name}"
