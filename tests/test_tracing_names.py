"""The bench harness traces functions by name; a renamed function would
silently zero its per-layer metric, so every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_a_package_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(m, f) for table in (tracing.SPANNED, tracing.COUNTED) for m, fs in table.items() for f in fs]
    assert names
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"dtough.{module}"), name, None)), f"{module}.{name}"
