"""The bench harness traces functions by name; a renamed function would
silently zero its per-layer metric, so every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

from dtough import structure

import helpers

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    """A fresh copy of the bench tracer module, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_a_package_callable():
    tracing = _load_tracing()
    names = [(m, f) for table in (tracing.SPANNED, tracing.COUNTED) for m, fs in table.items() for f in fs]
    assert names
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"dtough.{module}"), name, None)), f"{module}.{name}"


def test_a_traced_extend_sees_the_sentinel_search():
    # the sentinel search adds its sentinels through delaunay.extend, so a
    # span on extend books their extension under sentinel_augment
    tracing = _load_tracing()
    tracing.SPANNED["delaunay"] += ("extend",)
    _, t = helpers.random_tri(10, 3)
    _, cert = structure.max_independent_set(t)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.command(1):
        structure.sentinel_augment(t, frozenset(range(len(t))) - cert)
    assert tracer.missing == []
    by_id = {s.id: s for s in tracer.spans}
    extends = [s for s in tracer.spans if s.name == "delaunay.extend"]
    assert len(extends) == 1
    assert tracing.has_ancestor(extends[0], by_id, ("structure.sentinel_augment",))
