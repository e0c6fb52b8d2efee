"""Per-layer spans, recorded from outside the package.

The tracer wraps public functions of the ``dtough`` modules and rebinds each
wrapper in every ``dtough`` namespace that holds the original, because
``from .exactgeom import general_position`` binds the name again in
``delaunay``, ``generate`` and ``blocking``. A span records its name, start,
end, parent and command id; spans stay in memory until the run writes them
out. ``orient`` and ``in_circle`` run millions of times, so their wrappers
only count calls. Nothing here is installed outside a traced run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple, Optional

# The functions the CLI reaches, and the ones inside them that the
# per-layer metrics name; anything else counts toward its caller's self time.
SPANNED = {
    "exactgeom": ("general_position", "general_position_added"),
    "delaunay": ("build", "verify_delaunay", "edge_angle_check", "witness_disk"),
    "structure": (
        "toughness_exhaustive", "max_independent_set", "perfect_matching",
        "sentinel_augment", "angle_audit", "planar_faces",
    ),
    "diskpath": ("find_path", "path_oracle"),
    "blocking": ("verify_blocking", "lower_bound_report", "fan_instance"),
    "generate": ("random_points", "convex_points"),
    "pointfile": ("read_points",),
    "render": ("render_svg",),
}
COUNTED = {"exactgeom": ("orient", "in_circle")}
ROOT = "cli"  # the span of one whole command


class Span(NamedTuple):
    id: int
    name: str  # "module.function", or "cli" for a command
    start: float
    end: float
    parent: Optional[int]
    cmd: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cmd = 0
        self._root: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Worker threads of the check pool start with an empty stack;
            # their spans belong to the command in flight.
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self._cmd))

        return wrapper

    def _counted(self, name: str, fn):
        per_cmd = self.counts[name]
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                per_cmd[self._cmd] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        plan = [(m, names, self._spanned) for m, names in SPANNED.items()]
        plan += [(m, names, self._counted) for m, names in COUNTED.items()]
        for module, names, make in plan:
            mod = importlib.import_module(f"dtough.{module}")
            for name in names:
                original = getattr(mod, name, None)
                if original is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                wrapper = make(f"{module}.{name}", original)
                loaded = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "dtough"]
                for ns in loaded:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))
        try:
            yield self
        finally:
            for ns, attr, original in reversed(self._patches):
                setattr(ns, attr, original)
            self._patches.clear()

    @contextmanager
    def command(self, cmd_id: int):
        """Record one command as a root span; layer spans become its children."""
        self._cmd = cmd_id
        sid = next(self._ids)
        self._root = sid
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append(Span(sid, ROOT, start, end, None, cmd_id))


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end) for s in spans}


def has_ancestor(span: Span, by_id: dict[int, Span], names: tuple[str, ...]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent)
    return False
