"""Static SVG rendering of triangulations, disks, paths, and blockers.

Pure string assembly, deterministic for identical inputs. Exact coordinates
become floats, printed to six decimal places, here and only here; the
drawing is documentation, never evidence. The y axis is flipped so pictures match the usual mathematical
orientation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .delaunay import Triangulation
from .exactgeom import Disk, Point

_CANVAS = 640.0


def _fmt(value: float) -> str:
    return f"{value:.6f}"


class _Frame:
    """Affine map from model space to a padded, y-flipped canvas."""

    def __init__(self, xs: list[float], ys: list[float]):
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
        span = max(max_x - min_x, max_y - min_y) or 1.0
        pad = 0.06 * span
        self.scale = _CANVAS / (span + 2 * pad)
        self.min_x = min_x - pad
        self.max_y = max_y + pad
        self.width = (max_x - min_x + 2 * pad) * self.scale
        self.height = (max_y - min_y + 2 * pad) * self.scale

    def to(self, p: Point) -> tuple[float, float]:
        return (
            (float(p.x) - self.min_x) * self.scale,
            (self.max_y - float(p.y)) * self.scale,
        )


def render_svg(
    tri: Triangulation,
    *,
    hollow: frozenset[int] = frozenset(),
    witness_disks: Sequence[Disk] = (),
    path: Sequence[int] = (),
    extra_disk: Optional[Disk] = None,
    blockers: Sequence[Point] = (),
    sentinel_triangle: Optional[tuple[int, int, int]] = None,
) -> str:
    """Compose one SVG document. ``hollow`` vertices render unfilled,
    boundary edges bold, blockers as crosses, disks as thin circles."""
    disks = [(d, "#999999", 0.7) for d in witness_disks]
    if extra_disk is not None:
        disks.append((extra_disk, "#1f77b4", 1.2))
    xs = [float(p.x) for p in (*tri.vertices, *blockers)]
    ys = [float(p.y) for p in (*tri.vertices, *blockers)]
    for d, _, _ in disks:
        r = math.sqrt(float(d.radius_sq))
        xs.extend((float(d.center.x) - r, float(d.center.x) + r))
        ys.extend((float(d.center.y) - r, float(d.center.y) + r))
    frame = _Frame(xs, ys)

    def line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: float) -> str:
        return (
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def chain(tag: str, indices: Sequence[int], style: str) -> str:
        corners = (frame.to(tri.vertices[i]) for i in indices)
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
        return f'<{tag} points="{pts}" fill="none" {style}/>'

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for d, stroke, width in disks:
        cx, cy = frame.to(d.center)
        r = math.sqrt(float(d.radius_sq)) * frame.scale
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="none" stroke="{stroke}" stroke-width="{width}"/>'
        )
    for u, v in tri.edges:
        width = 2.4 if len(tri.opposite_vertices(u, v)) == 1 else 0.9
        ends = (*frame.to(tri.vertices[u]), *frame.to(tri.vertices[v]))
        parts.append(line(*ends, "black", width))
    if sentinel_triangle is not None:
        dashed = 'stroke="#d62728" stroke-width="1.0" stroke-dasharray="6,4"'
        parts.append(chain("polygon", sentinel_triangle, dashed))
    if path:
        parts.append(chain("polyline", path, 'stroke="#2ca02c" stroke-width="3.0"'))
    for i, p in enumerate(tri.vertices):
        x, y = frame.to(p)
        if i in hollow:
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.0" '
                'fill="white" stroke="black" stroke-width="1.3"/>'
            )
        else:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.2" fill="black"/>')
    arm = 4.5
    for p in blockers:
        x, y = frame.to(p)
        parts.append(line(x - arm, y - arm, x + arm, y + arm, "#d62728", 1.6))
        parts.append(line(x - arm, y + arm, x + arm, y - arm, "#d62728", 1.6))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
