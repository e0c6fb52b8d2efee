"""Seeded point-set generators with exact coordinates.

Both generators certify general position (``exactgeom.general_position``;
``delaunay.build`` does not) and convexity, where promised, before
returning; sampling repeats with a fresh stream or a smaller jitter until
the exact checks pass, so emitted sets are unconditionally valid.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .delaunay import build
from .errors import ConstructionFailed, DegenerateInput, PreconditionViolated, TooFewPoints
from .exactgeom import Point, arc_point, general_position

GRID_BITS = 20  # random coordinates are k / 2**20 in [0, 1]
MAX_CONVEX = 512  # convex points draw distinct radius jitters k / 1024, 1 <= k <= MAX_CONVEX


def random_points(n: int, seed: int = 0) -> tuple[Point, ...]:
    """n distinct grid-rational points in the unit square, general position."""
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    denom = 2**GRID_BITS
    for attempt in range(1000):
        rng = random.Random(f"random-{n}-{seed}-{attempt}")
        pts: list[Point] = []
        seen = set()  # the drawn grid ints, cheaper to hash than Fractions
        while len(pts) < n:
            xy = rng.randrange(denom + 1), rng.randrange(denom + 1)
            if xy not in seen:
                seen.add(xy)
                pts.append(Point(Fraction(xy[0], denom), Fraction(xy[1], denom)))
        if general_position(pts) is None:
            return tuple(pts)
    raise ConstructionFailed(f"no general-position sample after 1000 attempts (n={n})")


def convex_points(n: int, seed: int = 0) -> tuple[Point, ...]:
    """n points in convex position near the unit circle, general position.

    Directions come from the rational circle parameterization, radii carry a
    small rational jitter (to dodge cocircularity), and the jitter halves
    until the triangulated hull uses all n points; the O(n^2) build that
    counts the hull runs before the O(n^3) general-position certificate, so
    a set rejected for its hull is never certified. The jitters are distinct,
    so n is at most ``MAX_CONVEX``; a larger n raises
    ``PreconditionViolated`` before any draw.
    """
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    if n > MAX_CONVEX:
        raise PreconditionViolated(f"convex sets need n <= {MAX_CONVEX}, got {n}")
    jitter = Fraction(1, 16)
    for attempt in range(64):
        rng = random.Random(f"convex-{n}-{seed}-{attempt}")
        magnitudes = rng.sample(range(1, MAX_CONVEX + 1), n)
        pts = []
        for i in range(n):
            t = Fraction(-3) + Fraction(6) * Fraction(2 * i + 1, 2 * n)
            radius = 1 + jitter * rng.choice((-1, 1)) * Fraction(magnitudes[i], 1024)
            pts.append(arc_point(radius, t))
        try:
            convex = len(build(pts).hull) == n
        except DegenerateInput:  # no strict triangulation, so not in general position
            convex = False
        if convex and general_position(pts) is None:
            return tuple(pts)
        jitter /= 2
    raise ConstructionFailed(f"no convex-position sample after 64 attempts (n={n})")
