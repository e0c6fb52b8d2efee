"""Blocking sets: verification, the lower-bound report, and two tight
instance families.

A point set B blocks a point set P when the Delaunay triangulation of their
union has no edge joining two points of P. Verification builds that
triangulation (``delaunay.build``) and reads the first such edge off it, or
None; ``build`` certifies the union only when its local tests fail, to name
the violation. The disjoint-arc family's witness disks are empty circles
through its edges. The constructions realize "close" and "approximately"
with a halving loop: each attempt builds a candidate and tests it once with
the exact verifiers, then returns it or retries, and a loop out of attempts
raises ``ConstructionFailed``. So instances are unconditionally correct
rather than asymptotically plausible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .delaunay import build
from .errors import ConstructionFailed, DegenerateInput, PreconditionViolated
from .exactgeom import (
    Disk,
    Point,
    arc_point,
    circle_of,
    dist_sq,
    externally_tangent,
    general_position,
    integer_copy,
    interior_disjoint,
    is_witness_disk,
    midpoint,
    outward_normal,
)


@dataclass(frozen=True)
class LowerBoundReport:
    blocked: bool  # equally: P is an independent set of the union triangulation
    size_ok: bool  # |B| >= |P|
    p_size: int
    b_size: int
    witness: Optional[tuple[int, int]]  # a surviving P-P edge when not blocked

    @property
    def alarm(self) -> bool:
        """True when a blocked instance contradicts the size lower bound."""
        return self.blocked and not self.size_ok


@dataclass(frozen=True)
class BlockingInstance:
    points: tuple[Point, ...]
    blockers: tuple[Point, ...]


def verify_blocking(p: Sequence[Point], b: Sequence[Point]) -> Optional[tuple[int, int]]:
    """The first P-P edge, in lexicographic order, of the union's Delaunay
    triangulation, or None when B blocks P.

    The union needs a strict triangulation, not general position: its edge
    set is ``build(P + B)``'s, and ``build`` raises ``DegenerateInput``
    with the least general-position violation otherwise. The size alarm of
    ``lower_bound_report`` is the paper's theorem, and the angle ledger of
    ``structure.angle_audit`` proves it on any strict triangulation: with
    I = P independent, 2 |P| <= |P| + |B|. The bare pair (two points, no
    blockers) has no triangulation; its one edge joins P unless the points
    coincide.
    """
    if len(p) < 2:
        raise PreconditionViolated("need at least two points to block")
    union = tuple(p) + tuple(b)
    if len(union) == 2:
        violation = general_position(union)
        if violation is not None:
            raise DegenerateInput(violation)
        return (0, 1)
    return build(union).joined(frozenset(range(len(p))))


def lower_bound_report(p: Sequence[Point], b: Sequence[Point]) -> LowerBoundReport:
    """Blocking verdict plus the size fact a blocked instance must satisfy,
    |B| >= |P|. Blocked means P is independent in the union triangulation.

    A blocked instance failing the size bound is an alarm, never silently
    accepted; callers check ``.alarm``.
    """
    witness = verify_blocking(p, b)
    return LowerBoundReport(witness is None, len(b) >= len(p), len(p), len(b), witness)


# ---------------------------------------------------------------------------
# Fan instances (tightness family: n points blocked by exactly n)
# ---------------------------------------------------------------------------

MAX_FAN = 257  # the hub and n - 1 arc points with distinct radius jitters k / 512, 1 <= k < MAX_FAN


def _fan_blockers(points: Sequence[Point], eps: Fraction) -> tuple[Point, ...]:
    """Two blockers close to the hub (``points[0]``), just outside its hull
    edges, then one just outside each far hull edge at its midpoint."""
    hub, n = points[0], len(points)
    blockers = []
    for arm, probe in ((1, n - 1), (n - 1, 1)):
        c = points[arm]
        nrm = outward_normal(hub, c, points[probe])
        blockers.append(Point(eps * c.x + eps * eps * nrm.x, eps * c.y + eps * eps * nrm.y))
    for a, c in zip(points[1:-1], points[2:]):
        m = midpoint(a, c)
        nrm = outward_normal(a, c, hub)
        blockers.append(Point(m.x + eps * nrm.x, m.y + eps * nrm.y))
    return tuple(blockers)


def fan_instance(n: int, seed: int = 0) -> BlockingInstance:
    """A hub-and-arc point set whose triangulation is blocked by n points.

    One point sits at the origin; n-1 points sit at rational near-unit radii
    on a sub-quarter arc parameterized rationally (half-angle substitution),
    so the hub connects to every arc point and consecutive arc points are
    adjacent. The blockers hug the hull edges (``_fan_blockers``). Each
    attempt has one accept test, the exact edge pattern and then the
    blocking verdict; a degenerate attempt fails it too. The jitter and
    offset scale halves per rejected attempt, and ``ConstructionFailed``
    ends the search. The arc points draw distinct radius jitters, so n is at
    most ``MAX_FAN``; a larger n raises ``PreconditionViolated`` before any
    draw.
    """
    if n < 4:
        raise PreconditionViolated(f"fan instances need n >= 4, got {n}")
    if n > MAX_FAN:
        raise PreconditionViolated(f"fan instances need n <= {MAX_FAN}, got {n}")
    # spokes and rim are 2n - 3 = 3n - 3 - h edges: h = n hull vertices
    spokes_and_rim = {(0, i) for i in range(1, n)} | {(i, i + 1) for i in range(1, n - 1)}
    eps = Fraction(1, 8)
    for attempt in range(40):
        rng = random.Random(f"fan-{n}-{seed}-{attempt}")
        magnitudes = rng.sample(range(1, MAX_FAN), n - 1)
        pts = [Point(Fraction(0), Fraction(0))]
        for i in range(n - 1):
            t = Fraction(1, 8) + Fraction(3, 4) * Fraction(i, n - 2)
            radius = 1 + eps * rng.choice((-1, 1)) * Fraction(magnitudes[i], 512)
            pts.append(arc_point(radius, t))
        points = tuple(pts)
        try:
            if (
                set(build(points).edges) == spokes_and_rim
                and verify_blocking(points, b := _fan_blockers(points, eps)) is None
            ):
                return BlockingInstance(points, b)
        except DegenerateInput:
            pass
        eps /= 2
    raise ConstructionFailed(f"fan construction did not verify after 40 halvings (n={n})")


# ---------------------------------------------------------------------------
# Interior-disjoint witness-disk family
# ---------------------------------------------------------------------------


class DisjointDiskInstance(NamedTuple):
    points: tuple[Point, ...]
    disks: tuple[Disk, ...]  # one verified empty witness per consecutive edge


def _tangent_chain(points: Sequence[Point]) -> Optional[tuple[Disk, ...]]:
    """One disk per consecutive pair of points, each externally tangent to
    the one before at their shared point, or None when the chain turns back.

    The first disk has its diameter on the first pair. Each later center
    lies on the line through the shared point and the previous center, at
    the parameter that puts the next point on its boundary.
    """
    c0 = midpoint(points[0], points[1])
    disks = [Disk(c0, dist_sq(c0, points[0]))]
    for shared, after in zip(points[1:-1], points[2:]):
        prev = disks[-1].center
        d = Point(shared.x - prev.x, shared.y - prev.y)
        den = 2 * (d.x * (after.x - shared.x) + d.y * (after.y - shared.y))
        if den <= 0:
            return None
        s = dist_sq(shared, after) / den
        center = Point(shared.x + s * d.x, shared.y + s * d.y)
        disks.append(Disk(center, dist_sq(center, shared)))
    return tuple(disks)


def disjoint_disk_instance(n: int) -> DisjointDiskInstance:
    """Points on a nearly flat convex arc with geometrically growing gaps,
    plus one witness disk per consecutive edge, interior-disjoint as a family.

    Disks of consecutive edges share a boundary vertex, so the best possible
    separation there is exact external tangency; the chain is built to be
    tangent (``_tangent_chain``) and checked once per attempt: the points in
    general position (else ``DegenerateInput``), and, on each disk's circle
    on the points' integer copy (``exactgeom.circle_of``), each disk an
    empty witness, which certifies its pair as a Delaunay edge, consecutive
    disks tangent, and every pair interior-disjoint. Non-consecutive pairs
    come out strictly disjoint. The arc flattens (denominator doubling) per
    rejected attempt, and ``ConstructionFailed`` ends the search.
    """
    if n < 2:
        raise PreconditionViolated(f"need n >= 2, got {n}")
    xs = [Fraction(3**i - 1, 2) for i in range(n)]
    flat = 2**20
    for attempt in range(40):
        points = tuple(Point(x, x * x / flat) for x in xs)
        # distinct x >= 0 on a parabola: no three on a line, and no four on
        # a circle, where their x would sum to 0
        scale, q = integer_copy(points)
        violation = general_position(q)
        if violation is not None:
            raise DegenerateInput(violation)
        disks = _tangent_chain(points)
        circles = [circle_of(d, scale) for d in disks or ()]
        if (
            disks is not None
            and all(is_witness_disk(q, c, i, i + 1) for i, c in enumerate(circles))
            and all(externally_tangent(a, b) for a, b in zip(circles, circles[1:]))
            and all(interior_disjoint(a, b) for a, b in combinations(circles, 2))
        ):
            return DisjointDiskInstance(points, disks)
        flat *= 2
    raise ConstructionFailed(f"disjoint-disk construction failed after 40 doublings (n={n})")
