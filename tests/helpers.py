"""Shared fixtures-in-functions and independent oracles for the test suite.

Everything here is deliberately dumb: union-find instead of BFS, full subset
enumeration instead of branch and bound, recursive matching enumeration
instead of the memoized search. Oracles must not share code paths with the
implementations they check.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
import sys
from array import array
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations

from hypothesis import strategies as st

from dtough import blocking, build, cli, exactgeom, structure
from dtough.delaunay import CounterExample, edge_angle_check, from_triangles
from dtough.diskpath import DiskPath, check_disk_path
from dtough.errors import (
    CollinearInput,
    ConstructionFailed,
    DegenerateInput,
    InvariantBroken,
    NotIndependent,
    NotInteriorEdge,
    PointFileError,
    PreconditionViolated,
    TooFewPoints,
    WitnessSearchFailed,
)
from dtough.exactgeom import (
    Disk,
    Orientation,
    Point,
    Position,
    Violation,
    ViolationKind,
    coord,
    cross,
    dist_sq,
    general_position,
    general_position_added,
    in_circle,
    midpoint,
    orient,
    point,
)
from dtough.generate import random_points
from dtough.pointfile import SHOWN
from dtough.structure import ToughnessWitness


# Coordinates in {-3..3}/{1..3}: duplicates, collinear triples and cocircular
# quadruples are all common at this size.
grid_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
grid_points = st.builds(Point, grid_fraction, grid_fraction)


def lcm_copy(points) -> tuple[int, tuple[Point, ...]]:
    """The lcm L of the points' ``Fraction`` denominators and the points
    times L as ``int``s: what ``exactgeom.integer_copy(points)`` must give,
    computed without it."""
    scale = math.lcm(*(Fraction(c).denominator for p in points for c in p))
    return scale, tuple(Point(int(p.x * scale), int(p.y * scale)) for p in points)


def disk_classify_fraction(d: Disk, p: Point) -> Position:
    """p against the closed disk d in ``Fraction`` arithmetic, the sign of
    ``dist_sq(center, p) - radius_sq``: what the sign of ``exactgeom.power``
    on ``exactgeom.circle_of(d, L)`` at p's integer copy, of factor L, must
    say."""
    gap = dist_sq(d.center, p) - d.radius_sq
    return Position.INTERIOR if gap < 0 else Position.EXTERIOR if gap > 0 else Position.BOUNDARY


def _third(face, u, v) -> int:
    return next(w for w in face if w != u and w != v)


def flip_first_convex_edge(t):
    """t with its first flippable interior edge flipped, assembled through
    ``from_triangles``; None when no interior edge has a strictly convex
    quad. The edge's two faces are found by scanning ``triangles``."""
    v = t.vertices
    for a, b in t.edges:
        if len(t.opposite_vertices(a, b)) != 2:
            continue
        faces = [tr for tr in t.triangles if a in tr and b in tr]
        r, s = (_third(tr, a, b) for tr in faces)
        side_u, side_v = orient(v[r], v[s], v[a]), orient(v[r], v[s], v[b])
        if {side_u, side_v} != {Orientation.CCW, Orientation.CW}:
            continue  # u and v not strictly on two sides of rs: no strictly convex quad
        if side_u is not Orientation.CCW:
            r, s = s, r
        kept = [tr for tr in t.triangles if tr not in faces]
        return from_triangles(v, kept + [(r, s, a), (s, r, b)])
    return None


def thinned(candidates) -> list[Point]:
    """The candidates, greedily thinned to general position."""
    pts: list[Point] = []
    for p in candidates:
        if general_position(pts + [p]) is None:
            pts.append(p)
    return pts


@st.composite
def rescaled_sets(draw) -> list[Point]:
    """Fractional points thinned to general position, then all multiplied by
    one drawn rational factor, so their lcm scaling is rarely trivial."""
    frac = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))
    pts = thinned(draw(st.lists(st.builds(Point, frac, frac), min_size=3, max_size=10)))
    factor = draw(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)))
    return [Point(p.x * factor, p.y * factor) for p in pts]


@st.composite
def strict_grid_sets(draw) -> list[Point]:
    """Subsets of a k x k integer grid, k from 4 to 7 and n from 5 to 14,
    that ``build`` accepts and ``general_position`` refuses: strict
    triangulations outside the paper's hypothesis. About one grid subset in
    ten is one, so they are drawn by rejection from a seeded generator."""
    k = draw(st.integers(4, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    grid = [point(x, y) for x in range(k) for y in range(k)]
    while True:
        pts = rng.sample(grid, rng.randint(5, 14))
        if general_position(pts) is None:
            continue
        try:
            build(pts)
        except DegenerateInput:
            continue
        return pts


def pair_scan_faces(q) -> set[tuple[int, int, int]]:
    """The Delaunay faces of integer points in general position, read off
    the pencil gap of every pair (a, b), a < b: the least left t_k of an open
    gap is the apex of the face left of ab, the greatest right t_k that of
    the face right of it. Each face is taken from the pair of its smallest
    and largest index, whose apex lies between the two, so it comes out once,
    CCW and led by its smallest index, as ``Triangulation.triangles`` holds
    it. n(n - 1)/2 scans, O(n^3)."""
    xs = [p.x for p in q]
    ys = [p.y for p in q]
    faces = set()
    for b in range(len(q)):
        for a in range(b):
            gap = pencil_gap_naive(xs, ys, a, b)
            if gap is None:
                continue
            left, right = gap
            if left and a < left[2] < b:
                faces.add((a, b, left[2]))
            if right and a < right[2] < b:
                faces.add((a, right[2], b))
    return faces


def two_sided_wrap(q, known) -> list[tuple[int, int, int]]:
    """``delaunay.delaunay_faces`` as a wrap on the whole pencil gap: each
    queued dart's face is read off the left end of its
    ``pencil_gap_naive``, and a closed gap raises ``InvariantBroken``. With
    no face known, same start and same queue, so on a strict set it returns
    the same faces in the same order. With faces known, the faces not in ``known``, wrapped
    outward from the darts whose reverse is a dart of a known face and
    which are not one themselves (``extension``)."""
    xs = [p.x for p in q]
    ys = [p.y for p in q]
    apex = {}
    for a, b, c in known:
        apex[(a, b)], apex[(b, c)], apex[(c, a)] = c, a, b
    if apex:
        stack = [(v, u) for u, v in apex if (v, u) not in apex]
    else:
        near = min(range(1, len(q)), key=lambda k: (xs[k] - xs[0]) ** 2 + (ys[k] - ys[0]) ** 2)
        stack = [(0, near), (near, 0)]
    faces = []
    while stack:
        dart = stack.pop()
        if dart in apex:
            continue
        u, v = dart
        gap = pencil_gap_naive(xs, ys, u, v)
        if gap is None:
            raise InvariantBroken(f"every circle through the queued dart {dart} holds a point")
        if gap[0] is None:
            continue  # a hull dart
        k = gap[0][2]
        faces.append((u, v, k))
        apex[dart], apex[(v, k)], apex[(k, u)] = k, u, v
        stack += ((k, v), (u, k))
    return faces


def certified_build(points):
    """The Delaunay triangulation of points in general position, built the
    way ``build`` did before its local test: certify first
    (``DegenerateInput`` otherwise), then assemble the faces of the pair
    scan (``pair_scan_faces``) through ``from_triangles``."""
    pts = tuple(points)
    if len(pts) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(pts)}")
    q = lcm_copy(pts)[1]
    violation = general_position(q)
    if violation is not None:
        raise DegenerateInput(violation)
    return from_triangles(pts, sorted(pair_scan_faces(q)))


def blind(tri):
    """tri with opaque objects for its ``Fraction`` vertices: a routine that
    answers on it as on tri reads only the integer copy and its factor."""
    return dataclasses.replace(tri, vertices=tuple(object() for _ in tri.vertices))


def extension(tri, added):
    """tri's vertices followed by ``added``, triangulated from tri's faces
    (Bowyer; Watson, Computer Journal 1981): keep each face whose circle
    every added point lies strictly outside (``in_circle_lifted``), wrap
    the rest from the kept ones (``two_sided_wrap``), assemble them all
    (``from_triangles``) and test every interior edge of a new face
    (``edge_angle_check``). On tri as ``build`` returns it, that is ``build``
    of the union; on the Kleetopes, which no ``build`` returns, it keeps
    their faces for the sentinel census. A failed step raises
    ``DegenerateInput`` with the least violation among the tuples that hold
    an added point (``exactgeom.general_position_added``), or
    ``InvariantBroken`` when there is none."""
    pts = tuple(tri.vertices) + tuple(added)
    kept = [
        f for f in tri.triangles
        if all(in_circle_lifted(*(tri.vertices[i] for i in f), s) is Position.EXTERIOR for s in added)
    ]
    try:
        faces = two_sided_wrap(lcm_copy(pts)[1], kept)
        try:
            grown = from_triangles(pts, kept + faces)
        except ValueError as exc:
            raise InvariantBroken(f"the extension does not triangulate the union: {exc}") from exc
        for a, b, c in faces:
            for u, v in ((a, b), (b, c), (c, a)):
                if (v, u) in grown.apex and not edge_angle_check(grown, u, v):
                    raise InvariantBroken(f"new edge {(u, v)} is not strictly locally Delaunay")
    except InvariantBroken:
        violation = general_position_added(tri.vertices, added)
        if violation is not None:
            raise DegenerateInput(violation) from None
        raise
    return grown


@lru_cache(maxsize=None)
def random_tri(n: int, seed: int):
    pts = random_points(n, seed)
    return pts, build(pts)


@lru_cache(maxsize=None)
def fan(n: int, seed: int = 1):
    return blocking.fan_instance(n, seed)


@lru_cache(maxsize=None)
def fan_tri(n: int, seed: int = 1):
    return build(fan(n, seed).points)


# The octahedron drawn in the plane: an outer and an inner triangle, and its
# seven bounded faces.
OCTAHEDRON = tuple(point(x, y) for x, y in ((0, 0), (30, 0), (15, 26), (15, 6), (20, 14), (10, 14)))
OCTAHEDRON_FACES = ((0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4), (2, 0, 5), (0, 3, 5), (3, 4, 5))


def _kleetope(points, faces):
    """The straight-line triangulation of points and faces with the centroid
    of each face added, in face order, and joined to the face's corners."""
    pts = list(points)
    triangles = []
    for a, b, c in faces:
        if orient(pts[a], pts[b], pts[c]) is Orientation.CW:
            b, c = c, b
        pts.append(Point(sum(pts[i].x for i in (a, b, c)) / 3, sum(pts[i].y for i in (a, b, c)) / 3))
        m = len(pts) - 1
        triangles += [(a, b, m), (b, c, m), (c, a, m)]
    return from_triangles(pts, triangles)


@lru_cache(maxsize=None)
def kleetope():
    """The Kleetope of the octahedron, n = 13: vertices 0-5 the octahedron,
    6-12 the centroids of its faces. Removing the octahedron leaves 7
    components, so it is not 1-tough, and no such triangulation is Delaunay
    realizable (Dillencourt, DCG 1990)."""
    return _kleetope(OCTAHEDRON, OCTAHEDRON_FACES)


@lru_cache(maxsize=None)
def kleetope_even():
    """The even-order Kleetope, n = 16: the octahedron with (15, 11) splitting
    its inner triangle in three, and a centroid in each of the 9 bounded
    faces. Its 7 base vertices leave 9 odd components, so it has no perfect
    matching."""
    faces = OCTAHEDRON_FACES[:-1] + ((3, 4, 6), (4, 5, 6), (5, 3, 6))
    return _kleetope(OCTAHEDRON + (point(15, 11),), faces)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def cut_hull_vertex(tri, keep):
    """tri with every edge of its first hull vertex h dropped but the one
    to each vertex in keep: a graph that is not 1-tough when keep is one
    vertex, and disconnected when keep is empty."""
    h = tri.hull[0]
    edges = tuple(e for e in tri.edges if h not in e or set(e) - {h} <= set(keep))
    neighbors = [set() for _ in range(len(tri))]
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return h, dataclasses.replace(tri, edges=edges, neighbors=tuple(map(tuple, neighbors)))


def uf_components(n: int, edges, removed) -> int:
    """Component count of the survivor graph by union-find."""
    removed = set(removed)
    parent = {v: v for v in range(n) if v not in removed}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in parent})


def general_position_naive(points):
    """The O(n^4) general-position scan on Fractions: first violation in
    ``combinations`` order, duplicates before collinear before cocircular."""
    pts = list(points)
    n = len(pts)
    seen = {}
    for i, p in enumerate(pts):
        if p in seen:
            return Violation(ViolationKind.DUPLICATE, (seen[p], i))
        seen[p] = i
    for i, j, k in combinations(range(n), 3):
        if orient(pts[i], pts[j], pts[k]) is Orientation.COLLINEAR:
            return Violation(ViolationKind.COLLINEAR, (i, j, k))
    for i, j, k, m in combinations(range(n), 4):
        if in_circle(pts[i], pts[j], pts[k], pts[m]) is Position.BOUNDARY:
            return Violation(ViolationKind.COCIRCULAR, (i, j, k, m))
    return None


def pencil_gap_naive(xs, ys, a: int, b: int):
    """The pencil gap of points a and b among integer points (coordinates
    ``xs``, ``ys``), two-sided: the least left and the greatest right t_k as
    (num, den, k) with 2t_k = num / den and den > 0, each None when its side
    has no point, or None once every circle through a and b holds a point.
    a and b are skipped by index and the gap is tested after every point.
    The package reads each end with a one-sided scan instead
    (``delaunay.witness_disk``)."""
    ax, ay = xs[a], ys[a]
    bx, by = xs[b] - ax, ys[b] - ay
    left = right = None
    for k in range(len(xs)):
        if k == a or k == b:
            continue
        cx, cy = xs[k] - ax, ys[k] - ay
        den = bx * cy - by * cx
        num = cx * (cx - bx) + cy * (cy - by)
        if den > 0:
            if left is None or num * left[1] < left[0] * den:
                left = (num, den, k)
        elif den < 0 and (right is None or num * right[1] < right[0] * den):
            right = (-num, -den, k)  # stored with a positive denominator
        if left and right and right[0] * left[1] >= left[0] * right[1]:
            return None
    return left, right


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def in_circle_lifted(a, b, c, d):
    """d against the circle through a, b, c by the 4x4 lifted determinant
    |x y x^2+y^2 1| on ``Fraction``s, times the sign of the orientation
    determinant |x y 1| of (a, b, c): positive when d is inside."""
    lifted = _det([[p.x, p.y, p.x * p.x + p.y * p.y, Fraction(1)] for p in (a, b, c, d)])
    turn = _det([[p.x, p.y, Fraction(1)] for p in (a, b, c)])
    if turn == 0:
        raise ValueError("collinear points have no circle")
    signed = lifted if turn > 0 else -lifted
    if signed > 0:
        return Position.INTERIOR
    if signed < 0:
        return Position.EXTERIOR
    return Position.BOUNDARY


def verify_delaunay_naive(tri):
    """Empty-circumdisk check on the ``Fraction`` vertices: each face's
    circumdisk, center and squared radius, against every other vertex. The
    first counterexample in face order, then vertex order, or None."""
    for t in tri.triangles:
        d = circumdisk(*(tri.vertices[i] for i in t))
        for vi, p in enumerate(tri.vertices):
            if vi not in t and disk_classify_fraction(d, p) is not Position.EXTERIOR:
                return CounterExample(t, vi)
    return None


def incidence_oracle(tri):
    """What lies around each edge, from ``triangles`` alone: a dict from each
    edge (u < v) to the sorted third vertices of the faces holding both
    endpoints, and the hull, the ring of one-face edges walked from its
    least vertex and turned CCW by its signed area."""
    opposite: dict = {}
    for face in tri.triangles:
        for u, v in combinations(sorted(face), 2):
            opposite.setdefault((u, v), []).append(_third(face, u, v))
    opposite = {key: sorted(ws) for key, ws in opposite.items()}
    ring: dict = {}
    for (u, v), ws in opposite.items():
        if len(ws) == 1:
            ring.setdefault(u, []).append(v)
            ring.setdefault(v, []).append(u)
    cycle = [min(ring), ring[min(ring)][0]]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = ring[cur][0] if ring[cur][0] != prev else ring[cur][1]
        if nxt == cycle[0]:
            break
        cycle.append(nxt)
    if cycle_area2(tri.vertices, cycle) < 0:
        cycle = [cycle[0]] + cycle[:0:-1]
    return opposite, tuple(cycle)


def cycle_area2(points, cycle):
    """Twice the signed area of the polygon visiting ``cycle``; positive when
    it runs counterclockwise."""
    total = 0
    for i in range(len(cycle)):
        a = points[cycle[i]]
        b = points[cycle[(i + 1) % len(cycle)]]
        total += a.x * b.y - b.x * a.y
    return total


def _ccw_neighbor_order(points, center, nbrs):
    """Neighbors sorted counterclockwise around a vertex, by exact comparisons."""
    c = points[center]

    def half(i):
        d = points[i]
        return 0 if d.y > c.y or (d.y == c.y and d.x > c.x) else 1

    def cmp(i, j):
        hi, hj = half(i), half(j)
        if hi != hj:
            return -1 if hi < hj else 1
        o = orient(c, points[i], points[j])
        if o is Orientation.COLLINEAR:
            raise InvariantBroken(f"neighbors {i} and {j} collinear with vertex {center}")
        return -1 if o is Orientation.CCW else 1

    return sorted(nbrs, key=cmp_to_key(cmp))


def rotation_faces(points, edges):
    """Face cycles of a plane graph from its straight-line embedding alone:
    the dart permutation of the counterclockwise rotation at each vertex,
    sorted by angle. Interior faces come out counterclockwise (positive
    ``cycle_area2``), the single outer face clockwise."""
    nbrs: dict = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    rot = {v: _ccw_neighbor_order(points, v, ns) for v, ns in sorted(nbrs.items())}
    slot = {(v, u): k for v, order in rot.items() for k, u in enumerate(order)}
    seen: set = set()
    faces = []
    for start in sorted(slot):
        if start in seen:
            continue
        cycle = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cycle.append(cur[0])
            a, b = cur
            order = rot[b]
            cur = (b, order[(slot[(b, a)] - 1) % len(order)])
        assert cur == start, "face traversal did not close on its starting dart"
        faces.append(cycle)
    return faces


def point_in_cycle(p, cycle_pts) -> bool:
    """Exact crossing-parity test; the point must not lie on the boundary."""
    inside = False
    m = len(cycle_pts)
    for i in range(m):
        a = cycle_pts[i]
        b = cycle_pts[(i + 1) % m]
        if (a.y <= p.y) == (b.y <= p.y):
            continue
        o = orient(a, b, p)
        assert o is not Orientation.COLLINEAR, "query point lies on a face boundary"
        upward = b.y > a.y
        if (upward and o is Orientation.CCW) or (not upward and o is Orientation.CW):
            inside = not inside
    return inside


def triangle_classify(a: Point, b: Point, c: Point, p: Point) -> Position:
    """Classify p against the closed triangle (a, b, c) by three orientation
    tests. The sentinel placement it checks is closed-form cone arithmetic;
    ``orient`` reaches it only as ``build``'s check that each face is CCW."""
    if orient(a, b, c) is Orientation.CW:
        b, c = c, b
    elif orient(a, b, c) is Orientation.COLLINEAR:
        raise CollinearInput("degenerate triangle")
    sides = (orient(a, b, p), orient(b, c, p), orient(c, a, p))
    if any(s is Orientation.CW for s in sides):
        return Position.EXTERIOR
    if any(s is Orientation.COLLINEAR for s in sides):
        return Position.BOUNDARY
    return Position.INTERIOR


def opposite_angles_deg_fraction(tri, u, v) -> float:
    """The angles opposite edge uv, in degrees, from cross and dot products
    on the ``Fraction`` vertices, each turned into a float before ``atan2``.
    Summed over the audit's subgraph edges it matches the audit's exact angle
    total at ordinary scales; the products underflow or overflow a float on
    points scaled far from 1."""
    total = 0.0
    for face in tri.triangles:
        if u not in face or v not in face:
            continue
        apex = tri.vertices[_third(face, u, v)]
        d1 = (tri.vertices[u].x - apex.x, tri.vertices[u].y - apex.y)
        d2 = (tri.vertices[v].x - apex.x, tri.vertices[v].y - apex.y)
        cross = float(d1[0] * d2[1] - d1[1] * d2[0])
        dot = float(d1[0] * d2[0] + d1[1] * d2[1])
        total += math.degrees(math.atan2(abs(cross), dot))
    return total


def witness_disk_oracle(tri, u, v) -> Disk:
    """The witness disk of edge (u, v) by a candidate search from the face
    circumdisks: up to 33 centers on the edge's perpendicular bisector, each
    verified against every vertex, the first that verifies returned.

    An interior edge halves toward the midpoint of its two face
    circumcenters. A boundary edge steps from its face circumcenter toward
    the edge midpoint when the apex is outside the edge's diametral disk and
    away from it when inside; a right angle at the apex puts the
    circumcenter on the midpoint, so the search steps off along the bisector,
    away from the apex's side.
    """
    key = (min(u, v), max(u, v))
    faces = [t for t in tri.triangles if u in t and v in t]
    if not faces:
        raise NotInteriorEdge(f"({u}, {v}) is not an edge")
    pu, pv = tri.vertices[key[0]], tri.vertices[key[1]]
    centers = [circumdisk(*(tri.vertices[i] for i in t)).center for t in faces]
    steps = [Fraction(1, 2**k) for k in range(1, 34)]
    if len(centers) == 2:
        c1, c2 = centers
        candidates = [Point(c1.x + t * (c2.x - c1.x), c1.y + t * (c2.y - c1.y)) for t in steps]
    else:
        c = centers[0]
        mid = midpoint(pu, pv)
        ap = tri.vertices[_third(faces[0], u, v)]
        if c == mid:
            perp = Point(-(pv.y - pu.y), pv.x - pu.x)
            sign = 1 if (perp.x * (pu.x - ap.x) + perp.y * (pu.y - ap.y)) > 0 else -1
            candidates = [Point(mid.x + sign * t * perp.x, mid.y + sign * t * perp.y) for t in steps]
        else:
            diametral = Disk(mid, dist_sq(mid, pu))
            sign = -1 if disk_classify_fraction(diametral, ap) is Position.INTERIOR else 1
            candidates = [
                Point(c.x + sign * t * (mid.x - c.x), c.y + sign * t * (mid.y - c.y)) for t in steps
            ]
    for center in candidates:
        d = Disk(center, dist_sq(center, pu))
        if all(
            disk_classify_fraction(d, p) is (Position.BOUNDARY if i in key else Position.EXTERIOR)
            for i, p in enumerate(tri.vertices)
        ):
            return d
    raise WitnessSearchFailed(f"no verified witness disk for edge {key}")


def surviving_pp_edge_oracle(p, b):
    """The first P-P edge of the union's Delaunay triangulation, scanned in
    ``certified_build(union).edges``, or None; a union outside general
    position raises ``DegenerateInput``. The bare pair (two points, no
    blockers) has its single edge by definition."""
    pts = tuple(p) + tuple(b)
    if len(p) < 2:
        raise PreconditionViolated("need at least two points to block")
    if len(pts) == 2:
        violation = general_position_naive(pts)
        if violation is not None:
            raise DegenerateInput(violation)
        return (0, 1)
    return next(((u, v) for u, v in certified_build(pts).edges if u < len(p) and v < len(p)), None)


def pencil_gap_pair_scan(p, b):
    """The first pair of P, in lexicographic order, whose pencil gap in the
    union is open (``pencil_gap_naive``), or None: how
    ``blocking.verify_blocking`` read its verdict before it built the union. Where the union has a
    strict triangulation, a gap is open exactly when its pair is an edge."""
    q = lcm_copy(tuple(p) + tuple(b))[1]
    xs, ys = [pt.x for pt in q], [pt.y for pt in q]
    return next((e for e in combinations(range(len(p)), 2) if pencil_gap_naive(xs, ys, *e) is not None), None)


def mis_exhaustive(n: int, edges) -> int:
    """Maximum independent set size by checking all 2^n subsets."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if adj[v] & mask:
                ok = False
                break
        if ok:
            best = mask.bit_count()
    return best


def has_perfect_matching_exhaustive(n: int, edges) -> bool:
    """Plain recursive matching existence check, no memoization."""
    if n % 2:
        return False
    nbrs = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def rec(unmatched: frozenset) -> bool:
        if not unmatched:
            return True
        v = min(unmatched)
        for u in sorted(nbrs[v] & unmatched):
            if rec(unmatched - {v, u}):
                return True
        return False

    return rec(frozenset(range(n)))


def _component_count_mask(masks, alive: int) -> int:
    count = 0
    left = alive
    while left:
        comp = left & -left
        while True:
            grown = comp
            m = comp
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                grown |= masks[v] & alive
            if grown == comp:
                break
            comp = grown
        count += 1
        left &= ~comp
    return count


def toughness_scan_oracle(tri):
    """The minimum-ratio separator by a flood fill of every nonempty S in
    ascending mask order; the first S of the least ratio wins, as a
    ``ToughnessWitness``, or None when no S disconnects."""
    n = len(tri)
    masks = [0] * n
    for u, v in tri.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << n) - 1
    best = None
    for s_mask in range(1, full + 1):
        alive = full & ~s_mask
        if alive == 0:
            continue
        comps = _component_count_mask(masks, alive)
        if comps < 2:
            continue
        ratio = Fraction(s_mask.bit_count(), comps)
        if best is None or ratio < best.ratio:
            best = ToughnessWitness(
                ratio,
                frozenset(i for i in range(n) if s_mask >> i & 1),
                comps,
            )
    return best


def toughness_table_oracle(tri):
    """The minimum-ratio separator by a dynamic programme over all 2^n
    alive sets, which shares nothing with the tight-separator search, as a
    ``ToughnessWitness``, or None when no S disconnects.

    In increasing mask order, with v the highest vertex of A and R = A - v,
    ``top[A]`` is the component of A that holds v. R's components are
    peeled off R by ``top`` of what is left, all of it smaller than A; v
    merges the ones it touches into ``top[A]``, so A has one component plus
    one per untouched component of R. Of equal ratios the numerically least
    S mask wins. The table takes 8 * 2**n bytes."""
    n = len(tri)
    masks = [0] * n
    for u, v in tri.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    top = array("Q", [0]) * (1 << n)
    best_s, best_c, best_alive = 1, 0, 0  # 1/0: no separator seen yet
    for v in range(n):
        bit = 1 << v
        nbrs = masks[v]
        for rest in range(bit):
            merged, lone, left = bit, 0, rest
            while left:
                comp = top[left]
                if comp & nbrs:
                    merged |= comp
                else:
                    lone += 1
                left ^= comp
            alive = bit | rest
            top[alive] = merged
            if lone:
                s = n - alive.bit_count()
                c = lone + 1
                if s and s * best_c <= best_s * c:  # a later A is a smaller S mask
                    best_s, best_c, best_alive = s, c, alive
    if best_c == 0:
        return None
    separator = frozenset(i for i in range(n) if not best_alive >> i & 1)
    return ToughnessWitness(Fraction(best_s, best_c), separator, best_c)


def toughness_reverse_oracle(tri):
    """Re-run the subset scan in descending mask order; min ratio must agree."""
    n = len(tri)
    adj = [0] * n
    for u, v in tri.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    best = None
    for s_mask in range(full, 0, -1):
        alive = full & ~s_mask
        if alive == 0:
            continue
        comps = 0
        left = alive
        while left:
            comp = left & -left
            while True:
                grown = comp
                m = comp
                while m:
                    v = (m & -m).bit_length() - 1
                    m &= m - 1
                    grown |= adj[v] & alive
                if grown == comp:
                    break
                comp = grown
            comps += 1
            left &= ~comp
        if comps >= 2:
            ratio = Fraction(s_mask.bit_count(), comps)
            if best is None or ratio < best:
                best = ratio
    return best


# ---------------------------------------------------------------------------
# Rational disk algebra and the in-disk path recursion on ``Fraction``
# ---------------------------------------------------------------------------


def circumdisk(a: Point, b: Point, c: Point) -> Disk:
    """The disk whose boundary passes through a, b, and c.

    The center is the intersection of two perpendicular bisectors: it is
    m + s perp(b - a) on the bisector of ab, m its midpoint, with s chosen so
    that it is equidistant from a and c, (center - midpoint(a, c)).(c - a) = 0.
    With rational inputs it is rational, as is the squared radius.
    """
    if orient(a, b, c) is Orientation.COLLINEAR:
        raise CollinearInput(f"no circumdisk of collinear points {a}, {b}, {c}")
    m, n = midpoint(a, b), midpoint(a, c)
    perp = Point(a.y - b.y, b.x - a.x)
    ac = Point(c.x - a.x, c.y - a.y)
    s = ((n.x - m.x) * ac.x + (n.y - m.y) * ac.y) / (perp.x * ac.x + perp.y * ac.y)
    center = Point(m.x + s * perp.x, m.y + s * perp.y)
    return Disk(center, dist_sq(center, a))


def sentinels_fraction(tri, removed):
    """The anchor and sentinels of ``structure.sentinel_augment``, placed on
    the ``Fraction`` vertices, and the extension that adds them: e1 = A - B/2
    and e2 = B - A/2 from the anchor's hull neighbours, the reach the larger
    of ceil(2 max(x + y)) and isqrt(ceil(bound / min |e|^2)) + 1 with the
    bound twice the largest |center - u|^2 + radius^2 of the face
    circumdisks (``circumdisk``), and the first candidate
    (u + r e1, u + (r + 1) e2) whose ``extension`` keeps every face of tri
    and has the sentinel triangle as its hull, the reach doubling after
    each rejection. Unlike ``sentinel_augment``, it places sentinels around
    any triangulation, the Kleetopes too."""
    gone = set(removed)
    anchor = min(h for h in tri.hull if h in gone)
    pos = tri.hull.index(anchor)
    v = tri.vertices
    u, pa, pb = v[anchor], v[tri.hull[pos - 1]], v[tri.hull[(pos + 1) % len(tri.hull)]]
    ax, ay, bx, by = pa.x - u.x, pa.y - u.y, pb.x - u.x, pb.y - u.y
    e1, e2 = Point(ax - bx / 2, ay - by / 2), Point(bx - ax / 2, by - ay / 2)
    far = max(-cross(pa, pb, v[h]) / cross(pa, pb, u) for h in tri.hull if h != anchor)
    disks = [circumdisk(*(v[i] for i in t)) for t in tri.triangles]
    bound = 2 * max(dist_sq(d.center, u) + d.radius_sq for d in disks)
    outside = math.isqrt(math.ceil(bound / min(e.x * e.x + e.y * e.y for e in (e1, e2)))) + 1
    reach = max(math.ceil(4 + 4 * far), outside)
    n = len(tri)
    for _ in range(64):
        s1 = Point(u.x + reach * e1.x, u.y + reach * e1.y)
        s2 = Point(u.x + (reach + 1) * e2.x, u.y + (reach + 1) * e2.y)
        reach *= 2
        try:
            augmented = extension(tri, (s1, s2))
        except DegenerateInput:
            continue
        if set(tri.triangles) <= set(augmented.triangles) and set(augmented.hull) == {anchor, n, n + 1}:
            return anchor, (s1, s2), augmented
    raise ConstructionFailed("no sentinel placement satisfied all conditions in 64 attempts")


@dataclasses.dataclass(frozen=True)
class CensusReport:
    """Ledger of the face/edge double count over the removed-set subgraph.

    ``angle_total_exact`` is the total of the angles opposite each surviving
    edge, computed from the face census (180 per hole-free face, 360 per
    hole). ``angle_census_ok`` proves it exactly: the hole-free faces are the
    triangles of the augmented triangulation with no chosen vertex, and each
    hole is bounded by exactly the neighbours of the one chosen vertex it
    encloses, so the angles split into 180 per triangle and 360 per fan.
    """

    anchor: int
    sentinels: tuple[Point, Point]
    good_faces: int  # interior faces containing no removed-independent vertex
    bad_faces: int  # interior faces containing exactly one
    subgraph_edges: int
    subgraph_vertices: int
    euler_ok: bool  # edges == vertices + faces - 1
    angle_total_exact: int  # degrees: 180 * good + 360 * bad
    angle_census_ok: bool  # the opposite-angle sum is 180 * good + 360 * bad, exactly
    per_edge_ok: bool  # every edge's opposite-angle sum is below 180, exactly
    strict_inequality_ok: bool  # angle_total_exact < 180 * subgraph_edges
    bad_face_bound_ok: bool  # bad_faces <= subgraph_vertices - 2
    independent_matches_bad: bool  # every removed vertex claims exactly one face

    @property
    def ok(self) -> bool:
        """Every check of the census holds."""
        return all((self.euler_ok, self.angle_census_ok, self.per_edge_ok,
                    self.strict_inequality_ok, self.bad_face_bound_ok, self.independent_matches_bad))


def sentinel_census_oracle(tri, independent) -> CensusReport:
    """The floor(n/2) bound for one independent set by the face census, the
    way ``structure.angle_audit`` checked it before it read the angle ledger.

    The independent set is removed, sentinels are added around the rest
    (``sentinels_fraction``), and the surviving plane subgraph's
    interior faces, walked off the augmented triangulation's ``apex`` map
    (``structure.planar_faces``), are classified by how many removed
    vertices they enclose (0 or 1; anything else is structurally impossible
    and raises). The face census and the per-edge angle bound then pin the
    number of holes below the subgraph order minus two, which is the
    floor(n/2) bound for this instance. The angle census checks each face
    against the triangles and fans it is made of, which makes the angle
    total exact.
    """
    chosen = tri.vertex_set(independent)
    joined = tri.joined(chosen)
    if joined is not None:
        raise NotIndependent(f"edge {joined} joins two chosen vertices")
    removed = frozenset(range(len(tri))) - chosen
    anchor, sentinels, big = sentinels_fraction(tri, removed)
    n = len(tri)
    keep = removed | {n, n + 1}

    sub_edges = [(u, v) for u, v in big.edges if u in keep and v in keep]
    incident = {v for e in sub_edges for v in e}
    if incident != keep:
        raise InvariantBroken("a surviving vertex became isolated after removal")

    good = 0
    located: list[int] = []
    fans_closed = True
    for cycle, enclosed in structure.planar_faces(big, chosen):
        if not enclosed:
            if len(cycle) != 3:
                raise InvariantBroken("hole-free interior face is not a triangle")
            good += 1
        elif len(enclosed) == 1:
            (x,) = enclosed
            located.append(x)
            fans_closed = fans_closed and sorted(cycle) == list(big.neighbors[x])
        else:
            raise InvariantBroken("interior face contains two removed vertices")

    bad = len(located)
    e_count = len(sub_edges)
    s_size = len(keep)
    angle_exact = 180 * good + 360 * bad
    f0 = sum(1 for t in big.triangles if chosen.isdisjoint(t))
    # A boundary edge has a single opposite angle, below 180 like any
    # triangle angle; only two-sided edges need the exact test.
    apex = big.apex
    per_edge_ok = all(
        edge_angle_check(big, u, v) for u, v in sub_edges if (u, v) in apex and (v, u) in apex
    )

    return CensusReport(
        anchor=anchor,
        sentinels=sentinels,
        good_faces=good,
        bad_faces=bad,
        subgraph_edges=e_count,
        subgraph_vertices=s_size,
        euler_ok=e_count == s_size + bad + good - 1,
        angle_total_exact=angle_exact,
        angle_census_ok=fans_closed and f0 == good and len(chosen) == bad,
        per_edge_ok=per_edge_ok,
        strict_inequality_ok=angle_exact < 180 * e_count,
        bad_face_bound_ok=bad <= s_size - 2,
        independent_matches_bad=sorted(located) == sorted(chosen),
    )


def shrink_parameter(d: Disk, anchor: Point, target: Point) -> Fraction:
    """Parameter t* on the anchor-to-center segment equalizing the two distances.

    With x(t) = anchor + t * (center - anchor), this is the unique t solving
    |x(t) - anchor|^2 = |x(t) - target|^2. The quadratic terms cancel, so t*
    is rational:  t* = |anchor - target|^2 / (2 (center - anchor).(target - anchor)).

    For a target interior to the disk and an anchor on its boundary the
    denominator is strictly positive and t* lies in (0, 1).
    """
    num = dist_sq(anchor, target)
    c, t = d.center, target
    den = 2 * ((c.x - anchor.x) * (t.x - anchor.x) + (c.y - anchor.y) * (t.y - anchor.y))
    if den == 0:
        raise PreconditionViolated("shrink direction is degenerate (anchor equals target?)")
    return num / den


def shrink_toward(d: Disk, anchor: Point, target: Point) -> Disk:
    """Shrink d along the ray from anchor through its center until target
    lies on the boundary.

    The result passes through anchor and target exactly, stays inside d, and
    is internally tangent to d at anchor. Preconditions (anchor on the
    boundary, target strictly interior) are checked exactly.
    """
    if disk_classify_fraction(d, anchor) is not Position.BOUNDARY:
        raise PreconditionViolated(f"anchor {anchor} is not on the disk boundary")
    if disk_classify_fraction(d, target) is not Position.INTERIOR:
        raise PreconditionViolated(f"target {target} is not interior to the disk")
    t = shrink_parameter(d, anchor, target)
    cx = anchor.x + t * (d.center.x - anchor.x)
    cy = anchor.y + t * (d.center.y - anchor.y)
    center = Point(cx, cy)
    shrunk = Disk(center, dist_sq(center, anchor))
    # Internal tangency at the anchor, in squared form; a failure here would
    # mean the algebra above is wrong, not that the input is bad.
    if not disks_internally_tangent(d, shrunk):
        raise InvariantBroken("shrunken disk lost tangency with its parent")
    return shrunk


def disks_internally_tangent(outer: Disk, inner: Disk) -> bool:
    """dist(centers) = R - r, tested as a rational identity on squares."""
    if inner.radius_sq > outer.radius_sq:
        return False
    d2 = dist_sq(outer.center, inner.center)
    m = outer.radius_sq + inner.radius_sq - d2
    return m >= 0 and m * m == 4 * outer.radius_sq * inner.radius_sq


def disks_externally_tangent(a: Disk, b: Disk) -> bool:
    """dist(centers) = R + r, tested as a rational identity on squares."""
    m = dist_sq(a.center, b.center) - a.radius_sq - b.radius_sq
    return m >= 0 and m * m == 4 * a.radius_sq * b.radius_sq


def disks_interior_disjoint(a: Disk, b: Disk) -> bool:
    """Open interiors disjoint: dist(centers) >= R + r, in squared form;
    external tangency counts as disjoint."""
    m = dist_sq(a.center, b.center) - a.radius_sq - b.radius_sq
    return m >= 0 and m * m >= 4 * a.radius_sq * b.radius_sq


def disk_contains_disk(outer: Disk, inner: Disk) -> bool:
    """Closed containment: dist(centers) <= R - r, in squared form."""
    if inner.radius_sq > outer.radius_sq:
        return False
    d2 = dist_sq(outer.center, inner.center)
    m = outer.radius_sq + inner.radius_sq - d2
    return m >= 0 and m * m >= 4 * outer.radius_sq * inner.radius_sq


def splice_simple_rescan(left: list[int], right: list[int]) -> list[int]:
    """Concatenate two vertex walks sharing their junction and cut the first
    repetition scanning from the start, until the walk is simple."""
    walk = left + right[1:]
    while True:
        first_seen: dict[int, int] = {}
        cut = None
        for idx, v in enumerate(walk):
            if v in first_seen:
                cut = (first_seen[v], idx)
                break
            first_seen[v] = idx
        if cut is None:
            return walk
        i, j = cut
        walk = walk[: i + 1] + walk[j + 1 :]


def _interior_fraction(tri, d: Disk, p: int, q: int) -> list[int]:
    """Vertices strictly inside d; p and q must be on its boundary. A third
    vertex on a shrunken boundary counts as outside."""
    for a in (p, q):
        if disk_classify_fraction(d, tri.vertices[a]) is not Position.BOUNDARY:
            raise InvariantBroken(f"shrunken disk lost its anchor {a}")
    return [
        i for i, pt in enumerate(tri.vertices) if disk_classify_fraction(d, pt) is Position.INTERIOR
    ]


def _find_fraction(tri, p: int, q: int, d: Disk) -> list[int]:
    interior = _interior_fraction(tri, d, p, q)
    if not interior:
        if not tri.is_edge(p, q):
            raise InvariantBroken(
                f"empty disk through {p} and {q} but no Delaunay edge between them"
            )
        return [p, q]
    pp = tri.vertices[p]
    # the least shrink parameter pins first; a tie pins its least index
    _, r = min((shrink_parameter(d, pp, tri.vertices[x]), x) for x in interior)
    rp = tri.vertices[r]
    d_pr = shrink_toward(d, pp, rp)
    d_qr = shrink_toward(d, tri.vertices[q], rp)
    for sub in (d_pr, d_qr):
        if not disk_contains_disk(d, sub):
            raise InvariantBroken("shrunken disk escaped its parent")
    for sub in (d_pr, d_qr):
        survivors = sum(
            1 for x in interior if disk_classify_fraction(sub, tri.vertices[x]) is Position.INTERIOR
        )
        if survivors >= len(interior):
            raise InvariantBroken("interior vertex count failed to decrease")
    left = _find_fraction(tri, p, r, d_pr)
    right = _find_fraction(tri, q, r, d_qr)
    return splice_simple_rescan(left, right[::-1])


def find_path_fraction_oracle(tri, p: int, q: int, d: Disk) -> DiskPath:
    """The path of ``diskpath.find_path``, by a binary recursion on
    ``Fraction`` disks: each shrink moves the center along the
    anchor-to-center segment to the least ``shrink_parameter`` of the
    interior vertices (``shrink_toward``), and every check classifies
    ``Fraction`` vertices against ``Fraction`` disks. p and q must be
    distinct vertex ids, and only they may lie on d's boundary. It shares
    only the final ``check_disk_path`` with ``find_path``, which runs the
    induction as a loop: this oracle recurses on both shrunken disks, scans
    each one's interior, and splices the two walks."""
    on = [i for i, pt in enumerate(tri.vertices) if disk_classify_fraction(d, pt) is Position.BOUNDARY]
    for v in sorted((p, q)):
        if v not in on:
            raise PreconditionViolated(f"vertex {v} must lie on the disk boundary")
    stray = [i for i in on if i not in (p, q)]
    if stray:
        raise PreconditionViolated(
            f"vertices {stray} lie exactly on the disk boundary; only {p} and {q} may"
        )
    path = DiskPath(tuple(_find_fraction(tri, p, q, d)), d)
    check_disk_path(tri, path)
    return path


# ---------------------------------------------------------------------------
# Disk construction through two vertices with exact boundary exclusivity
# ---------------------------------------------------------------------------


def pencil_disk(tri, p: int, q: int, gap_index: int) -> Disk | None:
    """A disk through vertices p and q with no third vertex on its boundary.

    Centers move along the perpendicular bisector of (p, q); each other
    vertex crosses the boundary at one rational parameter, so picking a
    parameter strictly between consecutive crossings (or beyond the last)
    controls exactly how many vertices are interior.
    """
    pp, qq = tri.vertices[p], tri.vertices[q]
    mid = midpoint(pp, qq)
    perp = Point(-(qq.y - pp.y), qq.x - pp.x)
    thresholds = []
    for i, x in enumerate(tri.vertices):
        if i in (p, q):
            continue
        offset = dist_sq(mid, pp) - dist_sq(mid, x)
        slope = 2 * (perp.x * (x.x - pp.x) + perp.y * (x.y - pp.y))
        if slope != 0:
            thresholds.append(-offset / slope)
    ts = sorted(set(thresholds))
    if not ts:
        t = Fraction(0)
    elif gap_index <= 0:
        t = ts[0] - 1
    elif gap_index >= len(ts):
        t = ts[-1] + 1
    else:
        a, b = ts[gap_index - 1], ts[gap_index]
        t = (a + b) / 2
    center = Point(mid.x + t * perp.x, mid.y + t * perp.y)
    d = Disk(center, dist_sq(center, pp))
    for i, x in enumerate(tri.vertices):
        if i in (p, q):
            continue
        if disk_classify_fraction(d, x) is Position.BOUNDARY:
            return None
    return d


def interior_count(tri, d: Disk) -> int:
    return sum(
        1 for x in tri.vertices if disk_classify_fraction(d, x) is Position.INTERIOR
    )


# ---------------------------------------------------------------------------
# CLI harness
# ---------------------------------------------------------------------------


def parse_points_naive(text: str) -> tuple[Point, ...]:
    """``pointfile.parse_points`` with every field read by
    ``exactgeom.coord`` and duplicates keyed on the ``Point``."""
    points: list[Point] = []
    seen: dict[Point, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise PointFileError(line_no, f"expected 'x y', got {len(fields)} field(s)")
        coords = []
        for field in fields:
            try:
                coords.append(coord(field))
            except ValueError as exc:
                shown = repr(field[:SHOWN]) + ("..." if len(field) > SHOWN else "")
                raise PointFileError(line_no, f"bad coordinate {shown}: {exc}") from exc
        p = Point(coords[0], coords[1])
        first = seen.setdefault(p, line_no)
        if first != line_no:
            raise PointFileError(line_no, f"duplicate of point on line {first}")
        points.append(p)
    return tuple(points)


def wrong_apex_once(scan):
    """The face scan ``scan(xs, ys, a, b)`` (the left end (num, den, k) of
    the pencil gap of a -> b, 2t_k = num / den, or None), doctored once: on
    the first dart with another point left of it than the apex, it answers
    the end of the first such point j by index, (num, den, j), instead.
    Later calls scan as before."""
    pending = [True]

    def doctored(xs, ys, a, b):
        end = scan(xs, ys, a, b)
        if pending and end is not None:
            bx, by = xs[b] - xs[a], ys[b] - ys[a]
            for j in range(len(xs)):
                cx, cy = xs[j] - xs[a], ys[j] - ys[a]
                den = bx * cy - by * cx
                if j != end[2] and den > 0:
                    pending.pop()
                    return cx * (cx - bx) + cy * (cy - by), den, j
        return end

    return doctored


def count_calls(monkeypatch, name: str) -> list:
    """Record every call of ``exactgeom.<name>`` made through any ``dtough``
    module that binds it, as its argument tuple, in the returned list."""
    real = getattr(exactgeom, name)
    calls: list = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "dtough"]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counting)
    return calls


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def report_without_timing(stdout: str) -> str:
    doc = json.loads(stdout)
    doc.pop("timing_ms", None)
    return json.dumps(doc, indent=2)
