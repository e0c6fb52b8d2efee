"""Delaunay triangulation construction and verification.

One routine builds every triangulation: ``build``. It gift-wraps the faces
off the pencils of circles through their edges: ab is a Delaunay edge
exactly when some circle through a and b has no other point inside
(Dillencourt, DCG 1990), that is when the pair's pencil gap is open, and the
apex of the face left of a -> b is the point at the gap's left end. One O(n)
scan reads that end (``_left_apex``); the wrap (``delaunay_faces``) makes
one per face and per hull edge, O(n^2), and proves no face empty. ``build``
then checks that the faces tile a strictly convex hull and tests every
interior edge strictly: the far apex strictly outside the circle through the
edge and the near one, O(1) per edge. By Delaunay's lemma (Delaunay 1934;
Lawson 1977) such a tiling is the Delaunay triangulation, whatever the scan
did, and strictness makes it unique, so ``build`` needs no general-position
certificate. The certificate (``exactgeom.general_position``, O(n^3)) runs
only when a step fails, to name the violation (``DegenerateInput``); on
points in general position a failure is a broken invariant. So ``build``
accepts some point sets outside general position, those whose Delaunay
triangulation is unique and strict, such as four cocircular points with a
fifth inside their circle; the paper's hypothesis is reported apart, by the
``hypothesis`` check of ``cli``. It runs on one lcm-scaled integer copy of
the points (``exactgeom.integer_copy``), which gives the same faces as the
rational points.

One strict edge test (``_strictly_delaunay``: the far apex has positive
``power`` on the near face's circle, ``Triangulation.circle``) answers
``edge_angle_check``, and one walk over the interior edges (``_loose_edge``)
runs it for ``build`` and for ``verify_delaunay``. Every triangulation
tiles a convex polygon traversed once (``_assemble``), so by the lemma the
first loose edge's face and far apex are ``verify_delaunay``'s
counterexample. A circle is a pure function of its face's three scaled
vertices, up to a positive factor that no sign sees, so reading it makes no
verifier depend on how the triangulation was built. ``witness_disk`` reads
both ends of an edge's pencil gap with the wrap's scan and takes its center
from inside the gap; only the center, an arbitrary rational, is built from
the ``Fraction`` vertices, and the disk is verified as a circle on the
scaled copy (``exactgeom.circle_of``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DegenerateInput,
    InvariantBroken,
    NotInteriorEdge,
    PreconditionViolated,
    TooFewPoints,
    WitnessSearchFailed,
)
from .exactgeom import (
    Circle,
    Disk,
    Orientation,
    Point,
    circle_of,
    circle_through,
    dist_sq,
    general_position,
    integer_copy,
    is_witness_disk,
    orient,
    power,
)


class CounterExample(NamedTuple):
    """A face whose circumdisk is not empty, with the offending vertex."""

    triangle: tuple[int, int, int]
    vertex: int


@dataclass(frozen=True)
class Triangulation:
    """Vertices, CCW triangles, the directed-edge apex map, and the convex
    hull cycle from its least index: a convex polygon traversed once, which
    the triangles tile.

    Treat instances as immutable; every operation in this package builds new
    values instead of mutating. The incidence is one map, as in Guibas and
    Stolfi's edge algebra (ACM TOG 1985): ``apex[(u, v)] = w`` for each CCW
    face (u, v, w), so w lies left of u -> v; in a Delaunay triangulation w
    is the left end of the pair's pencil gap (``_left_apex(xs, ys, u, v)``).
    An edge is interior when both directions are keys and boundary when only
    the one along the CCW hull is. ``edges`` (each undirected edge once, as
    (u, v) with u < v, sorted), ``neighbors`` and ``hull`` are read off the
    map. ``(scale, scaled)`` is ``exactgeom.integer_copy(vertices)``: the
    lcm of the denominators and the copy the construction scanned or
    ``from_triangles`` derives, on which every orientation and in-circle
    sign equals the one on ``vertices``. ``circle`` maps each dart (u, v) to
    the circle of the face left of it on ``scaled``
    (``exactgeom.circle_through``), held for every face from construction
    on, so an in-circle question is one lookup and one ``power`` at a
    ``scaled`` vertex. ``_assemble`` computes each face's circle when it
    checks the face. The three are derived from the other fields, so they
    take no part in equality.

    A vertex id is an ``int`` in ``range(len(tri))``, by one rule
    (``vertex_set``): 1.0, True and "1" raise ``PreconditionViolated``.
    ``joined`` is the one scan for an edge inside a vertex set.
    """

    vertices: tuple[Point, ...]
    triangles: tuple[tuple[int, int, int], ...]
    apex: dict[tuple[int, int], int]
    hull: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)
    scale: int = field(compare=False, repr=False)
    scaled: tuple[Point, ...] = field(compare=False, repr=False)
    circle: dict[tuple[int, int], Circle] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_set(self, ids: Iterable[int]) -> frozenset[int]:
        """ids as a set. The first, in the order given, that is no ``int``
        in ``range(len(self))`` raises ``PreconditionViolated``."""
        ids = tuple(ids)
        n = len(self.vertices)
        for v in ids:
            if type(v) is not int or not 0 <= v < n:
                raise PreconditionViolated(f"vertex {v!r} is not in range(0, {n})")
        return frozenset(ids)

    def joined(self, vertices: frozenset[int]) -> Optional[tuple[int, int]]:
        """The first of ``edges`` with both ends in vertices, or None."""
        return next(((u, v) for u, v in self.edges if u in vertices and v in vertices), None)

    def is_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.apex or (v, u) in self.apex

    def opposite_vertices(self, u: int, v: int) -> tuple[int, ...]:
        """Third vertices of the faces incident to edge (u, v): the apex left
        of u -> v first, then the one left of v -> u."""
        return tuple(w for w in (self.apex.get((u, v)), self.apex.get((v, u))) if w is not None)


def from_triangles(points: Sequence[Point], triangles: Sequence[tuple[int, int, int]]) -> Triangulation:
    """Assemble and structurally validate a triangulation.

    Checks, each raising ``ValueError``: each face three distinct vertex ids
    (``int``s in range, as ``Triangulation.vertex_set`` asks), CCW faces, at
    most one face on each side of an edge, a boundary that is one unpinched
    CCW cycle around a convex polygon traversed once, and every vertex used; the faces then tile the polygon
    (``_assemble``). Does NOT check the empty circle property; that is
    ``verify_delaunay``'s job, which lets tests assemble deliberately
    non-Delaunay triangulations.
    """
    for face in triangles:
        if not (isinstance(face, Sequence) and len(face) == 3 and all(type(v) is int for v in face)):
            raise ValueError(f"face {face!r} is not three int vertex ids")
    pts = tuple(points)
    return _assemble(pts, *integer_copy(pts), triangles)


def _assemble(
    pts: tuple[Point, ...], scale: int, q: tuple[Point, ...], triangles: Sequence[tuple[int, int, int]]
) -> Triangulation:
    """``from_triangles`` on points whose lcm-scaled copy q is already computed.

    One pass over ``triangles`` checks each face, computes its circle and
    fills ``apex``; everything else is read off it. The boundary is the
    directed edges whose reverse is absent, and the hull follows their
    successors from the least index, CCW because every face lies left of
    its edges. Lest a star winding twice pass, the fan from the hull vertex
    e with the least scaled point, which sees the rest in one half-plane,
    must be CCW too. Refusing a flat fan pair as well as a CW one changes
    no verdict: with no CW pair, the fan's triangles from e are CCW or flat
    and sweep less than a straight angle without overlap, so their angles,
    (h - 2) pi in all, make up the interior angles of the boundary, which
    then turns once. Every turn strict, it is a strictly convex polygon,
    where no three vertices are collinear, so no fan pair is flat.

    The faces then tile the hull, so Euler's face count needs no check:
    interior darts cancel in pairs, so a point off every edge lies in as
    many faces as the hull cycle winds around it, once inside and never
    outside, and a vertex inside another face's edge would leave points
    next to it covered twice. So the faces tile a convex h-gon with all n
    points as vertices, which takes 2n - 2 - h faces.
    """
    n = len(pts)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    apex: dict[tuple[int, int], int] = {}
    circle: dict[tuple[int, int], Circle] = {}
    for a, b, c in triangles:
        if a == b or b == c or c == a or not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise ValueError(f"bad triangle {(a, b, c)}")
        pa, pb, pc = q[a], q[b], q[c]
        if orient(pa, pb, pc) is not Orientation.CCW:
            raise ValueError(f"triangle {(a, b, c)} is not CCW")
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            if (u, v) in apex:
                raise ValueError(f"edge {(u, v)} has two faces on one side")
            apex[(u, v)] = w
        circle[(a, b)] = circle[(b, c)] = circle[(c, a)] = circle_through(pa, pb, pc)
    if len({u for u, _ in apex}) != n:
        raise ValueError("some vertices belong to no triangle")
    succ: dict[int, int] = {}
    for u, v in apex:
        if (v, u) not in apex:
            if u in succ:
                raise ValueError(f"boundary is pinched at vertex {u}")
            succ[u] = v
    # every vertex has as many boundary edges in as out, so succ is a
    # permutation of the boundary vertices and the walk closes
    hull = [min(succ)]
    while succ[hull[-1]] != hull[0]:
        hull.append(succ[hull[-1]])
    h = len(hull)
    if h != len(succ):
        raise ValueError("boundary edges form more than one cycle")
    for i in range(h):
        a, b, c = hull[i], hull[(i + 1) % h], hull[(i + 2) % h]
        if orient(q[a], q[b], q[c]) is not Orientation.CCW:
            raise ValueError("hull is not convex")
    s = hull.index(min(hull, key=q.__getitem__))
    e, *ring = hull[s:] + hull[:s]
    if any(orient(q[e], q[b], q[c]) is not Orientation.CCW for b, c in zip(ring, ring[1:])):
        raise ValueError("boundary winds around the hull more than once")
    keys = sorted({(u, v) if u < v else (v, u) for u, v in apex})
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in keys:  # in key order each list fills in increasing order
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Triangulation(
        vertices=pts,
        triangles=tuple(sorted((u, v, w) for (u, v), w in apex.items() if u < v and u < w)),
        apex=apex,
        hull=tuple(hull),
        edges=tuple(keys),
        neighbors=tuple(map(tuple, nbrs)),
        scale=scale,
        scaled=q,
        circle=circle,
    )


def _left_apex(xs: Sequence[int], ys: Sequence[int], a: int, b: int) -> Optional[tuple[int, int, int]]:
    """The left end of the pencil gap of a -> b among integer points
    (coordinates ``xs``, ``ys``): (num, den, k) for the point k left of
    a -> b with the least t_k, 2t_k = num / den and den > 0, the first on a
    tie; None when no point is left of it. With B = b - a and C = k - a,
    the circle through a, b and k has center a + B/2 + t_k perp(B), where
    2t_k = C.(C - B) / cross(B, C) (``exactgeom._bisector_row``). A point
    left of a -> b lies inside the circles with t > t_k, one right of it
    inside those with t < t_k, so the empty circles have t between the
    greatest right and the least left t_k: the gap. Its right end is the
    left end of b -> a's gap, the same circle at -t. O(n).
    """
    ax, ay = xs[a], ys[a]
    bx, by = xs[b] - ax, ys[b] - ay
    ln, ld, lk = 1, 0, -1  # t = +inf: no point on the left yet
    for k in range(len(xs)):
        cx, cy = xs[k] - ax, ys[k] - ay
        den = bx * cy - by * cx
        if den > 0:
            num = cx * (cx - bx) + cy * (cy - by)
            if num * ld < ln * den:
                ln, ld, lk = num, den, k
    return (ln, ld, lk) if ld else None


def delaunay_faces(pts: Sequence[Point]) -> list[tuple[int, int, int]]:
    """The CCW faces of the Delaunay triangulation of integer points in
    general position, found by gift wrapping (the face step of DeWall:
    Cignoni, Montani and Scopigno, Computer-Aided Design 1998).

    A dart (u, v) is a directed Delaunay edge, and one ``_left_apex`` scan of
    it gives the face on its left: none for a hull dart, else (u, v, k) for k
    the left end of its gap. The scan proves no circle empty; ``build``'s local
    tests do. The wrap starts from both darts of point 0 and its nearest
    neighbour, a Gabriel edge and so a Delaunay one. Each face found queues the
    reverses of its two other darts, so each face and each hull dart is scanned
    once: F + h = 2n - 2 scans, O(n^2) in all.
    """
    xs, ys = [p.x for p in pts], [p.y for p in pts]
    near = min(range(1, len(pts)), key=lambda k: (xs[k] - xs[0]) ** 2 + (ys[k] - ys[0]) ** 2)
    stack = [(0, near), (near, 0)]
    apex: dict[tuple[int, int], int] = {}
    faces = []
    while stack:
        dart = stack.pop()
        if dart in apex:
            continue
        u, v = dart
        end = _left_apex(xs, ys, u, v)
        if end is None:
            continue  # a hull dart
        k = end[2]
        faces.append((u, v, k))
        apex[dart], apex[(v, k)], apex[(k, u)] = k, u, v
        stack += ((k, v), (u, k))
    return faces


def build(points: Sequence[Point]) -> Triangulation:
    """The Delaunay triangulation of a point set, when it is unique and
    strict: every point strictly outside the circumcircle of every face it
    is not a vertex of. General position implies this.

    1. ``delaunay_faces`` wraps the faces on the points scaled
       once by the lcm of their denominators (``exactgeom.integer_copy``);
       the predicates are invariant under that positive factor. The scan
       proves no face empty; steps 2 and 3 do.
    2. ``_assemble`` checks that the faces tile a strictly convex hull and
       computes their circles; a failed check is a broken invariant.
    3. Each interior edge is tested strictly (``_loose_edge``); a loose one
       is a broken invariant.
    4. On a broken invariant from any step, the certificate scans the copy
       (``exactgeom.general_position``): a violation it finds raises
       ``DegenerateInput``, the least one, and without one the alarm
       stands.

    The faces depend only on the point set, never on the input order; tests
    check this by shuffling inputs.
    """
    pts = tuple(points)
    if len(pts) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(pts)}")
    scale, q = integer_copy(pts)
    try:
        faces = delaunay_faces(q)
        try:
            tri = _assemble(pts, scale, q, faces)
        except ValueError as exc:
            raise InvariantBroken(f"wrapped faces do not triangulate the points: {exc}") from exc
        loose = _loose_edge(tri)
        if loose is not None:
            raise InvariantBroken(f"interior edge {loose} is not strictly locally Delaunay")
    except InvariantBroken:
        violation = general_position(q)
        if violation is not None:
            raise DegenerateInput(violation) from None
        raise
    return tri


def _strictly_delaunay(tri: Triangulation, u: int, v: int) -> bool:
    """Whether the edge of the interior dart (u, v) is strictly locally
    Delaunay: the apex of the face left of v -> u lies strictly outside the
    circle of the face left of u -> v, one ``power`` at a scaled vertex. The
    test is symmetric in the two darts of an edge."""
    return power(tri.circle[(u, v)], tri.scaled[tri.apex[(v, u)]]) > 0


def _loose_edge(tri: Triangulation) -> Optional[tuple[int, int]]:
    """The first interior edge (u, v), u < v, in face order, that is not
    strictly locally Delaunay (``_strictly_delaunay``), or None. Each
    interior edge is tested once."""
    apex = tri.apex
    for a, b, c in tri.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            if u < v and (v, u) in apex and not _strictly_delaunay(tri, u, v):
                return u, v
    return None


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_delaunay(tri: Triangulation) -> Optional[CounterExample]:
    """The empty-circumdisk check: None when every face's circumdisk
    excludes every non-incident vertex, otherwise a counterexample.

    tri tiles a convex polygon (``_assemble``), so by Delaunay's lemma it
    has none when no interior edge is loose (``_loose_edge``). The first
    loose edge (u, v) names one, not always the first in face order: the
    face left of u -> v, led by its least index, and the far apex.
    """
    loose = _loose_edge(tri)
    if loose is None:
        return None
    u, v = loose
    w = tri.apex[(u, v)]
    return CounterExample(min((u, v, w), (v, w, u), (w, u, v)), tri.apex[(v, u)])


def edge_angle_check(tri: Triangulation, u: int, v: int) -> bool:
    """Whether the two angles opposite an interior edge sum below a straight
    angle, decided by the exact in-circle form of that inequality.

    For faces (u, v, r) and (v, u, s) the angle sum at r and s is less than
    180 degrees exactly when s lies strictly outside the circle through
    u, v, r (``_strictly_delaunay``). u and v are vertex ids
    (``Triangulation.vertex_set``).
    """
    tri.vertex_set((u, v))
    if (u, v) not in tri.apex or (v, u) not in tri.apex:
        raise NotInteriorEdge(f"({u}, {v}) is {'a boundary edge' if tri.is_edge(u, v) else 'not an edge'}")
    return _strictly_delaunay(tri, u, v)


def witness_disk(tri: Triangulation, u: int, v: int) -> Disk:
    """A verified empty disk with exactly the edge's endpoints on its boundary.

    The center lies on the perpendicular bisector of the edge (a, b), a < b, at
    a pencil parameter t inside its pencil gap, whose ends the wrap's scan
    reads off a -> b and b -> a (``_left_apex``, on ``tri.scaled``; t does not
    change with scale). With points on both sides of the edge, t is the
    midpoint of the gap. A boundary edge has points on one side only: t steps
    |t_apex|/2 away from the apex's t_apex, or 1/2 when t_apex = 0 (a right
    angle at the apex). The disk is verified exactly against all vertices
    before it is returned, as a circle on ``tri.scaled`` lifted with its factor
    ``tri.scale`` (``exactgeom.circle_of``, ``exactgeom.is_witness_disk``). u
    and v are vertex ids (``Triangulation.vertex_set``).
    """
    tri.vertex_set((u, v))
    if not tri.is_edge(u, v):
        raise NotInteriorEdge(f"({u}, {v}) is not an edge")
    key = a, b = min(u, v), max(u, v)
    xs, ys = [p.x for p in tri.scaled], [p.y for p in tri.scaled]
    left, right = _left_apex(xs, ys, a, b), _left_apex(xs, ys, b, a)
    t_left = left and Fraction(left[0], 2 * left[1])
    t_right = right and Fraction(-right[0], 2 * right[1])  # b -> a's t is -t
    if left and right:
        if t_right >= t_left:
            raise WitnessSearchFailed(f"every circle through edge {key} holds a vertex")
        t = (t_left + t_right) / 2
    else:
        t_apex, away = (t_left, -1) if left else (t_right, 1)
        t = t_apex + away * (abs(t_apex) / 2 or Fraction(1, 2))
    pu, pv = tri.vertices[a], tri.vertices[b]
    bx, by = pv.x - pu.x, pv.y - pu.y
    center = Point(pu.x + bx / 2 - t * by, pu.y + by / 2 + t * bx)
    d = Disk(center, dist_sq(center, pu))
    if not is_witness_disk(tri.scaled, circle_of(d, tri.scale), a, b):
        raise WitnessSearchFailed(f"no verified witness disk for edge {key}")
    return d
