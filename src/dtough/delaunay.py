"""Delaunay triangulation construction and verification.

One routine builds every triangulation (``_construct``): ``build`` runs it
on a point set with no face known, and ``extend`` on a built triangulation
plus added points, carrying over each old face whose circumcircle every
added point lies strictly outside (Bowyer; Watson, Computer Journal 1981).
It gift-wraps the missing faces off the pencils of circles through their
edges: ab is a Delaunay edge exactly when some circle through a and b has
no other point inside (Dillencourt, DCG 1990), that is when the pair's
pencil gap is open (``exactgeom.pencil_gap``), and the apex of the face
left of a -> b is the point at the gap's left end. One scan per face and
per hull edge reads that end alone (``exactgeom.delaunay_faces``, O(n^2)
from no face) and proves no face empty. It then checks that the faces
tile a strictly convex hull and tests every interior edge of a new face
strictly: the far apex strictly outside the circle through the edge and
the near one, O(1) per edge. By Delaunay's lemma (Delaunay 1934; Lawson
1977) such a tiling is the Delaunay triangulation, whatever the scan did,
and strictness makes it unique, so the routine needs no general-position
certificate. The certificate runs only when a step fails, to name the
violation (``DegenerateInput``) among the tuples that hold a point the
carried faces never saw
(``exactgeom.general_position_added``: O(n^3) for ``build``, where it is
``general_position``, and O(k n^2) for k added points); on points in
general position a failure is a broken invariant. So the routine accepts
some point sets outside general position, those whose Delaunay
triangulation is unique and strict, such as four cocircular points with a
fifth inside their circle; the paper's hypothesis is reported apart, by
the ``hypothesis`` check of ``cli``. It runs on one lcm-scaled integer copy
of the points (``exactgeom.integer_copy``), which gives the same faces as
the rational points.

One strict edge test (``_strictly_delaunay``: the far apex has positive
``power`` on the near face's circle, ``Triangulation.circle``) answers
``edge_angle_check``, and one walk over the interior edges of some faces
(``_loose_edge``) runs it for the construction, on the new faces, and for
``verify_delaunay``, on all of them. Every triangulation
tiles a convex polygon traversed once (``_assemble``), so by the lemma the
first loose edge's face and far apex are ``verify_delaunay``'s
counterexample. A circle is a pure function of its face's three scaled
vertices, up to a positive factor that no sign sees, so reading it makes no
verifier depend on how the triangulation was built. ``witness_disk`` finds
its center's pencil parameter in the edge's pencil gap on the scaled copy
too; only the disk's center, an arbitrary rational, is built from the
``Fraction`` vertices, and the disk is verified as a circle on the scaled
copy, lifted with the copy's factor ``scale`` (``exactgeom.circle_of``).
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
    delaunay_faces,
    dist_sq,
    general_position,  # not called here; bench/test_bench.py reads it off this module
    general_position_added,
    integer_copy,
    is_witness_disk,
    orient,
    pencil_gap,
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
    is the ``left`` end of the pair's pencil gap
    (``exactgeom.pencil_gap(xs, ys, u, v)``). An edge is interior when both
    directions are keys and boundary when only the one along the CCW hull
    is. ``edges`` (each undirected edge once, as (u, v) with u < v, sorted),
    ``neighbors`` and ``hull`` are read off the map.
    ``(scale, scaled)`` is ``exactgeom.integer_copy(vertices)``: the lcm of
    the denominators and the copy the construction scanned or
    ``from_triangles`` derives, on which every orientation and in-circle
    sign equals the one on ``vertices``. ``circle`` maps each dart (u, v)
    to the circle of the face left of it on ``scaled``
    (``exactgeom.circle_through``, or a positive multiple of it), held for
    every face from construction on, so an in-circle question is one lookup
    and one ``power`` at a ``scaled`` vertex. ``_assemble`` computes each
    face's circle when it checks the face, and ``extend`` carries the kept
    faces' circles over. The three are derived from the other fields, so they
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
    pts: tuple[Point, ...],
    scale: int,
    q: tuple[Point, ...],
    triangles: Sequence[tuple[int, int, int]],
    carried: Sequence[tuple[tuple[int, int, int], Circle]] = (),
) -> Triangulation:
    """``from_triangles`` on points whose lcm-scaled copy q is already known,
    plus the ``carried`` faces, each with its circle on q.

    A carried face was checked when it was first assembled, on a copy that q
    is a positive multiple of (``extend``'s kept faces), so it enters
    ``apex`` and ``circle`` unchecked. One pass over ``triangles`` checks
    each face, computes its circle and fills ``apex``; everything else is
    read off it, over all faces. The boundary is the directed edges whose
    reverse is absent, and the hull follows their successors from the least
    index, CCW because every face lies left of its edges. Lest a star winding
    twice pass, the fan from the hull vertex with the least scaled point,
    which sees the rest in one half-plane, must be CCW too.

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
    for (a, b, c), known in carried:
        apex[(a, b)], apex[(b, c)], apex[(c, a)] = c, a, b
        circle[(a, b)] = circle[(b, c)] = circle[(c, a)] = known
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


def build(points: Sequence[Point]) -> Triangulation:
    """The Delaunay triangulation of a point set, when it is unique and
    strict: every point strictly outside the circumcircle of every face it
    is not a vertex of. General position implies this.

    ``_construct`` with no face known, on the points scaled once by the lcm
    of their denominators; the predicates are invariant under that positive
    factor. Outside that case it raises ``DegenerateInput`` with the least
    general-position violation (``exactgeom.general_position``), or
    ``InvariantBroken`` when there is none. The faces depend only on the
    point set, never on the input order; tests check this by shuffling
    inputs.
    """
    pts = tuple(points)
    if len(pts) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(pts)}")
    return _construct(pts, *integer_copy(pts), (), 0)


def extend(tri: Triangulation, added: Sequence[Point]) -> Triangulation:
    """The Delaunay triangulation of tri's vertices followed by ``added``,
    as ``build`` of the union returns it.

    When tri is strictly Delaunay, as ``build`` returns it, an old face
    stays a face exactly when every added point lies strictly outside its
    circumcircle (Bowyer; Watson, Computer Journal 1981), and
    ``_construct`` carries the kept faces over and tests only the new ones.
    The keep test is strict: an added point on a face's circle, none inside,
    leaves that empty circle with four points and the union with no strict
    triangulation, so keeping the face or not, the same violation is named.
    So on any other tri (the tests' Kleetopes) the result is a
    triangulation of the union that is strictly locally Delaunay at every
    edge of a new face, and may not be Delaunay. The union's copy is m
    times ``tri.scaled`` and then the added points' copy, whose factor L' is
    the lcm of L = ``tri.scale`` and their denominators, m = L' / L: no old
    vertex is read again. On it a face's circle (W, U, V, K) in
    ``tri.circle`` is (W, mU, mV, m^2 K), ``circle_through`` on the union's
    copy divided by m^2 > 0. Each kept face goes to the union with that
    circle, unchecked: its orientation was checked in tri, and a positive
    factor keeps it. A violation is named among the tuples that hold an
    added point. ``structure.sentinel_augment`` adds its sentinels here.
    """
    scale, new = integer_copy(added, tri.scale)
    m = scale // tri.scale
    q = tuple(Point(m * x, m * y) for x, y in tri.scaled) + new
    n = len(tri)
    carried = []
    for a, b, c in tri.triangles:
        w, u, v, k = tri.circle[(a, b)]
        circle = (w, m * u, m * v, m * m * k)
        if all(power(circle, p) > 0 for p in q[n:]):
            carried.append(((a, b, c), circle))
    return _construct(tri.vertices + tuple(added), scale, q, carried, n)


def _construct(
    pts: tuple[Point, ...],
    scale: int,
    q: tuple[Point, ...],
    carried: Sequence[tuple[tuple[int, int, int], Circle]],
    start: int,
) -> Triangulation:
    """The triangulation of pts, whose lcm-scaled copy is q, made of the
    ``carried`` faces, each with its circle on q and on points before
    ``start`` only, and of new faces strictly locally Delaunay at every
    edge: the strict Delaunay triangulation when the carried faces are
    faces of it.

    1. ``exactgeom.delaunay_faces`` wraps the new faces outward from the
       carried ones, or from scratch when there are none; it proves no
       face empty, steps 2 and 3 do.
    2. ``_assemble`` checks that all faces tile a strictly convex hull and
       computes the new faces' circles; a failed check is a broken
       invariant.
    3. Each interior edge of a new face is tested strictly (``_loose_edge``);
       a loose one is a broken invariant.
    4. On a broken invariant from any step, the certificate scans the
       tuples that hold a point from ``start`` on
       (``exactgeom.general_position_added``; with ``start`` 0 it is
       ``general_position``): a violation it finds raises
       ``DegenerateInput``, and without one the alarm stands.
    """
    try:
        faces = delaunay_faces(q, [t for t, _ in carried])
        try:
            tri = _assemble(pts, scale, q, faces, carried)
        except ValueError as exc:
            raise InvariantBroken(f"wrapped faces do not triangulate the points: {exc}") from exc
        loose = _loose_edge(tri, faces)
        if loose is not None:
            raise InvariantBroken(f"interior edge {loose} is not strictly locally Delaunay")
    except InvariantBroken:
        violation = general_position_added(q[:start], q[start:])
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


def _loose_edge(tri: Triangulation, faces: Sequence[tuple[int, int, int]]) -> Optional[tuple[int, int]]:
    """The first interior edge (u, v), u < v, of ``faces`` that is not
    strictly locally Delaunay (``_strictly_delaunay``), or None.

    Each such edge is tested once, also when both its faces are in
    ``faces``. An edge between two faces outside ``faces`` (``extend``'s
    kept faces) is not tested."""
    apex = tri.apex
    darts = [d for a, b, c in faces for d in ((a, b), (b, c), (c, a))]
    own = set(darts)
    for u, v in darts:
        if (u < v or (v, u) not in own) and (v, u) in apex and not _strictly_delaunay(tri, u, v):
            return (u, v) if u < v else (v, u)
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
    loose = _loose_edge(tri, tri.triangles)
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

    The center lies on the perpendicular bisector of the edge, at a pencil
    parameter t inside the edge's pencil gap (``exactgeom.pencil_gap``, on
    ``tri.scaled``; t does not change with scale). With points on both sides
    of the edge, t is the midpoint of the gap. A boundary edge has points on
    one side only: t steps |t_apex|/2 away from the apex's t_apex, or 1/2
    when t_apex = 0 (a right angle at the apex). The disk is verified
    exactly against all vertices before it is returned, as a circle on
    ``tri.scaled`` lifted with its factor ``tri.scale``
    (``exactgeom.circle_of``, ``exactgeom.is_witness_disk``). u and v are
    vertex ids (``Triangulation.vertex_set``).
    """
    tri.vertex_set((u, v))
    if not tri.is_edge(u, v):
        raise NotInteriorEdge(f"({u}, {v}) is not an edge")
    key = a, b = min(u, v), max(u, v)
    gap = pencil_gap([p.x for p in tri.scaled], [p.y for p in tri.scaled], a, b)
    if gap is None:
        raise WitnessSearchFailed(f"every circle through edge {key} holds a vertex")
    left, right = gap  # each end is (num, den, k) with 2t_k = num / den
    if left and right:
        t = (Fraction(left[0], left[1]) + Fraction(right[0], right[1])) / 4
    else:
        (num, den, _), away = (left, -1) if left else (right, 1)
        t_apex = Fraction(num, 2 * den)
        t = t_apex + away * (abs(t_apex) / 2 or Fraction(1, 2))
    pu, pv = tri.vertices[a], tri.vertices[b]
    bx, by = pv.x - pu.x, pv.y - pu.y
    center = Point(pu.x + bx / 2 - t * by, pu.y + by / 2 + t * bx)
    d = Disk(center, dist_sq(center, pu))
    if not is_witness_disk(tri.scaled, circle_of(d, tri.scale), a, b):
        raise WitnessSearchFailed(f"no verified witness disk for edge {key}")
    return d
