"""Paths inside a disk: the induction of the disk-path lemma, and a BFS
reference oracle.

Given a closed disk whose boundary carries exactly two vertices of a
Delaunay triangulation, a path between them exists inside the disk. The
proof is an induction on the vertices strictly inside the disk. With none,
the disk witnesses the two as an edge. Otherwise shrink the disk toward one
boundary vertex a, tangent there, until the first interior vertex r is
pinned on its boundary: that disk is empty, so (a, r) is an edge. The disk
through r tangent at the other boundary vertex b lies in the first and
holds fewer vertices, and the induction goes on with b and r. ``find_path``
runs it as a loop, one pinned vertex and one edge per step, growing the
path from both ends.

The loop runs on the triangulation's integer copy of its vertices
(``Triangulation.scaled``). The caller's disk is written once as the
package's one circle on that copy, from the copy's factor
``Triangulation.scale`` (``exactgeom.circle_of``), (W, U, V, K)
with W > 0, whose power
P(X) = W |X|^2 - 2 (U x + V y) + K (``exactgeom.power``) is negative inside
and zero on the boundary. Shrinking toward a boundary anchor a until the
interior vertex r reaches the boundary is one step in the pencil of circles
tangent at a: |r - a|^2 P + (-P(r)) |X - a|^2, reduced by the gcd of its
coefficients. The first vertex pinned is the interior x of greatest
-P(x) / |x - a|^2, compared by cross-multiplication; on a tie the least
index is pinned. That circle's power at any x inside the parent is
|r - a|^2 P(x) - P(r) |x - a|^2 >= 0, so it is empty and its interior is
never scanned. Every check of a step (both shrinks internally tangent to
their parent, which implies containment, the anchors on their circles, and
the edge) is an exact integer identity or a lookup, and a failed one is
``InvariantBroken``. Contained in its parent, the next circle finds its
interior among the parent's, less its pinned anchor: progress is strict.

Ties need no alarm, nor general position: T need only be strict, as
``delaunay.build`` returns it. Then no empty circle carries four vertices:
they would span one Delaunay cell, and a face of T triangulating it would have
a fourth vertex on its circle. The induction uses that only on empty circles:
the pinned one through a and r, so (a, r) is an edge, and the last, so its
anchors are. ``find_path`` checks once that only p and q lie on the caller's
boundary. The circle through b and r may carry any number of further vertices;
each counts as outside, and lies strictly outside every later circle,
internally tangent to this one at one anchor. The finished path is checked
against the caller's disk (``check_disk_path``), and ``path_oracle`` reads
that disk too. Each lifts it once from ``Triangulation.scale``, as the loop
does, and tests a vertex by the sign of its power at the vertex's copy, so
none of them reads the ``Fraction`` vertices.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Sequence

from .delaunay import Triangulation
from .errors import InvariantBroken, PreconditionViolated
from .exactgeom import Circle, Disk, Point, circle_of, internally_tangent, power, reduced


class DiskPath(NamedTuple):
    vertices: tuple[int, ...]  # from p to q; consecutive pairs are edges
    disk: Disk


def check_disk_path(tri: Triangulation, path: DiskPath) -> None:
    """Raise if the path violates its own invariants: two or more vertices,
    none repeated, consecutive ones joined by edges, and each in the disk, a
    nonpositive ``power`` on its circle (``exactgeom.circle_of``)."""
    vs = path.vertices
    if len(vs) < 2 or len(set(vs)) != len(vs):
        raise InvariantBroken("path repeats a vertex or is too short")
    for a, b in zip(vs, vs[1:]):
        if not tri.is_edge(a, b):
            raise InvariantBroken(f"({a}, {b}) is not an edge of the triangulation")
    c = circle_of(path.disk, tri.scale)
    for v in vs:
        if power(c, tri.scaled[v]) > 0:
            raise InvariantBroken(f"path vertex {v} is outside the disk")


def _shrink(c: Circle, a: Point, r: Point, lam: int) -> Circle:
    """The circle through a and r tangent to c at a, for a on c and r inside
    it with lam = -P(r) > 0: |r - a|^2 P + lam |X - a|^2, reduced.

    |X - a|^2 is the circle (1, a.x, a.y, |a|^2) of radius zero at a, so every
    circle of the pencil is tangent to c at a; the weights make r vanish.
    """
    w, u, v, k = c
    ax, ay = a
    m = (r.x - ax) ** 2 + (r.y - ay) ** 2
    return reduced((m * w + lam, m * u + lam * ax, m * v + lam * ay, m * k + lam * (ax * ax + ay * ay)))


def _check_anchors(pts: Sequence[Point], c: Circle, a: int, b: int) -> None:
    for x in (a, b):
        if power(c, pts[x]):
            raise InvariantBroken(f"shrunken disk lost its anchor {x}")


def _check_edge(tri: Triangulation, a: int, b: int) -> None:
    if not tri.is_edge(a, b):
        raise InvariantBroken(f"empty disk through {a} and {b} but no Delaunay edge between them")


def _check_endpoints(tri: Triangulation, p: int, q: int) -> None:
    """Raise ``PreconditionViolated`` unless p and q are two distinct vertex
    ids (``Triangulation.vertex_set``)."""
    if len(tri.vertex_set((p, q))) < 2:
        raise PreconditionViolated(f"path endpoints must differ, got {p} twice")


def find_path(tri: Triangulation, p: int, q: int, d: Disk) -> DiskPath:
    """Constructive path from p to q through edges of tri, inside d.

    Every in-disk test is the sign of ``power`` on d's circle on
    ``tri.scaled`` (``exactgeom.circle_of``). Preconditions (checked
    exactly, here and only here): p and q are distinct vertex ids, both on
    the boundary of d, and no other vertex is on it. Each step of the
    induction shrinks the current circle toward its near anchor a until the
    first interior vertex r is pinned; that empty circle makes (a, r) an
    edge, and the circle through r tangent at the far anchor b, with fewer
    vertices inside, is the next step's. With no interior vertex left the
    two anchors must be an edge. A vertex on a shrunken boundary other than
    its two anchors counts as outside: it lies outside every further
    shrink. tri need only be strict, as ``delaunay.build`` returns it, not
    in general position (module docstring). A missing edge would falsify
    the empty-disk edge characterization and raises ``InvariantBroken``.
    The finished path goes through ``check_disk_path``.
    """
    _check_endpoints(tri, p, q)
    pts = tri.scaled
    c = circle_of(d, tri.scale)
    powers = [power(c, pt) for pt in pts]
    on = [i for i, value in enumerate(powers) if value == 0]
    for v in sorted((p, q)):
        if v not in on:
            raise PreconditionViolated(f"vertex {v} must lie on the disk boundary")
    stray = [i for i in on if i != p and i != q]
    if stray:
        raise PreconditionViolated(
            f"vertices {stray} lie exactly on the disk boundary; only {p} and {q} may"
        )
    interior = [(i, value) for i, value in enumerate(powers) if value < 0]
    result = DiskPath(tuple(_find(tri, pts, p, q, c, interior)), d)
    check_disk_path(tri, result)
    if result.vertices[0] != p or result.vertices[-1] != q:
        raise InvariantBroken("path endpoints drifted")
    return result


def _find(
    tri: Triangulation, pts: Sequence[Point], p: int, q: int, c: Circle, interior: list[tuple[int, int]]
) -> list[int]:
    near, far = [p], [q]  # the walks from the two anchors; near pins next
    while interior:
        a, b = near[-1], far[-1]
        # The first vertex pinned shrinking toward a has the greatest
        # -P(x) / |x - a|^2, kept as the pair (-P(x), |x - a|^2); the strict
        # comparison keeps the least index of a tie.
        ax, ay = pts[a]
        num, den, r = 0, 1, None
        for x, value in interior:
            m = (pts[x].x - ax) ** 2 + (pts[x].y - ay) ** 2
            if -value * den > num * m:
                num, den, r = -value, m, x
        c_ar = _shrink(c, pts[a], pts[r], num)
        c_br = _shrink(c, pts[b], pts[r], num)
        if not (internally_tangent(c, c_ar) and internally_tangent(c, c_br)):
            raise InvariantBroken("shrunken disk lost tangency with its parent")
        # no vertex of c beats r, so c_ar holds none: (a, r) is an edge
        _check_anchors(pts, c_ar, a, r)
        _check_edge(tri, a, r)
        _check_anchors(pts, c_br, b, r)
        near.append(r)
        # c_br lies in c: its interior is among c's, less r
        c = c_br
        interior = [(i, value) for i, _ in interior if (value := power(c, pts[i])) < 0]
        near, far = far, near
    _check_edge(tri, near[-1], far[-1])
    from_p, from_q = (near, far) if near[0] == p else (far, near)
    return from_p + from_q[::-1]


def path_oracle(tri: Triangulation, p: int, q: int, d: Disk) -> Optional[DiskPath]:
    """Shortest path through vertices inside or on the disk, by plain BFS.

    Independent of the constructive induction; used to cross-examine it.
    Returns None when no such path exists. p and q must be distinct vertex
    ids.
    """
    _check_endpoints(tri, p, q)
    c = circle_of(d, tri.scale)
    allowed = {i for i, pt in enumerate(tri.scaled) if power(c, pt) <= 0}
    if p not in allowed or q not in allowed:
        return None
    parent: dict[int, int] = {p: p}
    queue = deque([p])
    while queue:
        v = queue.popleft()
        if v == q:
            break
        for u in tri.neighbors[v]:
            if u in allowed and u not in parent:
                parent[u] = v
                queue.append(u)
    if q not in parent:
        return None
    chain = [q]
    while chain[-1] != p:
        chain.append(parent[chain[-1]])
    return DiskPath(tuple(reversed(chain)), d)
