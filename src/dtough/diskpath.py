"""Paths inside a disk: recursive construction and a BFS reference oracle.

Given a closed disk whose boundary carries exactly two vertices of a
Delaunay triangulation, a path between them exists inside the disk. The
constructive form recurses: if no vertex is interior, the two boundary
vertices are Delaunay-adjacent (the disk itself is the witness); otherwise
the disk is shrunk toward each boundary vertex until the first interior
vertex is pinned on the boundary, splitting the problem in two.

The recursion runs on the triangulation's integer copy of its vertices
(``Triangulation.scaled``), lifted once to (x, y, x^2 + y^2). The caller's
disk is lifted once to the package's one circle on that copy,
``exactgeom.Circle`` (W, U, V, K) with W > 0, whose power
P(X) = W |X|^2 - 2 (U x + V y) + K (``exactgeom.power``) is negative inside
and zero on the boundary. Shrinking toward a boundary anchor a until the
interior vertex r reaches the boundary is one step in the pencil of circles
tangent at a: |r - a|^2 P + (-P(r)) |X - a|^2, reduced by the gcd of its
coefficients. The first vertex pinned is the interior x of greatest
-P(x) / |x - a|^2, compared by cross-multiplication; on a tie the least
index is pinned. Every check of the recursion (anchors on their circle,
internal tangency to the parent, which implies containment, and exclusion
of the far endpoint) is an exact integer identity, and a failed one is
``InvariantBroken``. Contained in its parent, a shrink finds its interior
among the parent's, less its pinned anchor: progress is strict.

Ties need no alarm. ``find_path`` checks once that only p and q lie on the
caller's boundary. A shrunken circle passes through its two anchors, so
general position leaves room on it for at most one more vertex: a second
vertex pinned by a tie, or one that the circle through q and r happens to
meet. That vertex counts as outside. Every further shrink is tangent to this
circle at one of its anchors, so it stays outside, and a circle through two
vertices with none inside still certifies them as an edge (with a third on
it, the three bound a Delaunay face). The finished path is checked against
the caller's ``Fraction`` disk (``check_disk_path``), and ``path_oracle``
reads that disk too.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import NamedTuple, Optional

from .delaunay import Triangulation
from .errors import InvariantBroken, PreconditionViolated
from .exactgeom import Circle, Disk, Lifted, Position, denominator_lcm, disk_classify, lifted, power


class DiskPath(NamedTuple):
    vertices: tuple[int, ...]  # from p to q; consecutive pairs are edges
    disk: Disk


def check_disk_path(tri: Triangulation, path: DiskPath) -> None:
    """Raise if the path violates its own invariants (exact checks)."""
    vs = path.vertices
    if len(vs) < 2 or len(set(vs)) != len(vs):
        raise InvariantBroken("path repeats a vertex or is too short")
    for a, b in zip(vs, vs[1:]):
        if not tri.is_edge(a, b):
            raise InvariantBroken(f"({a}, {b}) is not an edge of the triangulation")
    for v in vs:
        if disk_classify(path.disk, tri.vertices[v]) is Position.EXTERIOR:
            raise InvariantBroken(f"path vertex {v} is outside the disk")


def _reduced(w: int, u: int, v: int, k: int) -> Circle:
    g = math.gcd(w, u, v, k)
    return w // g, u // g, v // g, k // g


def _lift(tri: Triangulation, d: Disk) -> Circle:
    """d as an integer circle on ``tri.scaled``, whose factor is L: the power
    |X - L c|^2 - L^2 r^2 times the lcm of its coefficients' denominators."""
    scale = denominator_lcm(tri.vertices)
    cx, cy = scale * Fraction(d.center.x), scale * Fraction(d.center.y)
    k = cx * cx + cy * cy - scale * scale * Fraction(d.radius_sq)
    w = math.lcm(cx.denominator, cy.denominator, k.denominator)
    return _reduced(
        w,
        cx.numerator * (w // cx.denominator),
        cy.numerator * (w // cy.denominator),
        k.numerator * (w // k.denominator),
    )


def _shrink(c: Circle, a: Lifted, r: Lifted, lam: int) -> Circle:
    """The circle through a and r tangent to c at a, for a on c and r inside
    it with lam = -P(r) > 0: |r - a|^2 P + lam |X - a|^2, reduced.

    |X - a|^2 is the circle (1, a.x, a.y, |a|^2) of radius zero at a, so every
    circle of the pencil is tangent to c at a; the weights make r vanish.
    """
    w, u, v, k = c
    ax, ay, a2 = a
    m = (r[0] - ax) ** 2 + (r[1] - ay) ** 2
    return _reduced(m * w + lam, m * u + lam * ax, m * v + lam * ay, m * k + lam * a2)


def _internally_tangent(outer: Circle, inner: Circle) -> bool:
    """Whether inner is internally tangent to outer, dist(centers) = R - r in
    squared form, which puts inner's closed disk inside outer's.

    A circle's center is (U, V) / W and its squared radius N / W^2 with
    N = U^2 + V^2 - K W. Times W1^2 W2^2 the squared radii are
    big = N1 W2^2 and small = N2 W1^2 and the squared center distance is
    (U1 W2 - U2 W1)^2 + (V1 W2 - V2 W1)^2; with m = big + small - that
    distance, the test is small <= big, m >= 0 and m^2 = 4 big small.
    """
    w1, u1, v1, k1 = outer
    w2, u2, v2, k2 = inner
    big = (u1 * u1 + v1 * v1 - k1 * w1) * w2 * w2
    small = (u2 * u2 + v2 * v2 - k2 * w2) * w1 * w1
    m = big + small - (u1 * w2 - u2 * w1) ** 2 - (v1 * w2 - v2 * w1) ** 2
    return small <= big and m >= 0 and m * m == 4 * big * small


def _interior(
    pts: list[Lifted], c: Circle, p: int, q: int, among: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The vertices of among strictly inside c with their (negative) powers.
    p and q must lie on c; a third vertex on it counts as outside."""
    for a in (p, q):
        if power(c, pts[a]):
            raise InvariantBroken(f"shrunken disk lost its anchor {a}")
    return [(i, value) for i, _ in among if (value := power(c, pts[i])) < 0]


def _splice_simple(left: list[int], right: list[int]) -> list[int]:
    """Concatenate two vertex walks sharing their junction into a simple walk
    in one pass: a vertex met again cuts the walk back to its first visit."""
    walk: list[int] = []
    at: dict[int, int] = {}
    for v in left + right[1:]:
        if v in at:
            for u in walk[at[v] + 1 :]:
                del at[u]
            del walk[at[v] + 1 :]
        else:
            at[v] = len(walk)
            walk.append(v)
    return walk


def _check_endpoints(tri: Triangulation, p: int, q: int) -> None:
    """Raise ``PreconditionViolated`` unless p and q are two distinct vertex ids."""
    for v in (p, q):
        if not 0 <= v < len(tri):
            raise PreconditionViolated(f"vertex {v} is not in range(0, {len(tri)})")
    if p == q:
        raise PreconditionViolated(f"path endpoints must differ, got {p} twice")


def find_path(tri: Triangulation, p: int, q: int, d: Disk) -> DiskPath:
    """Constructive path from p to q through edges of tri, inside d.

    Preconditions (checked exactly, here and only here): p and q are
    distinct vertex ids, both on the boundary of d, and no other vertex is
    on it. Inside the recursion a vertex on a shrunken boundary other than
    its two anchors counts as outside: general position allows at most one,
    and it lies outside every further shrink. Base case: no interior vertex
    forces (p, q) to be an edge; a miss there would falsify the empty-disk
    edge characterization and raises ``InvariantBroken``.
    """
    _check_endpoints(tri, p, q)
    pts = lifted(tri.scaled)
    c = _lift(tri, d)
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
    tri: Triangulation, pts: list[Lifted], p: int, q: int, c: Circle, interior: list[tuple[int, int]]
) -> list[int]:
    if not interior:
        if not tri.is_edge(p, q):
            raise InvariantBroken(
                f"empty disk through {p} and {q} but no Delaunay edge between them"
            )
        return [p, q]

    # The first vertex pinned shrinking toward p has the greatest
    # -P(x) / |x - p|^2, kept as the pair (-P(x), |x - p|^2); the strict
    # comparison keeps the least index of a tie.
    px, py, _ = pts[p]
    num, den, r = 0, 1, None
    for x, value in interior:
        m = (pts[x][0] - px) ** 2 + (pts[x][1] - py) ** 2
        if -value * den > num * m:
            num, den, r = -value, m, x
    c_pr = _shrink(c, pts[p], pts[r], num)
    c_qr = _shrink(c, pts[q], pts[r], num)
    if not (_internally_tangent(c, c_pr) and _internally_tangent(c, c_qr)):
        raise InvariantBroken("shrunken disk lost tangency with its parent")
    if power(c_pr, pts[q]) <= 0:
        raise InvariantBroken("first shrunken disk failed to exclude the far endpoint")
    if power(c_qr, pts[p]) <= 0:
        raise InvariantBroken("second shrunken disk failed to exclude the near endpoint")
    # each shrink lies in c: its interior is among c's, less r
    left = _find(tri, pts, p, r, c_pr, _interior(pts, c_pr, p, r, interior))
    right = _find(tri, pts, q, r, c_qr, _interior(pts, c_qr, q, r, interior))
    return _splice_simple(left, right[::-1])


def path_oracle(tri: Triangulation, p: int, q: int, d: Disk) -> Optional[DiskPath]:
    """Shortest path through vertices inside or on the disk, by plain BFS.

    Independent of the recursive construction; used to cross-examine it.
    Returns None when no such path exists. p and q must be distinct vertex
    ids.
    """
    _check_endpoints(tri, p, q)
    allowed = {
        i
        for i, pt in enumerate(tri.vertices)
        if disk_classify(d, pt) is not Position.EXTERIOR
    }
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
