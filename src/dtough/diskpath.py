"""Paths inside a disk: recursive construction and a BFS reference oracle.

Given a closed disk whose boundary carries exactly two vertices of a
Delaunay triangulation, a path between them exists inside the disk. The
constructive form recurses: if no vertex is interior, the two boundary
vertices are Delaunay-adjacent (the disk itself is the witness); otherwise
the disk is shrunk toward each boundary vertex until the first interior
vertex is pinned on the boundary, splitting the problem in two.

Shrink "first hits" are compared as exact rational parameters, never as
radii. An exact tie, or any vertex landing exactly on a shrunken boundary,
is surfaced as ``TieOnBoundary`` instead of being perturbed away.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import NamedTuple, Optional

from .delaunay import Triangulation
from .errors import InvariantBroken, PreconditionViolated, TieOnBoundary
from .exactgeom import (
    Disk,
    Position,
    disk_classify,
    disk_contains_disk,
    shrink_parameter,
    shrink_toward,
)


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


def _classify_all(tri: Triangulation, d: Disk, p: int, q: int) -> list[int]:
    """Interior vertex indices; raises if any third vertex sits on the boundary."""
    interior = []
    stray = []
    for i, pt in enumerate(tri.vertices):
        pos = disk_classify(d, pt)
        if i == p or i == q:
            if pos is not Position.BOUNDARY:
                raise PreconditionViolated(f"vertex {i} must lie on the disk boundary")
        elif pos is Position.BOUNDARY:
            stray.append(i)
        elif pos is Position.INTERIOR:
            interior.append(i)
    if stray:
        raise TieOnBoundary(
            f"vertices {stray} lie exactly on the disk boundary", witnesses=stray
        )
    return interior


def _splice_simple(left: list[int], right: list[int]) -> list[int]:
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


def _check_endpoints(tri: Triangulation, p: int, q: int) -> None:
    """Raise ``PreconditionViolated`` unless p and q are two distinct vertex ids."""
    for v in (p, q):
        if not 0 <= v < len(tri):
            raise PreconditionViolated(f"vertex {v} is not in range(0, {len(tri)})")
    if p == q:
        raise PreconditionViolated(f"path endpoints must differ, got {p} twice")


def find_path(tri: Triangulation, p: int, q: int, d: Disk) -> DiskPath:
    """Constructive path from p to q through edges of tri, inside d.

    Preconditions (checked exactly): p and q are distinct vertex ids, both
    on the boundary of d, and no other vertex is on it. Base case: no
    interior vertex forces (p, q) to be an edge; a miss there would falsify
    the empty-disk edge characterization and raises ``InvariantBroken``.
    """
    _check_endpoints(tri, p, q)
    path = _find(tri, p, q, d)
    result = DiskPath(tuple(path), d)
    check_disk_path(tri, result)
    if result.vertices[0] != p or result.vertices[-1] != q:
        raise InvariantBroken("path endpoints drifted")
    return result


def _find(tri: Triangulation, p: int, q: int, d: Disk) -> list[int]:
    interior = _classify_all(tri, d, p, q)
    if not interior:
        if not tri.is_edge(p, q):
            raise InvariantBroken(
                f"empty disk through {p} and {q} but no Delaunay edge between them"
            )
        return [p, q]

    pp = tri.vertices[p]
    params: list[tuple[Fraction, int]] = [
        (shrink_parameter(d, pp, tri.vertices[x]), x) for x in interior
    ]
    best_t = min(t for t, _ in params)
    hits = [x for t, x in params if t == best_t]
    if len(hits) > 1:
        raise TieOnBoundary(
            f"vertices {hits} reach the shrinking boundary simultaneously",
            witnesses=hits,
        )
    r = hits[0]
    rp = tri.vertices[r]
    d_pr = shrink_toward(d, pp, rp)
    d_qr = shrink_toward(d, tri.vertices[q], rp)
    for sub in (d_pr, d_qr):
        if not disk_contains_disk(d, sub):
            raise InvariantBroken("shrunken disk escaped its parent")
    if disk_classify(d_pr, tri.vertices[q]) is not Position.EXTERIOR:
        raise InvariantBroken("first shrunken disk failed to exclude the far endpoint")
    if disk_classify(d_qr, pp) is not Position.EXTERIOR:
        raise InvariantBroken("second shrunken disk failed to exclude the near endpoint")
    # Strict progress: r left the interior and nesting admits no newcomers.
    for sub in (d_pr, d_qr):
        survivors = sum(
            1
            for x in interior
            if disk_classify(sub, tri.vertices[x]) is Position.INTERIOR
        )
        if survivors >= len(interior):
            raise InvariantBroken("interior vertex count failed to decrease")
    left = _find(tri, p, r, d_pr)
    right = _find(tri, q, r, d_qr)
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
