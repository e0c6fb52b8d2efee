"""Combinatorial structure of Delaunay triangulations.

Connectivity after vertex removal, exhaustive toughness, maximum independent
sets, perfect matchings, and the angle ledger that certifies the floor(n/2)
independent-set bound instance by instance.

The ledger (``angle_audit``) reads one identity on T plus a vertex at
infinity, joined to every hull vertex. Give each edge e of T the angle
theta_e = pi - (the angles opposite e in its faces; one at a hull edge), and
the edge from infinity to a hull vertex a the angle pi - (the hull's
interior angle at a). Around every vertex the theta sum to 2 pi: a vertex of
degree d in f faces has sum d pi - sum over its faces of (pi - its angle
there), which is 2 pi inside, where f = d and the angles fill 2 pi, and
pi + (hull angle) on the hull, where f = d - 1, before its edge to infinity
adds the rest; at infinity the hull's exterior angles sum to 2 pi. Each
edge is counted at both of its ends, so all theta sum to pi (n + 1). No edge
joins two members of an independent set I, so the edges at I are distinct
and their theta sum to 2 pi |I|; the others, the edges of
G = (T + infinity) - I, sum to pi (n + 1 - 2 |I|). G has an edge, since I
holds no two neighbours on the hull cycle. So when every edge of G has
theta > 0, 2 |I| <= n. Each premise is an exact sign and no angle is
computed: theta > 0 at an interior edge exactly when it is strictly locally
Delaunay (``delaunay.edge_angle_check``), always at a hull edge, and at an
edge to infinity exactly when the hull turns strictly left at its vertex.

``sentinel_augment`` encloses T in a triangle of two far points and one
hull vertex, the placement of the sentinel census that the ledger replaced.
No command calls it; it stays only because ``bench/tracing.py`` spans it by
name. The sentinels are placed in closed form and verified by ``build`` of
T's vertices plus the sentinels; a rejected placement doubles its reach,
and 64 rejections raise ``ConstructionFailed``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .delaunay import Triangulation, build, edge_angle_check, verify_delaunay
from .errors import (
    ConstructionFailed,
    DegenerateInput,
    InvariantBroken,
    NoPerfectMatching,
    NotIndependent,
    PreconditionViolated,
    TooLarge,
)
from .exactgeom import Point, cross, radius_sq_w2

VertexSet = frozenset[int]
Matching = frozenset[tuple[int, int]]

# Default size gates of the exhaustive searches; callers raise them by max_n.
TOUGHNESS_GATE = 18
MIS_GATE = 30
# Dead vertex sets the matching search may record before it refuses. On
# gen random 80 --seed 1 it reaches them in 1.3 s at 96 MB peak RSS
# (Python 3.11, one core of a 2-core x86-64 host).
MATCHING_BUDGET = 2**20


# ---------------------------------------------------------------------------
# Connectivity and toughness
# ---------------------------------------------------------------------------


def components_after_removal(tri: Triangulation, removed: Iterable[int]) -> tuple[VertexSet, ...]:
    """Connected components of the graph induced on the surviving vertices.

    Sorted by smallest member, so the partition is deterministic.
    """
    gone = tri.vertex_set(removed)
    alive = [v for v in range(len(tri)) if v not in gone]
    seen: set[int] = set()
    comps = []
    for start in alive:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for u in tri.neighbors[v]:
                if u not in gone and u not in seen:
                    seen.add(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(frozenset(comp))
    return tuple(sorted(comps, key=min))


def _adjacency_masks(tri: Triangulation) -> list[int]:
    masks = [0] * len(tri)
    for u, v in tri.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


class ToughnessWitness(NamedTuple):
    ratio: Fraction
    separator: VertexSet
    component_count: int


def _first_component(masks: list[int], within: int) -> int:
    """The component of the graph induced on the mask ``within`` that holds
    its lowest vertex, as a mask; 0 when ``within`` is."""
    comp = frontier = within & -within
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        grown = masks[v] & within & ~comp
        comp |= grown
        frontier |= grown
    return comp


def _component_count(masks: list[int], within: int) -> int:
    count = 0
    while within:
        within ^= _first_component(masks, within)
        count += 1
    return count


def toughness_exhaustive(tri: Triangulation, max_n: int = TOUGHNESS_GATE) -> Optional[ToughnessWitness]:
    """Minimum of |S| / components(T - S) over all disconnecting S, exactly.

    The search tries only tight separators, by this lemma: if S has the
    least ratio and |S| >= 2, every x in S has neighbours in two or more
    components of T - S, so the neighbours of x outside S induce a
    disconnected graph. Proof: were x adjacent to one component only, S - x
    would leave the same c components at the smaller ratio (s-1)/c; were it
    adjacent to none, S - x would leave x as one more, at (s-1)/(c+1). The
    lemma leaves out singletons, where S - x is empty and no separator. A
    singleton that is not tight leaves no more components than T has, so it
    separates only a disconnected T, and only there are the n singletons
    scored on their own.

    The vertices are decided alive or removed on an explicit stack, in one
    fixed order: most already-decided neighbours first, then least degree.
    Once a removed vertex and all its neighbours are decided, the branch
    ends unless the live neighbours split, a test memoised by their mask.
    Each leaf that survives is scored in place. Ratios are compared by
    integer cross-multiplication, and of equal ratios the numerically least
    S mask wins, the first one an ascending scan over S would meet; as every
    least-ratio S is tight or a singleton, the witness is the one a scan of
    all 2**n sets names. S = {} is never a separator, even when T is
    disconnected.

    The search still takes time exponential in n, though it keeps only the
    stack and the memo: on random Delaunay triangulations about 40 of the
    2**11 - 2 nonempty proper S are scored at n = 11, and a call took about
    6 ms at n = 18 and 0.3 s at n = 28 (Python 3.11, one x86 core). It is
    gated (pass a larger ``max_n`` to opt into longer runs). The returned
    separator is recounted by ``components_after_removal`` first. Returns
    None when no subset disconnects the graph.
    """
    n = len(tri)
    if n > max_n:
        raise TooLarge(f"toughness scan on {n} > {max_n} vertices refused")
    masks = _adjacency_masks(tri)
    full = (1 << n) - 1
    order: list[int] = []
    decided = 0
    undecided = list(range(n))
    while undecided:
        v = max(undecided, key=lambda u: ((masks[u] & decided).bit_count(), -masks[u].bit_count()))
        undecided.remove(v)
        order.append(v)
        decided |= 1 << v
    place = [order.index(v) for v in range(n)]
    # closing[d]: (bit, neighbours) of each x whose last neighbour, or x
    # itself, is decided at depth d
    closing: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        closed = masks[x] | 1 << x
        closing[max(place[u] for u in range(n) if closed >> u & 1)].append((1 << x, masks[x]))

    best_s, best_c, best_alive = 1, 0, 0  # 1/0: no separator seen yet
    splits: dict[int, bool] = {}
    stack = [(0, 0)]  # (depth, alive): order[:depth] is decided
    if _first_component(masks, full) != full:
        stack += [(n, full ^ 1 << x) for x in range(n)]  # the singletons, as leaves
    while stack:
        depth, alive = stack.pop()
        if depth == n:
            s = n - alive.bit_count()
            c = _component_count(masks, alive)
            if s and c >= 2:
                lhs, rhs = s * best_c, best_s * c
                if lhs < rhs or lhs == rhs and alive > best_alive:  # a larger A is a smaller S mask
                    best_s, best_c, best_alive = s, c, alive
            continue
        shut = closing[depth]
        bit = 1 << order[depth]
        for child in (alive, alive | bit):
            for x_bit, nbrs in shut:
                if not child & x_bit:
                    live = nbrs & child
                    split = splits.get(live)
                    if split is None:
                        split = splits[live] = _first_component(masks, live) != live
                    if not split:
                        break
            else:
                stack.append((depth + 1, child))
    if best_c == 0:
        return None
    separator = frozenset(i for i in range(n) if not best_alive >> i & 1)
    recount = len(components_after_removal(tri, separator))
    if recount != best_c or recount < 2:
        raise InvariantBroken(
            f"toughness separator {sorted(separator)} leaves {recount} components, "
            f"not the {best_c} the search counted"
        )
    return ToughnessWitness(Fraction(best_s, best_c), separator, best_c)


# ---------------------------------------------------------------------------
# Maximum independent set
# ---------------------------------------------------------------------------


def max_independent_set(tri: Triangulation, max_n: int = MIS_GATE) -> tuple[int, VertexSet]:
    """Exact maximum independent set by branch and bound with degree pivoting.

    Vertices with at most one available neighbor are taken greedily (always
    safe), then the search branches on a maximum-degree pivot. The
    certificate is deterministic for a given triangulation, and it is
    verified before it is returned: ``best_size`` members, no edge of
    ``tri.edges`` joining two of them; anything else is a broken invariant.
    """
    n = len(tri)
    if n > max_n:
        raise TooLarge(f"independent set search on {n} > {max_n} vertices refused")
    adj = _adjacency_masks(tri)
    best_size = 0
    best_mask = 0

    def grab(avail: int, size: int, mask: int) -> None:
        nonlocal best_size, best_mask
        while avail:
            if size + avail.bit_count() <= best_size:
                return
            reduced = False
            m = avail
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if (adj[v] & avail).bit_count() <= 1:
                    mask |= 1 << v
                    size += 1
                    avail &= ~(adj[v] | 1 << v)
                    reduced = True
                    break
            if not reduced:
                break
        if avail == 0:
            if size > best_size:
                best_size = size
                best_mask = mask
            return
        pivot = -1
        pivot_deg = -1
        m = avail
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & avail).bit_count()
            if d > pivot_deg:
                pivot_deg = d
                pivot = v
        bit = 1 << pivot
        grab(avail & ~(adj[pivot] | bit), size + 1, mask | bit)
        grab(avail & ~bit, size, mask)

    grab((1 << n) - 1, 0, 0)
    cert = frozenset(i for i in range(n) if best_mask >> i & 1)
    if len(cert) != best_size:
        raise InvariantBroken(
            f"independent set {sorted(cert)} has {len(cert)} members, not the {best_size} counted"
        )
    joined = tri.joined(cert)
    if joined is not None:
        raise InvariantBroken(f"independent set holds the edge {joined}")
    return best_size, cert


# ---------------------------------------------------------------------------
# Perfect matching
# ---------------------------------------------------------------------------


def perfect_matching(tri: Triangulation) -> Optional[Matching]:
    """A perfect matching of a Delaunay triangulation, or None for odd order.

    The search is a memoized exhaustive backtrack over vertex bitmasks,
    exact at desk scale, matching the least vertex left to each neighbour in
    index order. It keeps its branch on an explicit stack, one frame per
    pair, so no recursion limit bounds n. The search has no size gate but a
    budget: it records at most ``MATCHING_BUDGET`` dead vertex sets, and one
    more raises ``TooLarge`` naming the budget, so its memory stays bounded
    instead of growing until the process is killed. An even-order input
    with no matching found raises ``NoPerfectMatching``, a broken invariant,
    rather than returning None, since even-order Delaunay triangulations
    always have one. The matching is verified before it is returned: every pair an
    edge of tri, no vertex in two pairs, all n vertices covered; anything
    else is a broken invariant.
    """
    n = len(tri)
    if n % 2:
        return None
    adj = _adjacency_masks(tri)
    dead: set[int] = set()
    # one frame [rem, v, untried candidates, chosen u] per pair on the
    # current branch, v the least vertex left in rem
    frames = [[(1 << n) - 1, 0, adj[0], -1]]
    while frames:
        frame = frames[-1]
        rem, v, cand, _ = frame
        if not cand:
            if len(dead) >= MATCHING_BUDGET:
                raise TooLarge(f"matching search refused at its budget of {MATCHING_BUDGET} dead states")
            dead.add(rem)
            frames.pop()
            continue
        u = (cand & -cand).bit_length() - 1
        frame[2], frame[3] = cand & (cand - 1), u
        rest = rem & ~(1 << v) & ~(1 << u)
        if not rest:
            break
        if rest not in dead:
            w = (rest & -rest).bit_length() - 1
            frames.append([rest, w, adj[w] & rest, -1])
    else:
        raise NoPerfectMatching("even-order Delaunay triangulation without a perfect matching")
    pairs = [(v, u) for _, v, _, u in frames]
    for u, v in pairs:  # u is the least vertex left, so u < v
        if not tri.is_edge(u, v):
            raise InvariantBroken(f"matched pair ({u}, {v}) is not an edge")
    if sorted(x for pair in pairs for x in pair) != list(range(n)):
        raise InvariantBroken("matched pairs do not cover every vertex exactly once")
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# Sentinel augmentation
# ---------------------------------------------------------------------------


class SentinelAugmentation(NamedTuple):
    tri: Triangulation  # triangulation of the original points plus both sentinels
    anchor: int  # hull vertex of the input kept in the removed set
    sentinels: tuple[Point, Point]  # appended as the last two vertex indices


def sentinel_augment(tri: Triangulation, removed: Iterable[int]) -> SentinelAugmentation:
    """Add two verified sentinel points enclosing tri, a triangulation as
    ``build`` returns it, which ``verify_delaunay`` checks first. No command
    calls it: it is kept only for ``bench/tracing.py``, which spans it by
    name.

    Let A and B be the vectors from the anchor u to its two hull neighbours.
    The interior angle at u is below a straight angle, so every vertex lies
    in the cone at u spanned by A and B, and that cone lies inside the wider
    cone spanned by e1 = A - B/2 and e2 = B - A/2: A = 2/3 (2 e1 + e2) and
    B = 2/3 (e1 + 2 e2). The sentinels are s1 = u + r e1 and
    s2 = u + (r + 1) e2, where the reach r is the larger of two integers:

    * ceil(2 max(x + y)) over the hull vertices u + x e1 + y e2, which puts
      every vertex but u strictly inside the triangle (u, s1, s2), since
      x, y > 0 and x + y < r;
    * an integer whose square times min(|e1|^2, |e2|^2) exceeds twice the
      largest |center - u|^2 + radius^2 over the face circumdisks, which
      puts both sentinels outside every one of them.

    The "+ 1" keeps the triangle from being isosceles, which would make a
    mirror-symmetric input such as (0,0), (1,0), (0,1) cocircular with the
    sentinels at every reach.

    Nothing about the placement is trusted: ``build(tri.vertices + (s1,
    s2))`` tests every face strictly and raises ``DegenerateInput`` when a
    sentinel is collinear or cocircular with input points in a way that
    spoils the triangulation, and the candidate is taken only when every
    face of the input survives and the augmented hull is exactly the
    sentinel triangle. A rejected candidate doubles r; after 64 rejections
    the search raises ``ConstructionFailed``. The face circles of the bound
    are ``tri.circle``. The placement runs in ints on ``tri.scaled`` (the
    vertices times L = ``tri.scale``), where A and B give E1 = 2A - B =
    2L e1 and E2 = 2B - A = 2L e2; only s1 = (2u + r E1) / 2L and s2 are
    built as ``Fraction``s, in the caller's coordinates.
    """
    gone = tri.vertex_set(removed)
    hull_in_removed = [h for h in tri.hull if h in gone]
    if not hull_in_removed:
        raise PreconditionViolated("removed set must contain a hull vertex")
    if (bad := verify_delaunay(tri)) is not None:
        raise PreconditionViolated(f"tri is not Delaunay: face {bad.triangle} holds vertex {bad.vertex}")
    anchor = min(hull_in_removed)
    pos = tri.hull.index(anchor)
    a, b = tri.hull[pos - 1], tri.hull[(pos + 1) % len(tri.hull)]
    qa, qb, qu = tri.scaled[a], tri.scaled[b], tri.scaled[anchor]
    ax, ay, bx, by = qa.x - qu.x, qa.y - qu.y, qb.x - qu.x, qb.y - qu.y
    e1, e2 = (2 * ax - bx, 2 * ay - by), (2 * bx - ax, 2 * by - ay)

    # x + y = 2 - 2 area(a, b, h) / area(a, b, u), 2 on the segment ab, so
    # ceil(2 max(x + y)) = 4 + ceil(4 max(-cross(a, b, h) d) / d^2), d^2 > 0
    d = cross(qa, qb, qu)
    far = max(-cross(qa, qb, tri.scaled[h]) * d for h in tri.hull if h != anchor)
    inside = 4 - (-4 * far) // (d * d)

    # The circumdisk bound: twice the largest |center - anchor|^2 + radius^2
    # over the face circumdisks. A face's circle (W, U, V, K) has center
    # (U, V) / W and squared radius ``radius_sq_w2`` / W^2; the largest
    # num / W^2 is picked by integer cross-multiplication. As |e| = |E| / 2L,
    # r^2 |e|^2 > 2 num / (W L)^2 asks r^2 > 8 num / (W |E|)^2, and
    # isqrt(ceil(8 num / (W |E|)^2)) + 1 is strictly above its root.
    best, best_w2 = 0, 1
    for a, b, _ in tri.triangles:
        c = w, u, v, _ = tri.circle[(a, b)]
        num = (u - w * qu.x) ** 2 + (v - w * qu.y) ** 2 + radius_sq_w2(c)
        if num * best_w2 > best * w * w:
            best, best_w2 = num, w * w
    outside = math.isqrt(-(-8 * best // (best_w2 * min(x * x + y * y for x, y in (e1, e2))))) + 1

    tri_faces = set(tri.triangles)
    n = len(tri)
    reach = max(inside, outside)
    for _ in range(64):
        s1, s2 = (
            Point(Fraction(2 * qu.x + r * ex, 2 * tri.scale), Fraction(2 * qu.y + r * ey, 2 * tri.scale))
            for r, (ex, ey) in ((reach, e1), (reach + 1, e2))
        )
        reach *= 2
        try:
            augmented = build(tri.vertices + (s1, s2))
        except DegenerateInput:
            continue
        if tri_faces <= set(augmented.triangles) and set(augmented.hull) == {anchor, n, n + 1}:
            return SentinelAugmentation(augmented, anchor, (s1, s2))
    raise ConstructionFailed("no sentinel placement satisfied all conditions in 64 attempts")


def planar_faces(big: Triangulation, chosen: VertexSet) -> list[tuple[tuple[int, ...], VertexSet]]:
    """Interior faces of big minus the chosen vertices, each as its boundary
    cycle and the set of chosen vertices it encloses.

    The faces are walked off ``big.apex``: the face left of a dart u -> v
    continues along v -> w, where w = ``apex[(u, v)]``. When w is chosen the
    face is the hole around w, and the walk steps round it to
    v -> ``apex[(w, v)]``, the next neighbour of w. Only darts that are
    ``apex`` keys with both ends kept are walked, so the outer face, big's
    hull, is never visited; on a ``sentinel_augment`` triangulation that
    hull is the sentinel triangle, all of it kept. A fan that does not close
    around a chosen vertex is a broken invariant. ``angle_audit`` walks no
    face; the sentinel census oracle of the tests does.
    """
    apex = big.apex
    seen: set[tuple[int, int]] = set()
    faces = []
    for start in apex:
        if start in seen or start[0] in chosen or start[1] in chosen:
            continue
        cycle, enclosed = [], set()
        dart = start
        while dart not in seen:
            seen.add(dart)
            u, v = dart
            cycle.append(u)
            w = apex[dart]
            if w in chosen:
                enclosed.add(w)
                x, w = w, apex.get((w, v))
                if w is None or w in chosen:
                    raise InvariantBroken(f"the fan of removed vertex {x} does not close")
            dart = (v, w)
        if dart != start:
            raise InvariantBroken("face walk did not close on its starting dart")
        faces.append((tuple(cycle), frozenset(enclosed)))
    return faces


# ---------------------------------------------------------------------------
# The angle ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """The ledger of one independent set I: how many premises of the bound
    it read, the first of each kind that fails, and the bound itself."""

    edges_checked: int  # interior edges of T with neither end in I
    hull_turns_checked: int  # hull vertices outside I
    loose_edge: Optional[tuple[int, int]]  # the first checked edge not strictly locally Delaunay
    flat_turn: Optional[int]  # the first checked hull vertex where the hull does not turn strictly left
    bound_ok: bool  # 2 |I| <= n

    @property
    def ok(self) -> bool:
        """The audit's verdict: every premise holds, and so does the bound."""
        return self.loose_edge is None and self.flat_turn is None and self.bound_ok


def angle_audit(tri: Triangulation, independent: Iterable[int]) -> AuditReport:
    """Check the premises of the floor(n/2) bound for one independent set I,
    by the identity in the module docstring, in O(n) exact signs.

    The premises are the edges of G = (T + infinity) - I: every interior
    edge of T with neither end in I must be strictly locally Delaunay
    (``edge_angle_check``), and the hull must turn strictly left, on
    ``tri.scaled``, at every hull vertex outside I. Every premise is checked
    and the first failure of each kind is named. When none fails, 2 |I| <= n
    follows, and a count that says otherwise is a broken invariant. With I
    empty the premises are every interior edge and hull turn of T, and they
    bound every independent set at once. A set that holds an edge raises
    ``NotIndependent``.
    """
    chosen = tri.vertex_set(independent)
    joined = tri.joined(chosen)
    if joined is not None:
        raise NotIndependent(f"edge {joined} joins two chosen vertices")
    apex, q, hull = tri.apex, tri.scaled, tri.hull
    edges = [
        (u, v) for u, v in tri.edges
        if u not in chosen and v not in chosen and (u, v) in apex and (v, u) in apex
    ]
    loose = [e for e in edges if not edge_angle_check(tri, *e)]
    turns = [(hull[i - 1], a, hull[(i + 1) % len(hull)]) for i, a in enumerate(hull) if a not in chosen]
    flat = [a for p, a, b in turns if cross(q[p], q[a], q[b]) <= 0]
    bound_ok = 2 * len(chosen) <= len(tri)
    if not (loose or flat or bound_ok):
        raise InvariantBroken(
            f"every premise holds, yet the independent set has {len(chosen)} > {len(tri)} / 2 vertices"
        )
    return AuditReport(
        edges_checked=len(edges),
        hull_turns_checked=len(turns),
        loose_edge=loose[0] if loose else None,
        flat_turn=flat[0] if flat else None,
        bound_ok=bound_ok,
    )
