import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtough import diskpath
from dtough.delaunay import build, witness_disk
from dtough.diskpath import DiskPath, check_disk_path, find_path, path_oracle
from dtough.errors import DToughError, InvariantBroken, PreconditionViolated
from dtough.exactgeom import Disk, Point, Position, circle_of, internally_tangent, point, power

import helpers
from helpers import disk_classify_fraction, disk_contains_disk, shrink_toward

P = point


def test_base_case_on_witness_disk():
    _, t = helpers.random_tri(8, 42)
    u, v = t.edges[0]
    d = witness_disk(t, u, v)
    path = find_path(t, u, v, d)
    assert path.vertices == (u, v)
    oracle = path_oracle(t, u, v, d)
    assert oracle is not None and oracle.vertices == (u, v)


def test_empty_disk_without_an_edge_is_an_alarm():
    # the witness disk of an edge that a flip removed is empty but joins
    # two vertices that are no longer adjacent: Delaunay is broken
    _, t = helpers.random_tri(9, 3)
    f = helpers.flip_first_convex_edge(t)
    assert set(t.edges) - set(f.edges) == {(0, 2)}
    d = witness_disk(t, 0, 2)
    with pytest.raises(InvariantBroken, match="empty disk through 0 and 2 but no Delaunay edge"):
        find_path(f, 0, 2, d)
    assert path_oracle(f, 0, 2, d) is None


def test_fan_three_vertex_path():
    # dilate a witness pencil through the hub and a far rim vertex until
    # exactly one vertex is interior: the path must route through it
    t = helpers.fan_tri(6)
    q = 3  # a mid-rim vertex; every rim vertex is a spoke away from the hub
    for gap in range(1, len(t)):
        d = helpers.pencil_disk(t, 0, q, gap)
        if d is None:
            continue
        if helpers.interior_count(t, d) == 1:
            break
    else:
        pytest.fail("no one-vertex disk found in the pencil")
    path = find_path(t, 0, q, d)
    assert len(path.vertices) == 3
    assert path.vertices[0] == 0 and path.vertices[-1] == q
    mid = path.vertices[1]
    assert disk_classify_fraction(d, t.vertices[mid]) is Position.INTERIOR
    check_disk_path(t, path)


def test_path_matches_oracle_reachability():
    rng = random.Random(17)
    runs = 0
    for trial in range(60):
        n = rng.randrange(6, 13)
        _, t = helpers.random_tri(n, 500 + trial)
        p, q = rng.sample(range(n), 2)
        d = helpers.pencil_disk(t, p, q, rng.randrange(0, n))
        if d is None:
            continue
        path = find_path(t, p, q, d)
        check_disk_path(t, path)
        assert path.vertices[0] == p and path.vertices[-1] == q
        oracle = path_oracle(t, p, q, d)
        assert oracle is not None  # a valid disk always admits a path
        check_disk_path(t, oracle)
        runs += 1
    assert runs >= 40


@settings(max_examples=25, derandomize=True, deadline=None)
@given(helpers.strict_grid_sets())
def test_paths_on_strict_sets_outside_general_position(pts):
    # a strict T is all the induction needs: on every pencil disk of a grid
    # set that build accepts and general position refuses, the path is found,
    # passes its check and agrees with the oracle
    t = build(pts)
    runs = 0
    for p, q in combinations(range(len(t)), 2):
        for gap in range(len(t)):
            d = helpers.pencil_disk(t, p, q, gap)
            if d is None:
                continue
            path = find_path(t, p, q, d)
            check_disk_path(t, path)
            assert path.vertices[0] == p and path.vertices[-1] == q
            assert path_oracle(t, p, q, d) is not None
            runs += 1
    assert runs > 0


def test_small_disk_consistency_sweep():
    # bias the pencil toward its smallest members; either the precondition
    # fails exactly (a vertex on the boundary) or both searches succeed
    rng = random.Random(23)
    for trial in range(40):
        n = rng.randrange(6, 11)
        _, t = helpers.random_tri(n, 700 + trial)
        p, q = rng.sample(range(n), 2)
        d = helpers.pencil_disk(t, p, q, 0)
        if d is None:
            continue
        path = find_path(t, p, q, d)
        oracle = path_oracle(t, p, q, d)
        assert oracle is not None
        assert path.vertices[0] == p and path.vertices[-1] == q


def test_precondition_rejected():
    _, t = helpers.random_tri(8, 42)
    d = Disk(P(0, 0), Fraction(1))
    with pytest.raises(PreconditionViolated):
        find_path(t, 0, 1, d)


@pytest.mark.parametrize(
    "p, q", [(0, 99), (99, 0), (-1, 1), (2, 2), (2, 1.5), (1.5, 2), (1.0, 2), (2, 1.0), (True, 2), ("1", 2)]
)
def test_endpoints_must_be_two_vertex_ids(p, q):
    # an id past the end or below zero, one that is no int (even when it
    # equals one: 1.0, True), or a path from a vertex to itself
    t = build([P(0, 0), P(4, 0), P(2, 1), P(2, -1)])
    d = Disk(P(2, 0), Fraction(1))  # through vertices 2 and 3
    for search in (find_path, path_oracle):
        with pytest.raises(PreconditionViolated, match="is not in range|must differ"):
            search(t, p, q, d)


def test_a_shrink_tie_pins_its_least_index():
    # two vertices mirror-symmetric about the shrink axis tie exactly; the
    # tie pins 2, and 3 on the shrunken circle through 0 and 2 counts as
    # outside it, so (0, 2) is the base case
    pts = [P(0, 0), P(4, 0), P(2, 1), P(2, -1)]
    t = build(pts)
    d = Disk(P(2, 0), Fraction(4))
    assert disk_classify_fraction(d, pts[0]) is Position.BOUNDARY
    assert disk_classify_fraction(d, pts[1]) is Position.BOUNDARY
    for search in (find_path, helpers.find_path_fraction_oracle):
        assert search(t, 0, 1, d).vertices == (0, 2, 1)


def test_third_vertex_on_the_callers_boundary_breaks_the_precondition():
    # the same kite; vertex 2 is on the disk through 0 and 1, vertex 3 inside
    t = build([P(0, 0), P(4, 0), P(2, 1), P(2, -1)])
    d = Disk(P(2, "-3/2"), Fraction(25, 4))
    assert disk_classify_fraction(d, t.vertices[2]) is Position.BOUNDARY
    for search in (find_path, helpers.find_path_fraction_oracle):
        with pytest.raises(PreconditionViolated, match=r"vertices \[2\] lie exactly"):
            search(t, 0, 1, d)


def test_nesting_of_shrunken_disks():
    d = Disk(P(0, 0), Fraction(25))
    anchor, target = P(3, 4), P(1, -2)
    inner = shrink_toward(d, anchor, target)
    assert disk_contains_disk(d, inner)
    assert inner.radius_sq < d.radius_sq
    # iterated shrinking keeps nesting
    inner2 = shrink_toward(inner, anchor, P(0, 0))
    assert disk_contains_disk(inner, inner2)
    assert disk_contains_disk(d, inner2)


def test_check_disk_path_catches_tampering():
    _, t = helpers.random_tri(8, 42)
    u, v = t.edges[0]
    d = witness_disk(t, u, v)
    good = find_path(t, u, v, d)
    broken = DiskPath(good.vertices + good.vertices[:1], d)
    with pytest.raises(InvariantBroken):
        check_disk_path(t, broken)
    far = next(i for i in range(len(t)) if i not in (u, v))
    detour = DiskPath((u, far, v), d)
    with pytest.raises(InvariantBroken):
        check_disk_path(t, detour)
    # a disk of radius zero at u leaves v, the other end of the edge, outside
    point_disk = Disk(t.vertices[u], Fraction(0))
    with pytest.raises(InvariantBroken, match=f"path vertex {v} is outside the disk"):
        check_disk_path(t, DiskPath((u, v), point_disk))
    assert path_oracle(t, u, v, point_disk) is None


def _circle(cx, cy, r2):
    """The integer circle (W, U, V, K) = (1, cx, cy, cx^2 + cy^2 - r2)."""
    return 1, cx, cy, cx * cx + cy * cy - r2


def test_internal_tangency():
    outer = _circle(0, 0, 25)
    assert internally_tangent(outer, _circle(2, 0, 9))
    # the same circle with every coefficient doubled
    assert internally_tangent(outer, (2, 4, 0, 2 * (4 - 9)))
    for inner in (
        _circle(1, 0, 4),  # strictly nested, not touching
        _circle(4, 0, 9),  # crossing
        _circle(-1, 0, 36),  # larger, and tangent around outer
        _circle(8, 0, 9),  # externally tangent
    ):
        assert not internally_tangent(outer, inner)


def _outcome(search, t, p, q, d):
    """The path a search returns, or its error's class and message."""
    try:
        return search(t, p, q, d).vertices
    except DToughError as exc:
        return type(exc), str(exc)


def _pencil_at(t, p, q, k) -> Disk:
    """The disk through vertices p and q centered at their midpoint plus k
    times the perpendicular of q - p."""
    a, b = t.vertices[p], t.vertices[q]
    center = Point((a.x + b.x) / 2 - k * (b.y - a.y), (a.y + b.y) / 2 + k * (b.x - a.x))
    return Disk(center, (center.x - a.x) ** 2 + (center.y - a.y) ** 2)


# Unit scale, or a ratio of integers up to 10^12 that moves the points far
# from it and gives them large denominators.
_factors = st.one_of(
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(helpers.grid_points, min_size=3, max_size=12), _factors, st.data())
def test_find_path_matches_fraction_oracle(candidates, factor, data):
    # a kite symmetric about the line through 0 and 1: disks through 0 and 1
    # centered on that line reach its two other corners at once
    kite = data.draw(st.booleans())
    if kite:
        candidates = [P(-1, 0), P(1, 0), P(0, "1/2"), P(0, "-1/2")] + candidates
    pts = [Point(p.x * factor, p.y * factor) for p in helpers.thinned(candidates)]
    assume(len(pts) >= 3)
    t = build(pts)
    ends = st.lists(st.integers(0, len(t) - 1), min_size=2, max_size=2, unique=True)
    p, q = (0, 1) if kite else data.draw(ends)
    if data.draw(st.booleans()):
        d = helpers.pencil_disk(t, p, q, data.draw(st.integers(0, len(t))))
        assume(d is not None)
    else:  # a grid parameter on the pencil: third vertices land on the boundary
        d = _pencil_at(t, p, q, data.draw(helpers.grid_fraction))
    expected = _outcome(helpers.find_path_fraction_oracle, t, p, q, d)
    assert _outcome(find_path, t, p, q, d) == expected
    on = [i for i, pt in enumerate(t.vertices) if disk_classify_fraction(d, pt) is Position.BOUNDARY]
    if on == sorted((p, q)):  # a valid disk, ties on shrunken circles included
        path = find_path(t, p, q, d)
        check_disk_path(t, path)
        assert path.vertices[0] == p and path.vertices[-1] == q
        assert path_oracle(t, p, q, d) is not None


def test_integer_shrink_is_the_fraction_shrink():
    # denominators 2 and 3 put the integer copy at six times the points
    pts = [P(0, 2), P(4, -1), P("1/2", 9), P(-5, "-1/3"), P(8, "7/3")]
    t = build(pts)
    d = Disk(P(3, -2), Fraction(25))
    q = t.scaled
    c = circle_of(d, t.scale)
    assert power(c, q[0]) == 0
    inside = power(c, q[1])
    assert inside < 0
    expected = circle_of(helpers.shrink_toward(d, pts[0], pts[1]), t.scale)
    assert diskpath._shrink(c, q[0], q[1], -inside) == expected


def test_recursion_classifies_no_fraction_disk(monkeypatch):
    # the disk is lifted to an integer circle once by find_path's loop, once
    # by the final check of the path and once by the BFS oracle
    t = build([P(0, 0), P(4, 0), P(2, 1), P(2, -1)])
    d = Disk(P(2, 2), Fraction(8))  # through 0 and 1, with 2 inside
    lifts = []
    lift = diskpath.circle_of

    def counting(disk, scale):
        lifts.append(disk)
        return lift(disk, scale)

    monkeypatch.setattr(diskpath, "circle_of", counting)
    path = find_path(t, 0, 1, d)
    assert path.vertices == (0, 2, 1)
    assert lifts == [d, d]  # the loop, then check_disk_path
    path_oracle(t, 0, 1, d)
    assert lifts == [d, d, d]


def test_disk_path_never_reads_the_fraction_vertices():
    # on a copy of T whose vertices are opaque objects, the loop, the path
    # check and the BFS oracle answer as on T: each lifts the disk with
    # T's factor and reads only T's integer copy
    kite = build([P(0, 0), P(4, 0), P(2, 1), P(2, -1)])
    cases = [(kite, 0, 1, Disk(P(2, 2), Fraction(8)))]
    _, t = helpers.random_tri(12, 5)
    for p, q in t.edges[:6]:
        for gap in (0, len(t) // 2, len(t)):
            d = helpers.pencil_disk(t, p, q, gap)
            if d is not None:
                cases.append((t, p, q, d))
    assert any(helpers.interior_count(t, d) > 1 for t, *_, d in cases[1:])
    for tri, p, q, d in cases:
        blind = helpers.blind(tri)
        path = find_path(tri, p, q, d)
        assert find_path(blind, p, q, d) == path
        assert check_disk_path(blind, path) is None
        assert path_oracle(blind, p, q, d) == path_oracle(tri, p, q, d)
