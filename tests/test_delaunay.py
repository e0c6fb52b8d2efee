import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtough import delaunay, exactgeom, structure
from dtough.delaunay import (
    Triangulation,
    build,
    edge_angle_check,
    from_triangles,
    verify_delaunay,
    witness_disk,
)
from dtough.errors import (
    DegenerateInput,
    InvariantBroken,
    NotInteriorEdge,
    PreconditionViolated,
    TooFewPoints,
    WitnessSearchFailed,
)
from dtough.exactgeom import (
    Orientation,
    Point,
    Position,
    Violation,
    ViolationKind,
    arc_point,
    circle_of,
    in_circle,
    is_witness_disk,
    point,
)

import helpers

P = point


def test_single_triangle():
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    assert t.triangles == ((0, 1, 2),)
    assert len(t.edges) == 3
    assert t.edges == ((0, 1), (0, 2), (1, 2))
    assert all(len(t.opposite_vertices(*e)) == 1 for e in t.edges)
    assert verify_delaunay(t) is None


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        build([P(0, 0), P(1, 0)])
    with pytest.raises(TooFewPoints):
        from_triangles([P(0, 0), P(1, 0)], [])


def test_degenerate_input():
    with pytest.raises(DegenerateInput):
        build([P(0, 0), P(1, 0), P(0, 1), P(1, 1)])  # cocircular square
    with pytest.raises(DegenerateInput):
        build([P(0, 0), P(1, 1), P(2, 2), P(5, 0)])  # collinear triple


def test_quad_diagonal_choice():
    # Expected diagonal computed by the brute-force empty-circumdisk oracle:
    # of the two candidate triangulations of this convex quad, only the one
    # using diagonal (1, 3) has empty circumdisks.
    pts = [P(0, 0), P(2, 0), P(3, 2), P(1, 3)]
    t = build(pts)
    assert len(t.triangles) == 2
    assert t.is_edge(1, 3) and not t.is_edge(0, 2)
    assert edge_angle_check(t, 1, 3)
    with pytest.raises(NotInteriorEdge):
        edge_angle_check(t, 0, 1)  # boundary edge
    for query in (edge_angle_check, witness_disk):
        with pytest.raises(NotInteriorEdge, match=r"\(0, 2\) is not an edge"):
            query(t, 0, 2)
        for bad in (1.0, 99):  # (1.0, 3) would pass as the edge (1, 3)
            with pytest.raises(PreconditionViolated, match=f"vertex {bad!r} is not in range"):
                query(t, bad, 3)

    # the flipped diagonal must fail both verifications
    flipped = from_triangles(pts, [(0, 1, 2), (0, 2, 3)])
    counter = verify_delaunay(flipped)
    assert counter is not None
    assert not edge_angle_check(flipped, 0, 2)


def test_four_points_with_interior_vertex():
    # (1, 1) lies strictly inside the triangle of the other three, so this
    # set triangulates into three faces around an interior vertex.
    t = build([P(0, 0), P(3, 0), P(1, 1), P(2, 5)])
    assert len(t.triangles) == 3
    assert len(t.hull) == 3
    assert sum(1 for e in t.edges if len(t.opposite_vertices(*e)) == 2) == 3
    assert verify_delaunay(t) is None


def test_from_triangles_validation():
    pts = [P(0, 0), P(2, 0), P(3, 2), P(1, 3)]
    with pytest.raises(ValueError):
        from_triangles(pts, [(0, 2, 1), (0, 2, 3)])  # CW triangle
    with pytest.raises(ValueError):
        from_triangles(pts, [(0, 1, 2)])  # vertex 3 unused
    with pytest.raises(ValueError):
        from_triangles(pts, [(0, 1, 3), (1, 2, 3), (0, 1, 3)])  # duplicate
    for face in ((0, 0, 1), (0, 1, 5)):  # a repeated vertex, an id out of range
        with pytest.raises(ValueError, match="bad triangle"):
            from_triangles(pts, [face])
    # a float, bool or str id, too few or too many ids
    for face in ((0, 1, 2.0), (0, True, 2), ("0", 1, 2), (0, 1), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match=re.escape(f"face {face!r} is not three int vertex ids")):
            from_triangles(pts, [(0, 2, 3), face])
    # two CCW faces whose union is a dart with a reflex corner at vertex 1
    dart = [P(0, 0), P(2, 1), P(4, 0), P(2, 3)]
    with pytest.raises(ValueError, match="hull is not convex"):
        from_triangles(dart, [(0, 1, 3), (1, 2, 3)])
    # a flat face, and two CCW faces whose hull goes straight on at vertex 1
    flat = [P(0, 0), P(1, 0), P(2, 0), P(1, 1)]
    with pytest.raises(ValueError, match=re.escape("triangle (0, 1, 2) is not CCW")):
        from_triangles(flat, [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(ValueError, match="hull is not convex"):
        from_triangles(flat, [(0, 1, 3), (1, 2, 3)])
    # 2 and 3 both lie left of 0 -> 1
    with pytest.raises(ValueError, match="two faces on one side"):
        from_triangles([P(0, 0), P(4, 0), P(1, 2), P(3, 3)], [(0, 1, 2), (0, 1, 3)])
    # two triangles that share only vertex 0
    bowtie = [P(0, 0), P(1, 0), P(0, 1), P(-1, 0), P(0, -1)]
    with pytest.raises(ValueError, match="pinched at vertex 0"):
        from_triangles(bowtie, [(0, 1, 2), (0, 3, 4)])
    # two disjoint triangles: the boundary is two cycles
    apart = [P(0, 0), P(1, 0), P(0, 1), P(5, 5), P(6, 5), P(5, 6)]
    with pytest.raises(ValueError, match="more than one cycle"):
        from_triangles(apart, [(0, 1, 2), (3, 4, 5)])


def _winding_two_fan(seed: int):
    """A hub joined to a ring of k = 5..11 points that winds twice around it,
    labels shuffled: CCW faces, each dart used once, a boundary that turns
    left at every vertex, and Euler's face count, so only the winding is
    wrong. The ring's angles and radii are jittered floats rounded to
    rationals; a draw that breaks a turn or a face is drawn again."""
    rng = random.Random(seed)

    def milli(f: float) -> Fraction:
        return Fraction(round(f * 1000), 1000)

    while True:
        k = rng.randrange(5, 12)
        turn = rng.uniform(0, 2 * math.pi)
        pts = [Point(milli(rng.uniform(-0.1, 0.1)), milli(rng.uniform(-0.1, 0.1)))]
        for j in range(k):
            a = turn + 4 * math.pi * (j + rng.uniform(-0.2, 0.2)) / k
            r = rng.uniform(0.8, 1.2)
            pts.append(Point(milli(r * math.cos(a)), milli(r * math.sin(a))))
        faces = [(0, i, i % k + 1) for i in range(1, k + 1)]
        turns = [(i, i % k + 1, (i + 1) % k + 1) for i in range(1, k + 1)]
        if len(set(pts)) == len(pts) and all(
            exactgeom.orient(*(pts[i] for i in f)) is Orientation.CCW for f in faces + turns
        ):
            break
    label = list(range(k + 1))
    rng.shuffle(label)  # point i is labelled label[i]
    return [pts[label.index(i)] for i in range(k + 1)], [tuple(label[i] for i in f) for f in faces]


def test_from_triangles_refuses_a_boundary_that_winds_twice():
    # every boundary turn is left, yet the boundary is a star around the hub;
    # anchoring the fan test at the least index would miss the hexagon
    ring = (0, 7265, 30777, -30777, -7265)
    pentagram = [P(0, 0)] + [arc_point(Fraction(1), Fraction(t, 10000)) for t in ring]
    hexagon = [
        Point(Fraction(x), Fraction(y))
        for x, y in (
            (0, 0), ("527/1000", 0), ("-77/50", "13/250"), ("1183/1000", "-143/1000"),
            ("54/25", "681/1000"), ("-1307/500", "461/500"), ("72/125", "-283/250"),
        )
    ]
    cases = [
        (pentagram, [(0, 1, 3), (0, 3, 5), (0, 5, 2), (0, 2, 4), (0, 4, 1)]),
        (hexagon, [(0, i, i % 6 + 1) for i in range(1, 7)]),
    ] + [_winding_two_fan(seed) for seed in range(200)]
    for pts, faces in cases:
        with pytest.raises(ValueError, match="winds around the hull more than once"):
            from_triangles(pts, faces)


def _euler_ok(t: Triangulation) -> bool:
    n, h = len(t), len(t.hull)
    return len(t.triangles) == 2 * n - 2 - h and len(t.edges) == 3 * n - 3 - h


def test_build_verify_sweep():
    # 200 seeded instances across n = 3..20
    for i in range(200):
        n = 3 + i % 18
        _, t = helpers.random_tri(n, 1000 + i)
        assert verify_delaunay(t) is None
        assert _euler_ok(t)
        for u, v in t.edges:
            if len(t.opposite_vertices(u, v)) == 2:
                assert edge_angle_check(t, u, v)


def test_build_keeps_caller_points_and_ignores_scale():
    pts, t = helpers.random_tri(12, 4242)
    assert t.vertices == tuple(pts)
    assert all(type(c) is Fraction for p in t.vertices for c in p)
    for factor in (Fraction(3), Fraction(1, 7)):
        moved = tuple(Point(p.x * factor, p.y * factor) for p in pts)
        scaled = build(moved)
        assert scaled.vertices == moved
        assert (scaled.triangles, scaled.hull, scaled.edges) == (t.triangles, t.hull, t.edges)


@given(st.lists(helpers.grid_points, min_size=3, max_size=10))
def test_integer_verifier_matches_fraction_oracle(candidates):
    pts = helpers.thinned(candidates)
    assume(len(pts) >= 3)
    built = build(pts)
    assert helpers.verify_delaunay_naive(built) is None
    flipped = helpers.flip_first_convex_edge(built)
    if flipped is not None:  # Delaunay is unique in general position
        assert verify_delaunay(flipped) is not None
    for t in filter(None, (built, flipped)):
        assert t.scaled == helpers.lcm_copy(t.vertices)[1]
        assert all(type(c) is int for p in t.scaled for c in p)
        _assert_counterexample(t)
        for u, v in t.edges:
            opp = t.opposite_vertices(u, v)
            if len(opp) == 2:
                r, s = opp
                exact = in_circle(t.vertices[u], t.vertices[r], t.vertices[v], t.vertices[s])
                assert edge_angle_check(t, u, v) is (exact is Position.EXTERIOR)


@settings(max_examples=100, derandomize=True)
@given(st.lists(helpers.grid_points, min_size=3, max_size=10))
def test_apex_map_matches_incidence_oracle(candidates):
    # the oracle reads triangles only; flipped sets are not Delaunay
    pts = helpers.thinned(candidates)
    assume(len(pts) >= 3)
    built = build(pts)
    for t in filter(None, (built, helpers.flip_first_convex_edge(built))):
        opposite, hull = helpers.incidence_oracle(t)
        assert t.hull == hull
        assert t.edges == tuple(sorted(opposite))
        assert {e: len(t.opposite_vertices(*e)) for e in t.edges} == {
            key: len(ws) for key, ws in opposite.items()
        }
        v = t.vertices
        for a in range(len(t)):
            assert set(t.neighbors[a]) == {b for key in opposite if a in key for b in key} - {a}
            for b in range(len(t)):
                key = (min(a, b), max(a, b))
                assert t.is_edge(a, b) is (key in opposite)
                opp = t.opposite_vertices(a, b)
                assert sorted(opp) == opposite.get(key, [])
                if len(opp) == 2:  # the apex left of a -> b comes first
                    sides = [exactgeom.orient(v[a], v[b], v[w]) for w in opp]
                    assert sides == [Orientation.CCW, Orientation.CW]


@given(
    st.lists(helpers.grid_points, min_size=3, max_size=10),
    st.lists(helpers.grid_points, min_size=1, max_size=3),
)
def test_extend_matches_build_of_the_union(candidates, added):
    # the tests' extension oracle, which the sentinel census runs, keeps
    # the faces build of the union keeps, and names the same violation
    base = helpers.thinned(candidates)
    assume(len(base) >= 3)
    t = build(base)
    try:
        expected = build(base + added)
    except DegenerateInput as built:
        with pytest.raises(DegenerateInput) as exc:
            helpers.extension(t, added)
        assert exc.value.violation == built.violation
        assert max(exc.value.violation.indices) >= len(base)  # an added point is to blame
        return
    grown = helpers.extension(t, added)
    assert grown == expected
    assert grown.scaled == expected.scaled


def test_extend_reports_the_violation_build_reports():
    # three collinear triples end in an added point: (0, 3, 7) and (1, 2, 6)
    # inside the hull, (0, 6, 8) along it, which no triangulation of a
    # strictly convex hull can hold; both calls fail and name the
    # lexicographically least, as the certifying oracle does
    base = [P(0, 0), P(7, 1), P(2, 9), P(11, 4), P(5, 13), P(13, 11)]
    added = [P(-3, 17), P(33, 12), P(-6, 34)]
    least = Violation(ViolationKind.COLLINEAR, (0, 3, 7))
    with pytest.raises(DegenerateInput) as certified:
        helpers.certified_build(base + added)
    with pytest.raises(DegenerateInput) as built:
        build(base + added)
    with pytest.raises(DegenerateInput) as extended:
        helpers.extension(build(base), added)
    assert certified.value.violation == built.value.violation == extended.value.violation == least
    # without the point on the hull line the interior triples spoil nothing:
    # the local tests accept the strict triangulation the oracle refuses
    with pytest.raises(DegenerateInput):
        helpers.certified_build(base + added[:2])
    grown = build(base + added[:2])
    assert grown == helpers.extension(build(base), added[:2])
    assert verify_delaunay(grown) is None and helpers.verify_delaunay_naive(grown) is None


def test_extend_by_a_point_on_a_face_circle_names_the_certified_violation():
    # s on a face's circle puts four points on an empty circle, so the union
    # has no strict triangulation: build of the union, and the extension
    # oracle keeping or dropping that face, fail and name what the
    # certificate names
    for seed in (0, 1, 2):
        pts, t = helpers.random_tri(8, seed)
        for a, b, c in t.triangles:
            d = helpers.circumdisk(pts[a], pts[b], pts[c])
            s = Point(2 * d.center.x - pts[a].x, 2 * d.center.y - pts[a].y)  # a's antipode
            if s in pts:
                continue
            with pytest.raises(DegenerateInput) as certified:
                helpers.certified_build(pts + (s,))
            with pytest.raises(DegenerateInput) as built:
                build(pts + (s,))
            with pytest.raises(DegenerateInput) as extended:
                helpers.extension(t, [s])
            assert built.value.violation == extended.value.violation == certified.value.violation
            assert max(extended.value.violation.indices) == len(pts)


@given(st.one_of(st.lists(helpers.grid_points, min_size=3, max_size=10), helpers.rescaled_sets()))
def test_local_build_matches_the_certified_oracle(pts):
    # where the oracle builds, the same faces; where the local build fails,
    # the oracle's violation; where only the oracle fails, a T whose every
    # circumdisk holds no other vertex, inside or on its circle
    assume(len(pts) >= 3)
    try:
        expected = helpers.certified_build(pts)
    except DegenerateInput as refused:
        try:
            t = build(pts)
        except DegenerateInput as exc:
            assert exc.violation == refused.violation
            return
        assert verify_delaunay(t) is None and helpers.verify_delaunay_naive(t) is None
        return
    assert build(pts) == expected


@given(
    st.one_of(st.lists(helpers.grid_points, min_size=3, max_size=10).map(helpers.thinned), helpers.rescaled_sets()),
    st.data(),
)
def test_build_and_extend_match_the_pair_scan(pts, data):
    # n = 3 included; the extension oracle wraps from the faces it keeps
    assume(len(pts) >= 3)
    faces = helpers.pair_scan_faces(helpers.lcm_copy(pts)[1])
    assert set(build(pts).triangles) == faces
    m = data.draw(st.integers(3, len(pts)), label="split")
    assert set(helpers.extension(build(pts[:m]), pts[m:]).triangles) == faces


def test_extend_that_keeps_no_face_matches_the_pair_scan():
    # (1, 1) lies inside the one old circumdisk, so the extension oracle's
    # wrap restarts from point 0 and its nearest neighbour
    base = [P(0, 0), P(4, 0), P(0, 4)]
    added = [P(1, 1), P(5, 3), P(-2, 5), P(4, -1)]
    grown = helpers.extension(build(base), added)
    assert not set(build(base).triangles) & set(grown.triangles)
    assert set(grown.triangles) == helpers.pair_scan_faces(helpers.lcm_copy(base + added)[1])


@settings(max_examples=60)
@given(
    st.one_of(
        st.lists(helpers.grid_points, min_size=3, max_size=10).map(helpers.thinned),
        helpers.rescaled_sets(),
        helpers.strict_grid_sets(),
    )
)
def test_face_scan_matches_the_two_sided_wrap(pts):
    # on a strict set the least left t_k is unique and is the left end of
    # the open gap, so the one-sided scan finds the same faces in the same
    # order
    assume(len(pts) >= 3)
    t = build(pts)
    assert delaunay.delaunay_faces(t.scaled) == helpers.two_sided_wrap(t.scaled, ())


def test_face_scan_returns_only_the_faces_it_finds():
    # the wrap returns every face of T once
    for n, seed in ((3, 1), (12, 5), (40, 2)):
        _, t = helpers.random_tri(n, seed)
        found = delaunay.delaunay_faces(t.scaled)
        led = {min((a, b, c), (b, c, a), (c, a, b)) for a, b, c in found}
        assert len(led) == len(found) and led == set(t.triangles)


def test_face_scan_makes_one_pencil_scan_per_face_and_hull_edge(monkeypatch):
    # F + h = 2n - 2 apex scans for a build, and 2 (n + 2) - 2 for the
    # sentinels' build of the union; a scan per pair would make n (n - 1) / 2
    calls = []
    scan = delaunay._left_apex

    def counting(*args):
        calls.append(args[2:])
        return scan(*args)

    monkeypatch.setattr(delaunay, "_left_apex", counting)
    for n in (3, 16, 30):
        for seed in (1, 2):
            pts, _ = helpers.random_tri(n, seed)
            calls.clear()
            t = build(pts)
            assert len(calls) == 2 * n - 2
            calls.clear()
            aug = structure.sentinel_augment(t, t.hull[:1])
            assert len(calls) == 2 * len(aug.tri) - 2


def _assert_counterexample(t):
    # the oracle's verdict; a counterexample is a face of t and a vertex off
    # it in its closed circumdisk, across one of its edges, though not always
    # the oracle's first in face order
    counter = verify_delaunay(t)
    assert (counter is None) is (helpers.verify_delaunay_naive(t) is None)
    if counter is not None:
        (a, b, c), w = counter
        assert (a, b, c) in t.triangles and w not in (a, b, c)
        face = (t.vertices[i] for i in (a, b, c))
        assert helpers.in_circle_lifted(*face, t.vertices[w]) is not Position.EXTERIOR
        assert w in (t.apex.get((b, a)), t.apex.get((c, b)), t.apex.get((a, c)))


def test_verify_delaunay_flags_the_kleetope():
    # no Kleetope of the octahedron is Delaunay realizable
    t = helpers.kleetope()
    assert verify_delaunay(t) is not None
    _assert_counterexample(t)


def test_witness_disk_fails_exactly_on_the_kleetopes_non_delaunay_edges():
    # an edge of T has an empty circle through it exactly when it is an edge
    # of the Delaunay triangulation of T's vertices
    for t, missing in ((helpers.kleetope(), 7), (helpers.kleetope_even(), 12)):
        delaunay_edges = set(build(t.vertices).edges)
        assert len(set(t.edges) - delaunay_edges) == missing
        for u, v in t.edges:
            if (u, v) in delaunay_edges:
                d = witness_disk(t, u, v)
                assert is_witness_disk(t.scaled, circle_of(d, t.scale), u, v)
            else:
                message = f"every circle through edge {(u, v)} holds a vertex"
                with pytest.raises(WitnessSearchFailed, match=re.escape(message)):
                    witness_disk(t, u, v)


def test_witness_disk_on_a_cocircular_diagonal_finds_the_gap_closed():
    # the square's diagonal has one circle through it with a vertex on each
    # side, both on it: the gap's two ends meet, and a gap closed at a
    # single circle counts as closed
    t = from_triangles([P(0, 0), P(1, 0), P(1, 1), P(0, 1)], [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(WitnessSearchFailed, match=re.escape("every circle through edge (0, 2) holds a vertex")):
        witness_disk(t, 2, 0)
    for u, v in ((0, 1), (1, 2), (2, 3), (0, 3)):
        d = witness_disk(t, u, v)
        assert is_witness_disk(t.scaled, circle_of(d, t.scale), u, v)


def _assert_face_circles(t):
    # each dart's circle is a positive multiple of circle_through on its
    # face's scaled vertices
    q = t.scaled
    for (u, v), w in t.apex.items():
        held = t.circle[(u, v)]
        exact = exactgeom.circle_through(q[u], q[v], q[w])
        factor = Fraction(held[0], exact[0])
        assert factor > 0
        assert [Fraction(h) for h in held] == [factor * e for e in exact]


def _assert_edge_test_matches_in_circle(t):
    for u, v in t.edges:
        opp = t.opposite_vertices(u, v)
        if len(opp) == 2:
            r, s = opp
            exact = in_circle(t.vertices[u], t.vertices[r], t.vertices[v], t.vertices[s])
            assert edge_angle_check(t, u, v) is (exact is Position.EXTERIOR)


@settings(max_examples=60, derandomize=True)
@given(helpers.rescaled_sets(), st.data())
def test_built_and_extended_triangulations_carry_every_face_circle(pts, data):
    assume(len(pts) >= 4)
    k = data.draw(st.integers(1, len(pts) - 3))
    base = build(pts[:-k])
    grown = helpers.extension(base, pts[-k:])
    augmented = structure.sentinel_augment(base, base.hull[:1]).tri
    flipped = helpers.flip_first_convex_edge(base)
    for t in (base, grown, augmented):  # computed when each face is assembled
        assert set(t.circle) == set(t.apex)
    for t in filter(None, (base, grown, augmented, flipped)):
        _assert_face_circles(t)
        _assert_edge_test_matches_in_circle(t)


def test_kleetopes_carry_every_face_circle_from_assembly():
    for kleetope in (helpers.kleetope(), helpers.kleetope_even()):
        t = from_triangles(kleetope.vertices, kleetope.triangles)
        assert set(t.circle) == set(t.apex)
        assert verify_delaunay(t) == verify_delaunay(kleetope) is not None
        _assert_face_circles(t)
        _assert_edge_test_matches_in_circle(t)
        assert not all(  # neither is Delaunay: some edge fails the test
            edge_angle_check(t, u, v) for u, v in t.edges if len(t.opposite_vertices(u, v)) == 2
        )


def test_verify_delaunay_tests_each_interior_edge_once(monkeypatch):
    # by Delaunay's lemma a strictly Delaunay T needs one power per interior
    # edge, not one per face and vertex
    _, t = helpers.random_tri(64, 26)
    interior = [e for e in t.edges if len(t.opposite_vertices(*e)) == 2]
    powers = helpers.count_calls(monkeypatch, "power")
    assert verify_delaunay(t) is None
    assert 0 < len(powers) <= len(interior)


def test_verify_delaunay_names_a_counterexample_without_a_vertex_scan(monkeypatch):
    # the failed edge is the counterexample: no face is scanned against
    # every vertex to name one
    _, t = helpers.random_tri(64, 26)
    flipped = helpers.flip_first_convex_edge(t)
    interior = [e for e in flipped.edges if len(flipped.opposite_vertices(*e)) == 2]
    powers = helpers.count_calls(monkeypatch, "power")
    assert verify_delaunay(flipped) is not None
    assert 0 < len(powers) <= len(interior)


@given(
    st.lists(helpers.grid_points, min_size=3, max_size=10).flatmap(
        lambda pts: st.sampled_from([pts, helpers.thinned(pts)])
    )
)
@example([P(0, 0), P(0, 1), P(0, -1), P(1, 0), P(-1, 0)])  # no quad strictly convex
def test_every_edge_passes_exactly_when_every_circumdisk_is_empty(pts):
    # Delaunay's lemma and its converse on tilings of a strictly convex hull:
    # built, flipped and the two Kleetopes, against the Fraction oracle
    assume(len(pts) >= 3)
    try:
        built = build(pts)
    except DegenerateInput:
        return
    flipped = helpers.flip_first_convex_edge(built)
    for t in filter(None, (built, flipped, helpers.kleetope(), helpers.kleetope_even())):
        interior = [e for e in t.edges if len(t.opposite_vertices(*e)) == 2]
        every_edge = all(edge_angle_check(t, u, v) for u, v in interior)
        assert every_edge is (helpers.verify_delaunay_naive(t) is None)
        _assert_counterexample(t)


def test_build_and_extend_scale_the_points_once(monkeypatch):
    # build takes the lcm of its points and scales them once, and so does
    # the sentinels' build of the union
    pts, _ = helpers.random_tri(12, 7)
    copied = []
    copy = delaunay.integer_copy

    def counting(points):
        copied.append(len(points))
        return copy(points)

    monkeypatch.setattr(delaunay, "integer_copy", counting)
    t = build(pts[:10])
    assert copied == [10]
    aug = structure.sentinel_augment(t, t.hull[:1])
    assert copied == [10, 12]
    assert (aug.tri.scale, aug.tri.scaled) == helpers.lcm_copy(aug.tri.vertices)


@given(
    st.one_of(st.lists(helpers.grid_points, min_size=3, max_size=10).map(helpers.thinned), helpers.rescaled_sets())
)
def test_every_construction_scales_by_the_lcm_of_its_vertices(pts):
    assume(len(pts) >= 3)
    t = build(pts)
    aug = structure.sentinel_augment(t, t.hull[:1])
    for tri in (t, from_triangles(pts, t.triangles), aug.tri):
        assert (tri.scale, tri.scaled) == helpers.lcm_copy(tri.vertices)


def test_build_scales_by_the_lcm_of_the_union():
    # the union's factor is the lcm of the old one and the new denominators
    base = [P("1/2", 0), P(4, "1/4"), P(0, 4), P(3, 3)]
    assert build(base).scale == 4
    for added, scale in (([P("3/2", "5/4")], 4), ([P("4/3", "3/2")], 12)):
        grown = build(base + added)
        assert grown.scale == scale
        assert grown.scaled == helpers.lcm_copy(base + added)[1]


@given(st.lists(helpers.grid_points, min_size=3, max_size=10))
def test_witness_disks_match_candidate_oracle(candidates):
    # grid sets have many right angles at a face apex, where the face's
    # circumcenter is the edge midpoint
    pts = helpers.thinned(candidates)
    assume(len(pts) >= 3)
    t = build(pts)
    for u, v in t.edges:
        d = witness_disk(t, u, v)
        assert d == helpers.witness_disk_oracle(t, u, v)
        assert is_witness_disk(t.scaled, circle_of(d, t.scale), u, v)


def test_rejected_faces_are_an_invariant_alarm(monkeypatch):
    # faces of general-position input always triangulate it; a face scan
    # that loses one must surface as an alarm, not as a bare ValueError
    scan = delaunay.delaunay_faces
    monkeypatch.setattr(delaunay, "delaunay_faces", lambda q: scan(q)[1:])
    with pytest.raises(InvariantBroken, match="do not triangulate"):
        build([P(0, 0), P(2, 0), P(3, 2), P(1, 3)])


def test_closed_gap_is_an_invariant_alarm(monkeypatch):
    # the face scan reads one end of each gap and proves no circle empty; a
    # wrong apex, on points in general position, must fail the strict test
    monkeypatch.setattr(delaunay, "_left_apex", helpers.wrong_apex_once(delaunay._left_apex))
    with pytest.raises(InvariantBroken, match=r"\(0, 2\) is not strictly locally Delaunay"):
        build([P(0, 0), P(2, 0), P(3, 2), P(1, 3)])


def _edge_points(t: Triangulation) -> frozenset:
    return frozenset(
        frozenset((t.vertices[u], t.vertices[v])) for u, v in t.edges
    )


def test_permutation_invariance():
    # unique under general position: shuffling the input changes nothing
    for seed in range(6):
        pts, t = helpers.random_tri(9, 2000 + seed)
        reference = _edge_points(t)
        rng = random.Random(seed)
        for _ in range(5):
            shuffled = list(pts)
            rng.shuffle(shuffled)
            assert _edge_points(build(shuffled)) == reference


def _assert_witness(t: Triangulation, u: int, v: int) -> None:
    d = witness_disk(t, u, v)
    for i, p in enumerate(t.vertices):
        expected = Position.BOUNDARY if i in (u, v) else Position.EXTERIOR
        assert helpers.disk_classify_fraction(d, p) is expected


def test_witness_single_triangle():
    # includes the right-angle hypotenuse, where the circumcenter sits
    # exactly on the edge midpoint
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    for u, v in t.edges:
        _assert_witness(t, u, v)


def test_witness_interior_edge():
    t = build([P(0, 0), P(2, 0), P(3, 2), P(1, 3)])
    _assert_witness(t, 1, 3)


def test_witness_fan_spoke():
    t = helpers.fan_tri(5)
    assert t.is_edge(0, 2)
    _assert_witness(t, 0, 2)


def test_witness_every_edge_random():
    for seed in (0, 1, 2):
        _, t = helpers.random_tri(11, 3000 + seed)
        for u, v in t.edges:
            _assert_witness(t, u, v)


def test_obtuse_boundary_witness():
    # the long edge of a very flat triangle: its apex is inside the edge's
    # diametral disk, so the witness center must leave the hull side
    t = build([P(0, 0), P(10, 0), P(5, 1)])
    for u, v in t.edges:
        _assert_witness(t, u, v)
