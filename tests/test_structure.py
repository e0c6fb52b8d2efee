import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtough import exactgeom, structure
from dtough.delaunay import Triangulation, build, edge_angle_check, from_triangles, verify_delaunay
from dtough.errors import (
    ConstructionFailed,
    DegenerateInput,
    InvariantBroken,
    NoPerfectMatching,
    NotIndependent,
    PreconditionViolated,
    TooLarge,
)
from dtough.exactgeom import Position, Violation, ViolationKind, point
from dtough.generate import convex_points
from dtough.structure import (
    angle_audit,
    components_after_removal,
    max_independent_set,
    perfect_matching,
    sentinel_augment,
    toughness_exhaustive,
)

import helpers

P = point


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


def test_components_empty_removal():
    _, t = helpers.random_tri(9, 11)
    assert len(components_after_removal(t, [])) == 1


def test_components_single_triangle():
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    comps = components_after_removal(t, [0])
    assert comps == (frozenset({1, 2}),)


def test_components_fan_against_union_find():
    t = helpers.fan_tri(6)
    removed = {0, 2}  # hub plus one rim vertex
    comps = components_after_removal(t, removed)
    assert len(comps) == helpers.uf_components(len(t), t.edges, removed)


def test_components_random_against_union_find():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randrange(4, 13)
        _, t = helpers.random_tri(n, 4000 + trial)
        removed = {v for v in range(n) if rng.random() < 0.35}
        assert len(components_after_removal(t, removed)) == helpers.uf_components(
            len(t), t.edges, removed
        )


def test_components_rejects_bad_indices():
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    with pytest.raises(PreconditionViolated):
        components_after_removal(t, [7])


# ---------------------------------------------------------------------------
# toughness
# ---------------------------------------------------------------------------


def test_toughness_complete_graph_none():
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    assert toughness_exhaustive(t) is None


def test_toughness_at_least_one_on_delaunay():
    for seed in range(6):
        _, t = helpers.random_tri(8, 5000 + seed)
        worst = toughness_exhaustive(t)
        if worst is not None:
            assert worst.ratio >= 1
            comps = components_after_removal(t, worst.separator)
            assert len(comps) == worst.component_count >= 2


def test_toughness_fan_reverse_oracle():
    t = helpers.fan_tri(6)
    worst = toughness_exhaustive(t)
    assert worst is not None and worst.ratio == 1
    assert helpers.toughness_reverse_oracle(t) == worst.ratio


def _assert_matches_oracles(t):
    worst = toughness_exhaustive(t, max_n=len(t))
    assert worst == helpers.toughness_scan_oracle(t) == helpers.toughness_table_oracle(t)
    return worst


@settings(max_examples=150, derandomize=True)
@given(st.lists(helpers.grid_points, min_size=3, max_size=10))
def test_toughness_matches_scan_oracle(candidates):
    # flipped triangulations are not Delaunay, so they add other graphs with
    # other ratios; most instances tie between several least-ratio separators
    pts = helpers.thinned(candidates)
    assume(len(pts) >= 3)
    built = build(pts)
    for t in filter(None, (built, helpers.flip_first_convex_edge(built))):
        _assert_matches_oracles(t)


_NAMED_GRAPHS = {
    **{f"random{n}": lambda n=n: helpers.random_tri(n, 1)[1] for n in range(8, 17)},
    **{f"fan{n}": lambda n=n: helpers.fan_tri(n) for n in (4, 8, 12)},
    **{f"convex{n}": lambda n=n: build(convex_points(n, 1)) for n in range(4, 17)},
    "kleetope": helpers.kleetope,
    "kleetope_even": helpers.kleetope_even,
}


@pytest.mark.parametrize("name", list(_NAMED_GRAPHS))
def test_toughness_matches_both_oracles(name):
    _assert_matches_oracles(_NAMED_GRAPHS[name]())


def test_toughness_matches_both_oracles_on_a_cut_off_vertex():
    # the optimum leaves the isolated vertex and the rest: a singleton whose
    # neighbours stay connected, which the lemma on tight separators skips
    _, t = helpers.random_tri(10, 3)
    h, cut = helpers.cut_hull_vertex(t, [])
    worst = _assert_matches_oracles(cut)
    (x,) = worst.separator
    assert worst.ratio == Fraction(1, 2) and x != h
    assert helpers.uf_components(len(cut), cut.edges, set(range(len(cut))) - set(cut.neighbors[x])) == 1


def test_toughness_scores_only_tight_separators(monkeypatch):
    # on a connected T, every alive set the search counts components of has
    # removed vertices whose live neighbours split
    scored = []
    count = structure._component_count
    monkeypatch.setattr(structure, "_component_count", lambda masks, alive: scored.append(alive) or count(masks, alive))
    t = build(convex_points(14, 1))
    toughness_exhaustive(t)
    n = len(t)
    assert scored
    for alive in scored:
        for x in (x for x in range(n) if not alive >> x & 1):
            live = {u for u in t.neighbors[x] if alive >> u & 1}
            assert helpers.uf_components(n, t.edges, set(range(n)) - live) >= 2


def test_toughness_flags_the_kleetope():
    # the 6 octahedron vertices leave the 7 face centroids apart
    worst = toughness_exhaustive(helpers.kleetope())
    assert worst.ratio == Fraction(6, 7)
    assert worst.separator == frozenset(range(6)) and worst.component_count == 7


def test_toughness_gate():
    _, t = helpers.random_tri(19, 1)
    with pytest.raises(TooLarge):
        toughness_exhaustive(t)
    assert toughness_exhaustive(t, max_n=19) == helpers.toughness_table_oracle(t)


# ---------------------------------------------------------------------------
# independent sets
# ---------------------------------------------------------------------------


def test_mis_single_triangle():
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    size, cert = max_independent_set(t)
    assert size == 1 and len(cert) == 1


def test_mis_fans_hit_half():
    for n in range(4, 13):
        t = helpers.fan_tri(n)
        size, cert = max_independent_set(t)
        assert size == n // 2
        assert not any(u in cert and v in cert for u, v in t.edges)


def test_mis_matches_exhaustive():
    for seed in range(8):
        n = 6 + seed
        _, t = helpers.random_tri(n, 6000 + seed)
        size, cert = max_independent_set(t)
        assert size == helpers.mis_exhaustive(n, t.edges)
        assert len(cert) == size
        assert not any(u in cert and v in cert for u, v in t.edges)


def test_mis_flags_the_kleetope():
    # the 7 face centroids, more than floor(13/2)
    assert max_independent_set(helpers.kleetope()) == (7, frozenset(range(6, 13)))


def test_mis_certificate_is_verified(monkeypatch):
    # a search on masks without edges takes every vertex; the certificate
    # check reads tri.edges, not the masks, and refuses the set
    _, t = helpers.random_tri(10, 3)
    monkeypatch.setattr(structure, "_adjacency_masks", lambda tri: [0] * len(tri))
    with pytest.raises(InvariantBroken, match="holds the edge"):
        max_independent_set(t)


def test_mis_gate():
    _, t = helpers.random_tri(19, 1)
    with pytest.raises(TooLarge):
        max_independent_set(t, max_n=18)


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def test_matching_fan():
    t = helpers.fan_tri(6)
    m = perfect_matching(t)
    assert m is not None and len(m) == 3
    covered = {v for e in m for v in e}
    assert covered == set(range(6))
    assert all(t.is_edge(u, v) for u, v in m)


def test_matching_odd_is_none():
    _, t = helpers.random_tri(7, 7000)
    assert perfect_matching(t) is None


def test_matching_even_random_cross_checked():
    for seed in range(6):
        n = (4, 6, 8, 10, 12, 14)[seed]
        _, t = helpers.random_tri(n, 7100 + seed)
        m = perfect_matching(t)
        assert m is not None
        covered = sorted(v for e in m for v in e)
        assert covered == list(range(n))
        assert all(t.is_edge(u, v) for u, v in m)
        assert helpers.has_perfect_matching_exhaustive(n, t.edges)


def test_matching_search_depth_is_not_bounded_by_recursion():
    # the fan (0, i, i + 1) over 2,100 points x x^2: the search goes 1,050
    # pairs deep, past Python's default recursion limit
    n = 2100
    t = from_triangles([P(x, x * x) for x in range(n)], [(0, i, i + 1) for i in range(1, n - 1)])
    assert perfect_matching(t) == frozenset((i, i + 1) for i in range(0, n, 2))


def test_matching_flags_the_even_kleetope():
    # the 7 base vertices leave 9 odd components
    t = helpers.kleetope_even()
    assert len(t) == 16
    with pytest.raises(NoPerfectMatching):
        perfect_matching(t)


def test_matching_budget_refuses_the_even_kleetope(monkeypatch):
    # the even Kleetope's search records 1,042 dead states before it ends
    # in NoPerfectMatching; a budget below that refuses it instead
    t = helpers.kleetope_even()
    for budget in (0, 1041):
        monkeypatch.setattr(structure, "MATCHING_BUDGET", budget)
        with pytest.raises(TooLarge, match=f"matching search refused at its budget of {budget} dead states"):
            perfect_matching(t)
    monkeypatch.setattr(structure, "MATCHING_BUDGET", 1042)
    with pytest.raises(NoPerfectMatching):
        perfect_matching(t)


def test_matching_budget_bounds_the_dead_states(monkeypatch):
    # gen random 10 --seed 1 records 7 dead states before its matching: a
    # budget of 7 finds it, one of 6 refuses
    t = helpers.random_tri(10, 1)[1]
    monkeypatch.setattr(structure, "MATCHING_BUDGET", 7)
    m = perfect_matching(t)
    assert m is not None and len(m) == 5
    monkeypatch.setattr(structure, "MATCHING_BUDGET", 6)
    with pytest.raises(TooLarge, match="budget of 6 dead states"):
        perfect_matching(t)


# ---------------------------------------------------------------------------
# sentinels
# ---------------------------------------------------------------------------


def test_sentinel_single_triangle():
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    aug = sentinel_augment(t, frozenset({0}))
    assert len(aug.tri) == 5
    assert set(t.edges) <= set(aug.tri.edges)
    assert set(aug.tri.hull) == {0, 3, 4}
    s1, s2 = aug.sentinels
    u_pt = t.vertices[aug.anchor]
    for i in range(3):
        expected = Position.BOUNDARY if i == aug.anchor else Position.INTERIOR
        assert helpers.triangle_classify(u_pt, s1, s2, t.vertices[i]) is expected


def test_sentinel_fan_complement_of_mis():
    t = helpers.fan_tri(6)
    _, cert = max_independent_set(t)
    removed = frozenset(range(len(t))) - cert
    aug = sentinel_augment(t, removed)
    assert set(t.edges) <= set(aug.tri.edges)
    assert aug.anchor in removed


def test_sentinel_requires_hull_vertex():
    _, t = helpers.random_tri(10, 3)
    interior = [v for v in range(len(t)) if v not in t.hull]
    assert interior, "test instance needs an interior vertex"
    with pytest.raises(PreconditionViolated):
        sentinel_augment(t, frozenset(interior[:1]))


@pytest.mark.parametrize("bad", [99, -1, 1.0, True, None])
def test_vertex_sets_reject_out_of_range_ids(bad):
    # a hull vertex in the set does not excuse an id that names no vertex,
    # nor one that is no int, even when it equals one
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    for call in (sentinel_augment, components_after_removal, angle_audit):
        with pytest.raises(PreconditionViolated, match="is not in range"):
            call(t, [t.hull[0], bad] if call is sentinel_augment else [bad])


def _mis_complement(t):
    _, cert = max_independent_set(t)
    return frozenset(range(len(t))) - cert


def test_sentinel_candidate_is_not_certified(monkeypatch):
    # an accepted candidate's build passes its strict local tests, so no
    # general-position scan runs; only a failed build scans
    scans = []
    real = exactgeom._least_violation

    def counting(pts):
        scans.append(len(pts))
        return real(pts)

    monkeypatch.setattr(exactgeom, "_least_violation", counting)
    _, t = helpers.random_tri(10, 3)
    aug = sentinel_augment(t, _mis_complement(t))
    assert len(aug.tri) == 12
    assert scans == []


def _sentinel_inputs():
    for n in range(3, 31):
        for seed in range(4):
            yield helpers.random_tri(n, seed)[1]
    for n in range(4, 16):
        yield build(convex_points(n, 0))
        yield helpers.fan_tri(n, 0)


def test_sentinel_first_candidate_encloses_and_avoids_every_circumdisk(monkeypatch):
    extended = []
    real_build = structure.build

    def counting(points):
        extended.append(tuple(points[-2:]))
        return real_build(points)

    monkeypatch.setattr(structure, "build", counting)
    for t in _sentinel_inputs():
        extended.clear()
        aug = sentinel_augment(t, _mis_complement(t))
        assert extended == [aug.sentinels]
        s1, s2 = aug.sentinels
        u_pt = t.vertices[aug.anchor]
        for i, pt in enumerate(t.vertices):
            if i != aug.anchor:
                assert helpers.triangle_classify(u_pt, s1, s2, pt) is Position.INTERIOR
        for face in t.triangles:
            corners = [t.vertices[i] for i in face]
            for s in (s1, s2):
                assert helpers.in_circle_lifted(*corners, s) is Position.EXTERIOR


def test_sentinel_degenerate_candidate_is_skipped(monkeypatch):
    _, t = helpers.random_tri(10, 3)
    removed = _mis_complement(t)
    first = sentinel_augment(t, removed)
    sizes = []

    real_build = structure.build

    def first_candidate_cocircular(points):
        sizes.append(len(points))
        if len(sizes) == 1:  # a sentinel on a circle through three vertices
            raise DegenerateInput(Violation(ViolationKind.COCIRCULAR, (0, 1, 2, sizes[0] - 1)))
        return real_build(points)

    monkeypatch.setattr(structure, "build", first_candidate_cocircular)
    second = sentinel_augment(t, removed)
    assert sizes == [12, 12]
    assert second.sentinels != first.sentinels


def test_sentinel_hull_must_be_the_sentinel_triangle(monkeypatch):
    # a far point added after the two sentinels keeps every input face but
    # joins the hull, so no candidate's hull is (anchor, n, n + 1)
    far = P(10**40, 3 * 10**40 + 1)
    _, t = helpers.random_tri(10, 3)
    hulls = []
    real_build = structure.build

    def with_far_point(points):
        augmented = real_build(tuple(points) + (far,))
        assert set(t.triangles) <= set(augmented.triangles)
        hulls.append(augmented.hull)
        return augmented

    monkeypatch.setattr(structure, "build", with_far_point)
    with pytest.raises(ConstructionFailed, match="64 attempts"):
        sentinel_augment(t, _mis_complement(t))
    assert len(hulls) == 64 and all(len(t) + 2 in hull for hull in hulls)


def _assert_sentinels_match_fraction_placement(t):
    for h in t.hull:  # each hull vertex as the anchor
        aug = sentinel_augment(t, {h})
        assert (aug.anchor, aug.sentinels, aug.tri) == helpers.sentinels_fraction(t, {h})


def test_integer_sentinels_match_the_fraction_placement(monkeypatch):
    # on triangulations as build returns them; the census places sentinels
    # around the Kleetopes through sentinels_fraction alone
    tris = [helpers.random_tri(n, seed)[1] for n in range(4, 17) for seed in range(3)]
    tris += [build(convex_points(n, 1)) for n in range(4, 17)]
    tris += [helpers.fan_tri(n, 0) for n in range(4, 16)]
    for t in tris:
        _assert_sentinels_match_fraction_placement(t)
    # build of the union never keeps a Kleetope's faces, so a Kleetope is
    # refused before any build, naming verify_delaunay's counterexample
    builds = []
    monkeypatch.setattr(structure, "build", builds.append)
    for t in (helpers.kleetope(), helpers.kleetope_even()):
        bad = verify_delaunay(t)
        message = f"tri is not Delaunay: face {bad.triangle} holds vertex {bad.vertex}"
        with pytest.raises(PreconditionViolated, match=re.escape(message)):
            sentinel_augment(t, t.hull[:1])
        assert builds == []


@given(helpers.rescaled_sets())
def test_integer_sentinels_match_the_fraction_placement_on_rescaled_sets(pts):
    assume(len(pts) >= 3)
    _assert_sentinels_match_fraction_placement(build(pts))


# ---------------------------------------------------------------------------
# the audit
# ---------------------------------------------------------------------------


def _assert_full_chain(rep, i_size):
    assert rep.euler_ok
    assert rep.per_edge_ok
    assert rep.strict_inequality_ok
    assert rep.bad_face_bound_ok
    assert rep.angle_census_ok
    assert rep.independent_matches_bad
    assert rep.bad_faces == i_size
    assert rep.angle_total_exact == 180 * rep.good_faces + 360 * rep.bad_faces
    assert rep.subgraph_edges == rep.subgraph_vertices + rep.bad_faces + rep.good_faces - 1


def _assert_ledger_holds(t, chosen):
    """The ledger of chosen on t passes, having read every interior edge of t
    and every hull vertex that avoids chosen."""
    rep = angle_audit(t, chosen)
    assert rep.ok and rep.loose_edge is None and rep.flat_turn is None and rep.bound_ok
    interior = [e for e in t.edges if len(t.opposite_vertices(*e)) == 2]
    assert rep.edges_checked == sum(1 for e in interior if not set(e) & set(chosen))
    assert rep.hull_turns_checked == sum(1 for h in t.hull if h not in chosen)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(helpers.grid_points, min_size=3, max_size=10), st.data())
def test_angle_total_matches_float_oracle(candidates, data):
    # the float angle sum over the subgraph's edges, kept only as an oracle
    pts = helpers.thinned(candidates)
    assume(len(pts) >= 3)
    t = build(pts)
    chosen: set[int] = set()
    for v in data.draw(st.lists(st.integers(0, len(t) - 1), unique=True)):
        if not any(t.is_edge(v, x) for x in chosen):
            chosen.add(v)
    rep = helpers.sentinel_census_oracle(t, chosen)
    _assert_full_chain(rep, len(chosen))
    _assert_ledger_holds(t, chosen)
    big = build(t.vertices + rep.sentinels)
    total = sum(
        helpers.opposite_angles_deg_fraction(big, u, v)
        for u, v in big.edges
        if u not in chosen and v not in chosen
    )
    assert total == pytest.approx(rep.angle_total_exact, rel=1e-9)
    # the faces walked off apex, against the angle-sorted rotation system
    # and the crossing-parity locator, which read the embedding alone
    n, pts = len(t), big.vertices
    sub_edges = [(u, v) for u, v in big.edges if u not in chosen and v not in chosen]
    oracle = helpers.rotation_faces(pts, sub_edges)
    outer = [f for f in oracle if helpers.cycle_area2(pts, f) < 0]
    assert len(outer) == 1 and sorted(outer[0]) == sorted([rep.anchor, n, n + 1])

    def rotated(cycle):
        k = cycle.index(min(cycle))
        return tuple(cycle[k:]) + tuple(cycle[:k])

    located = {
        rotated(f): frozenset(x for x in chosen if helpers.point_in_cycle(pts[x], [pts[i] for i in f]))
        for f in oracle
        if f is not outer[0]
    }
    walked = structure.planar_faces(big, frozenset(chosen))
    assert len(walked) == len(oracle) - 1
    assert {rotated(f): enclosed for f, enclosed in walked} == located


def test_face_walk_that_misses_its_start_is_an_alarm():
    # a doctored apex: the walk from (0, 1) goes on to (1, 2) and (2, 1),
    # then returns to (1, 2), never to its starting dart
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    doctored = dataclasses.replace(t, apex={(0, 1): 2, (1, 2): 1, (2, 1): 2})
    with pytest.raises(InvariantBroken, match="face walk did not close"):
        structure.planar_faces(doctored, frozenset())


def test_audit_single_triangle():
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    rep = helpers.sentinel_census_oracle(t, frozenset({2}))
    _assert_full_chain(rep, 1)
    assert rep.bad_faces == 1
    assert rep.subgraph_vertices == 4
    assert rep.bad_faces <= rep.subgraph_vertices - 2
    # no interior edge, and the two hull turns outside the set
    assert angle_audit(t, frozenset({2})) == structure.AuditReport(0, 2, None, None, True)


def test_audit_empty_independent_set():
    t = build([P(0, 0), P(1, 0), P(0, 1)])
    rep = helpers.sentinel_census_oracle(t, frozenset())
    _assert_full_chain(rep, 0)
    assert rep.bad_faces == 0
    # with nothing removed the surviving subgraph is the full augmented
    # triangulation, whose interior faces are all triangles
    assert rep.good_faces == rep.subgraph_edges - rep.subgraph_vertices + 1
    # with nothing removed the ledger reads every interior edge and hull turn
    for t in (t, helpers.random_tri(12, 2)[1], helpers.fan_tri(8)):
        _assert_ledger_holds(t, frozenset())


def test_audit_ok_needs_every_flag():
    t = helpers.fan_tri(8)
    cert = max_independent_set(t)[1]
    rep = helpers.sentinel_census_oracle(t, cert)
    assert rep.ok
    flags = [f.name for f in dataclasses.fields(rep) if isinstance(getattr(rep, f.name), bool)]
    assert sorted(flags) == sorted([
        "euler_ok", "angle_census_ok", "per_edge_ok", "strict_inequality_ok",
        "bad_face_bound_ok", "independent_matches_bad",
    ])
    for name in flags:
        assert not dataclasses.replace(rep, **{name: False}).ok, name
    # the ledger's verdict needs no loose edge, no flat turn and the bound
    ledger = angle_audit(t, cert)
    assert ledger.ok
    for change in ({"loose_edge": t.edges[0]}, {"flat_turn": t.hull[0]}, {"bound_ok": False}):
        assert not dataclasses.replace(ledger, **change).ok, change


def test_audit_fan_eight():
    t = helpers.fan_tri(8)
    size, cert = max_independent_set(t)
    assert size == 4
    rep = helpers.sentinel_census_oracle(t, cert)
    _assert_full_chain(rep, 4)
    # tight: four holes against subgraph order six
    assert rep.subgraph_vertices == 6
    assert rep.bad_faces == rep.subgraph_vertices - 2
    _assert_ledger_holds(t, cert)  # tight too: 2 |I| = n


def test_audit_random_instances():
    for seed in range(5):
        n = 6 + 2 * seed
        _, t = helpers.random_tri(n, 8000 + seed)
        _, cert = max_independent_set(t)
        rep = helpers.sentinel_census_oracle(t, cert)
        _assert_full_chain(rep, len(cert))
        _assert_ledger_holds(t, cert)
        assert 2 * len(cert) <= n  # the bound the audit certifies


def test_audit_sentinels_in_caller_coordinates():
    # Building on lcm-scaled integers must not leak that scale into the
    # sentinel placement. By hand: A = (-1/10, 7/4) and B = (5/2, 1/3) from
    # the anchor (1/2, 0), so e1 = (-27/20, 19/12), e2 = (51/20, -13/24),
    # and the reach is 9, set by the vertex (9/4, 5/2).
    t = build([P("1/2", 0), P(3, "1/3"), P(1, 2), P("2/5", "7/4"), P("9/4", "5/2")])
    rep = helpers.sentinel_census_oracle(t, frozenset({1, 3}))
    assert rep.anchor == 0
    assert rep.sentinels == (P("-233/20", "57/4"), P(26, "-65/12"))


def test_audit_flags_the_kleetope():
    # the census fails exactly at the proof's Delaunay step
    rep = helpers.sentinel_census_oracle(helpers.kleetope(), range(6, 13))
    failed = [f.name for f in dataclasses.fields(rep) if getattr(rep, f.name) is False]
    assert failed == ["per_edge_ok", "strict_inequality_ok", "bad_face_bound_ok"]


@pytest.mark.parametrize("t, chosen", [
    (helpers.kleetope(), range(6, 13)),  # the 7 centroids, n = 13
    (helpers.kleetope_even(), range(7, 16)),  # the 9 centroids, n = 16
])
def test_ledger_names_a_loose_edge_of_each_kleetope(t, chosen):
    # more than n / 2 centroids: the ledger names an edge that avoids them
    # and is not strictly locally Delaunay
    rep = angle_audit(t, chosen)
    assert not rep.ok and not rep.bound_ok and rep.flat_turn is None
    u, v = rep.loose_edge
    assert u not in chosen and v not in chosen
    assert len(t.opposite_vertices(u, v)) == 2
    assert not edge_angle_check(t, u, v)


def test_ledger_names_a_flat_hull_turn():
    # vertex 1, (2, -1), moved onto the segment between its hull neighbours
    # (0, 0) and (4, 0) in the scaled copy: the hull no longer turns there
    t = build([P(0, 0), P(2, -1), P(4, 0), P(3, 3), P(1, 3)])
    assert t.scale == 1 and t.hull[:3] == (0, 1, 2)
    flat = dataclasses.replace(t, scaled=(t.scaled[0], P(2, 0), *t.scaled[2:]))
    rep = angle_audit(flat, [3])
    assert rep.flat_turn == 1 and not rep.ok
    # a hull vertex in the set is no premise
    assert angle_audit(flat, [1]).flat_turn is None


def test_ledger_meets_the_equality_case_on_the_split_grid():
    # the 3 x 3 grid, vertex 3y + x at (x, y), each unit square split by the
    # diagonal through its two edge midpoints. The 4 corners and the centre
    # are independent, 2 |I| = n + 1, so the theta of G sum to 0, and every
    # one is 0: each diagonal's far apex lies on its near face's circle, and
    # the hull goes straight on at each midpoint. from_triangles refuses the
    # flat hull, so T is assembled here field by field.
    scaled = tuple(exactgeom.Point(x, y) for y in range(3) for x in range(3))
    faces = [(0, 1, 3), (1, 4, 3), (1, 2, 5), (1, 5, 4), (3, 7, 6), (3, 4, 7), (5, 8, 7), (4, 5, 7)]
    apex, circle = {}, {}
    for a, b, c in faces:
        apex[(a, b)], apex[(b, c)], apex[(c, a)] = c, a, b
        circle[(a, b)] = circle[(b, c)] = circle[(c, a)] = exactgeom.circle_through(
            scaled[a], scaled[b], scaled[c]
        )
    edges = tuple(sorted({(min(u, v), max(u, v)) for u, v in apex}))
    t = Triangulation(
        vertices=tuple(P(x, y) for x, y in scaled),
        triangles=tuple(sorted(faces)),
        apex=apex,
        hull=(0, 1, 2, 5, 8, 7, 6, 3),
        edges=edges,
        neighbors=tuple(tuple(sorted({w for e in edges if u in e for w in e} - {u})) for u in range(9)),
        scale=1,
        scaled=scaled,
        circle=circle,
    )
    assert len(edges) == 16  # 3n - 3 - h
    rep = angle_audit(t, [0, 2, 4, 6, 8])
    assert rep == structure.AuditReport(4, 4, (1, 3), 1, False)
    for u, v in [(1, 3), (1, 5), (3, 7), (5, 7)]:
        assert not edge_angle_check(t, u, v)
        assert exactgeom.power(t.circle[(u, v)], t.scaled[t.apex[(v, u)]]) == 0
    hull = t.hull
    for i in (1, 3, 5, 7):  # the midpoints 1, 5, 7 and 3
        assert exactgeom.cross(*(scaled[hull[j % 8]] for j in (i - 1, i, i + 1))) == 0


def test_ledger_with_every_premise_and_too_many_vertices_is_an_alarm(monkeypatch):
    # the identity makes 2 |I| > n impossible when no premise fails; an
    # edge test doctored to pass them all leaves the count to say so
    monkeypatch.setattr(structure, "edge_angle_check", lambda tri, u, v: True)
    with pytest.raises(InvariantBroken, match="7 > 13 / 2"):
        angle_audit(helpers.kleetope(), range(6, 13))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(3, 16), st.integers(0, 40), st.booleans())
def test_ledger_agrees_with_the_sentinel_census(n, seed, flip):
    # on built sets and their first flips, with their maximum independent
    # sets, the ledger and the census give one verdict
    t = helpers.random_tri(n, seed)[1]
    if flip:
        t = helpers.flip_first_convex_edge(t)
        assume(t is not None)
    _, cert = max_independent_set(t)
    assert angle_audit(t, cert).ok == helpers.sentinel_census_oracle(t, cert).ok


def test_audit_rejects_dependent_set():
    t = helpers.fan_tri(6)
    for audit in (angle_audit, helpers.sentinel_census_oracle):
        with pytest.raises(NotIndependent):
            audit(t, frozenset(t.edges[0]))


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------


def _representative_edges(t, removed):
    """R, the least vertex of each component of t - S with S = removed, and
    the edges of build(S | R) that join two members of R. The toughness
    proof says there are none: R is independent in DT(S | R)."""
    reps = frozenset(min(c) for c in components_after_removal(t, removed))
    keep = sorted(removed | reps)
    sub = build([t.vertices[i] for i in keep])
    edges = [(keep[u], keep[v]) for u, v in sub.edges]
    return reps, [(u, v) for u, v in edges if u in reps and v in reps]


def test_representative_fan():
    t = helpers.fan_tri(8)
    removed = frozenset({0, 2, 5})  # hub and two rim vertices
    reps, joined = _representative_edges(t, removed)
    assert joined == []
    assert len(reps) == len(components_after_removal(t, removed)) <= len(removed)


def test_representative_random_sweep():
    rng = random.Random(9)
    checked = 0
    for trial in range(80):
        n = rng.randrange(5, 15)
        _, t = helpers.random_tri(n, 9000 + trial)
        removed = frozenset(v for v in range(n) if rng.random() < 0.4)
        comps = components_after_removal(t, removed)
        if len(removed) + len(comps) < 3:
            continue
        reps, joined = _representative_edges(t, removed)
        assert joined == []
        assert len(reps) == len(comps)
        checked += 1
    assert checked >= 50
