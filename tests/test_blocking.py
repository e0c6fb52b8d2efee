import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dtough import blocking, exactgeom
from dtough.blocking import (
    disjoint_disk_instance,
    fan_instance,
    lower_bound_report,
    verify_blocking,
)
from dtough.delaunay import build
from dtough.errors import ConstructionFailed, DegenerateInput, PreconditionViolated
from dtough.generate import convex_points
from dtough.exactgeom import Position, dist_sq, point
from dtough.structure import max_independent_set

import helpers

P = point


def test_empty_blockers_never_block():
    pts, _ = helpers.random_tri(5, 77)
    assert verify_blocking(pts, ()) is not None
    # two bare points: their single edge survives by definition
    assert verify_blocking((P(0, 0), P(1, 0)), ()) == (0, 1)


def test_needs_two_points():
    with pytest.raises(PreconditionViolated):
        verify_blocking((P(0, 0),), ())


def test_degenerate_union_rejected():
    with pytest.raises(DegenerateInput):
        verify_blocking((P(0, 0), P(2, 2)), (P(1, 1),))  # collinear
    with pytest.raises(DegenerateInput):
        verify_blocking((P(0, 0), P(0, 0)), ())  # the bare pair coincides


def test_union_is_scanned_once(monkeypatch):
    # one build of the union per verdict, and no general-position scan on
    # a fan in general position: build's local tests certify it
    inst = helpers.fan(6)
    scans, built = [], []
    real = exactgeom._least_violation
    build = blocking.build

    def counting(points):
        scans.append(len(points))
        return real(points)

    def counting_build(points):
        built.append(len(points))
        return build(points)

    monkeypatch.setattr(exactgeom, "_least_violation", counting)
    monkeypatch.setattr(blocking, "build", counting_build)
    assert verify_blocking(inst.points, inst.blockers) is None
    assert lower_bound_report(inst.points, inst.blockers).blocked
    assert built == [12, 12] and scans == []


@given(st.lists(helpers.grid_points, min_size=2, max_size=9), st.integers(2, 9), st.booleans())
def test_verdict_matches_union_triangulation_oracle(candidates, split, thin):
    # where the certified oracle builds, its verdict; where it refuses, the
    # build's violation, or on a strict union the pencil-gap pair scan
    pts: list = []
    for q in candidates:
        if not thin or exactgeom.general_position(pts + [q]) is None:
            pts.append(q)
    p, b = pts[:split], pts[split:]
    assume(len(p) >= 2)
    try:
        witness = helpers.surviving_pp_edge_oracle(p, b)
    except DegenerateInput as exc:
        try:
            witness = verify_blocking(p, b)
        except DegenerateInput as raised:
            assert raised.violation == exc.violation
            return
        assert witness == helpers.pencil_gap_pair_scan(p, b)
        return
    assert verify_blocking(p, b) == witness == helpers.pencil_gap_pair_scan(p, b)


def test_a_strict_union_outside_general_position_gets_a_verdict():
    # four cocircular points with a fifth inside their circle, split into
    # P and B: the certified oracle refuses it, build triangulates it
    corners = [P(0, 0), P(4, 4), P(4, 0), P(0, 4)]
    with pytest.raises(DegenerateInput):
        helpers.surviving_pp_edge_oracle(corners[:2], corners[2:] + [P(1, 2)])
    assert verify_blocking(corners[:2], corners[2:] + [P(1, 2)]) is None
    rep = lower_bound_report(corners[:2], corners[2:] + [P(1, 2)])
    assert rep.blocked and rep.size_ok and not rep.alarm
    assert verify_blocking(corners[::2], corners[1::2] + [P(1, 2)]) == (0, 1)
    assert helpers.pencil_gap_pair_scan(corners[::2], corners[1::2] + [P(1, 2)]) == (0, 1)


def test_constructions_scan_each_point_set_once(monkeypatch):
    scanned = []
    real = exactgeom._least_violation

    def recording(points):
        scanned.append(tuple(points))
        return real(points)

    monkeypatch.setattr(exactgeom, "_least_violation", recording)
    fan_instance(7, 2)
    convex_points(9, 3)
    assert scanned
    assert all(a != b for a, b in zip(scanned, scanned[1:]))


def test_fan_instances_blocked_and_tight():
    for n in range(4, 11):
        inst = helpers.fan(n)
        assert len(inst.points) == n and len(inst.blockers) == n
        rep = lower_bound_report(inst.points, inst.blockers)
        assert rep.blocked and rep.size_ok
        assert helpers.surviving_pp_edge_oracle(inst.points, inst.blockers) is None
        assert not rep.alarm
        assert rep.p_size == rep.b_size  # tightness


def test_fan_requires_four():
    with pytest.raises(PreconditionViolated):
        fan_instance(3)


def test_generators_refuse_sizes_they_cannot_draw():
    # each drawn point takes its own radius jitter, and the jitters run out
    with pytest.raises(PreconditionViolated, match="n <= 512, got 513"):
        convex_points(513)
    with pytest.raises(PreconditionViolated, match="n <= 257, got 258"):
        fan_instance(258)


def test_fan_mis_is_half():
    inst = helpers.fan(10)
    size, _ = max_independent_set(build(inst.points))
    assert size == 5


def test_fan_deletion_reexposes_an_edge():
    n = 6
    inst = helpers.fan(n)
    # blockers 2.. guard the rim edges (i, i+1) in order
    for j in range(2, n):
        reduced = inst.blockers[:j] + inst.blockers[j + 1 :]
        witness = verify_blocking(inst.points, reduced)
        assert witness is not None
        # the specific rim edge that blocker guarded must be back
        union = build(tuple(inst.points) + tuple(reduced))
        rim = (j - 1, j)
        assert union.is_edge(*rim)
        u, v = witness
        assert u < n and v < n


def test_two_points_one_blocker_sweep():
    # no single point placement blocks a two-point set (it would beat the
    # lower bound); sampled placements must all come back unblocked
    rng = random.Random("pair-sweep")
    denom = 2**12
    blocked = 0
    for trial in range(500):
        a = P(Fraction(rng.randrange(denom), denom), Fraction(rng.randrange(denom), denom))
        b = P(Fraction(rng.randrange(denom), denom), Fraction(rng.randrange(denom), denom))
        mx, my = (a.x + b.x) / 2, (a.y + b.y) / 2
        bl = P(
            mx + Fraction(rng.randrange(-denom, denom), denom**2),
            my + Fraction(rng.randrange(-denom, denom), denom**2),
        )
        try:
            witness = verify_blocking((a, b), (bl,))
        except DegenerateInput:
            continue
        if witness is None:
            blocked += 1
    assert blocked == 0


def test_disjoint_disk_instances():
    for n in (2, 5, 8):
        pts, disks = disjoint_disk_instance(n)
        assert len(disks) == n - 1
        # each disk re-verified as an empty witness of its consecutive edge
        for i, d in enumerate(disks):
            for k, p in enumerate(pts):
                expected = Position.BOUNDARY if k in (i, i + 1) else Position.EXTERIOR
                assert helpers.disk_classify_fraction(d, p) is expected
        # adjacent disks: exactly tangent; non-adjacent: strictly apart
        for i in range(len(disks)):
            for j in range(i + 1, len(disks)):
                a, b = disks[i], disks[j]
                assert helpers.disks_interior_disjoint(a, b)
                gap = dist_sq(a.center, b.center) - a.radius_sq - b.radius_sq
                if j == i + 1:
                    assert gap * gap == 4 * a.radius_sq * b.radius_sq
                else:
                    assert gap * gap > 4 * a.radius_sq * b.radius_sq
        if n >= 3:
            tri = build(pts)
            assert all(tri.is_edge(i, i + 1) for i in range(n - 1))


def test_two_point_disjoint_instance_is_checked(monkeypatch):
    # the two-point arc goes through the same witness test as every other n
    monkeypatch.setattr(blocking, "is_witness_disk", lambda *args: False)
    with pytest.raises(ConstructionFailed):
        disjoint_disk_instance(2)


def test_tangent_chain_refuses_a_chain_that_turns_back():
    # the third point lies behind the shared one, or level with it, seen
    # from the first disk's center: no disk through it continues the chain
    for after in (point(1, 0), point(2, 1)):
        assert blocking._tangent_chain([point(0, 0), point(2, 0), after]) is None


def test_disjoint_instance_needs_two():
    with pytest.raises(PreconditionViolated):
        disjoint_disk_instance(1)


def test_small_blocker_attempt_fails():
    # n - 1 blockers, one inside each disk, cannot block n points
    n = 8
    pts, disks = disjoint_disk_instance(n)
    eps = Fraction(1, 2**40)
    attempt = tuple(
        P(d.center.x + eps * (k + 1), d.center.y + eps) for k, d in enumerate(disks)
    )
    for k, d in enumerate(disks):
        assert helpers.disk_classify_fraction(d, attempt[k]) is Position.INTERIOR
    assert verify_blocking(pts, attempt) is not None
    rep = lower_bound_report(pts, attempt)
    assert not rep.blocked and not rep.alarm
