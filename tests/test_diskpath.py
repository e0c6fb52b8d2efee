import random
from fractions import Fraction

import pytest

from dtough.delaunay import build, witness_disk
from dtough.diskpath import DiskPath, check_disk_path, find_path, path_oracle
from dtough.errors import InvariantBroken, PreconditionViolated, TieOnBoundary
from dtough.exactgeom import (
    Disk,
    Position,
    disk_classify,
    disk_contains_disk,
    point,
    shrink_toward,
)

import helpers

P = point


def test_base_case_on_witness_disk():
    _, t = helpers.random_tri(8, 42)
    e = t.edges[0]
    d = witness_disk(t, e.u, e.v)
    path = find_path(t, e.u, e.v, d)
    assert path.vertices == (e.u, e.v)
    oracle = path_oracle(t, e.u, e.v, d)
    assert oracle is not None and oracle.vertices == (e.u, e.v)


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
    assert disk_classify(d, t.vertices[mid]) is Position.INTERIOR
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


@pytest.mark.parametrize("p, q", [(0, 99), (99, 0), (-1, 1), (2, 2)])
def test_endpoints_must_be_two_vertex_ids(p, q):
    # an id past the end or below zero, or a path from a vertex to itself
    t = build([P(0, 0), P(4, 0), P(2, 1), P(2, -1)])
    d = Disk(P(2, 0), Fraction(1))
    for search in (find_path, path_oracle):
        with pytest.raises(PreconditionViolated):
            search(t, p, q, d)


def test_tie_on_boundary_surfaces():
    # two vertices placed mirror-symmetric about the shrink axis tie exactly
    pts = [P(0, 0), P(4, 0), P(2, 1), P(2, -1)]
    t = build(pts)
    d = Disk(P(2, 0), Fraction(4))
    assert disk_classify(d, pts[0]) is Position.BOUNDARY
    assert disk_classify(d, pts[1]) is Position.BOUNDARY
    with pytest.raises(TieOnBoundary) as exc:
        find_path(t, 0, 1, d)
    assert set(exc.value.witnesses) == {2, 3}


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
    e = t.edges[0]
    d = witness_disk(t, e.u, e.v)
    good = find_path(t, e.u, e.v, d)
    broken = DiskPath(good.vertices + good.vertices[:1], d)
    with pytest.raises(InvariantBroken):
        check_disk_path(t, broken)
    far = next(i for i in range(len(t)) if i not in (e.u, e.v))
    detour = DiskPath((e.u, far, e.v), d)
    with pytest.raises(InvariantBroken):
        check_disk_path(t, detour)
