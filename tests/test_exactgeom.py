import math
from fractions import Fraction

import pytest
from itertools import permutations

from hypothesis import assume, given
from hypothesis import strategies as st

from dtough.delaunay import _left_apex, build
from dtough.errors import CollinearInput, DegenerateInput, PreconditionViolated
from dtough.exactgeom import (
    MAX_EXPONENT,
    MAX_LITERAL,
    Disk,
    Orientation,
    Point,
    Position,
    Violation,
    ViolationKind,
    circle_of,
    circle_through,
    coord,
    disk,
    dist_sq,
    externally_tangent,
    general_position,
    general_position_added,
    in_circle,
    integer_copy,
    interior_disjoint,
    internally_tangent,
    is_witness_disk,
    orient,
    point,
    power,
)
from dtough.blocking import fan_instance
from dtough.generate import convex_points, random_points

import helpers
from helpers import (
    circumdisk,
    disk_contains_disk,
    disks_internally_tangent,
    shrink_parameter,
    shrink_toward,
)

P = point


def test_coord_parses_exactly():
    assert coord("0.25") == Fraction(1, 4)
    assert coord("-7/2") == Fraction(-7, 2)
    assert coord(3) == 3
    with pytest.raises(TypeError):
        coord(0.25)


@pytest.mark.parametrize(
    "field",
    ["1e1001", " 1e1001\t", "-3E-1_001", "1/0"],
    ids=["exponent", "padded-exponent", "negative-exponent", "zero-denominator"],
)
def test_coord_refuses_huge_exponents_and_zero_denominators(field):
    # the cap holds for every caller of coord, not only point files, and a
    # space Fraction ignores does not hide the exponent from it
    with pytest.raises(ValueError):
        coord(field)
    with pytest.raises(ValueError):
        point(field, 0)


def test_coord_counts_exponent_digits_before_int():
    # int() refuses more than 4,300 digits with a message naming an
    # interpreter setting; the cap's own message must come first
    for field in ("1e" + "9" * 5000, "1e-" + "9" * 5000, "1e1_" + "0" * 4400):
        with pytest.raises(ValueError, match=f"exponent magnitude above {MAX_EXPONENT}"):
            coord(field)
    # leading zeros are no magnitude
    assert coord("1e" + "0" * 10 + "3") == 1000


def test_coord_refuses_over_long_literals_before_int():
    # a mantissa, a fraction part or a zero-padded exponent longer than the
    # interpreter reads as one int gets the package's message, not its own
    for field in ("1" * 5000, "0." + "1" * 5000, "1e" + "0" * 5000 + "5", "1/" + "3" * 5000):
        with pytest.raises(ValueError, match=f"^literal longer than {MAX_LITERAL} characters$"):
            coord(field)
    assert coord("7" * MAX_LITERAL) == int("7" * MAX_LITERAL)


def test_orient_basic():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) is Orientation.CCW
    assert orient(P(0, 0), P(1, 1), P(2, 2)) is Orientation.COLLINEAR
    assert orient(P(0, 0), P(0, 1), P(1, 0)) is Orientation.CW


def test_in_circle_unit_square():
    a, b, c = P(0, 0), P(1, 0), P(0, 1)
    assert in_circle(a, b, c, P(1, 1)) is Position.BOUNDARY
    assert in_circle(a, b, c, P(2, 2)) is Position.EXTERIOR
    assert in_circle(a, b, c, P("1/2", "1/2")) is Position.INTERIOR


def test_in_circle_rejects_collinear():
    with pytest.raises(CollinearInput):
        in_circle(P(0, 0), P(1, 1), P(2, 2), P(0, 1))


def test_in_circle_orientation_normalized():
    # same circle regardless of the order the defining points are given in
    a, b, c, d = P(0, 0), P(1, 0), P(0, 1), P("1/2", "1/2")
    assert in_circle(a, b, c, d) is in_circle(a, c, b, d)


def _bisector_solver(a: Point, b: Point, c: Point) -> Point:
    """Independent circumcenter oracle: solve the two perpendicular-bisector
    equations 2(b-a).x = |b|^2-|a|^2 and 2(c-a).x = |c|^2-|a|^2 by Cramer."""
    a11, a12 = 2 * (b.x - a.x), 2 * (b.y - a.y)
    a21, a22 = 2 * (c.x - a.x), 2 * (c.y - a.y)
    r1 = b.x * b.x + b.y * b.y - a.x * a.x - a.y * a.y
    r2 = c.x * c.x + c.y * c.y - a.x * a.x - a.y * a.y
    det = a11 * a22 - a12 * a21
    return Point((r1 * a22 - a12 * r2) / det, (a11 * r2 - r1 * a21) / det)


def test_circumdisk_examples():
    d = circumdisk(P(0, 0), P(1, 0), P(0, 1))
    assert d.center == P("1/2", "1/2") and d.radius_sq == Fraction(1, 2)
    d = circumdisk(P(0, 0), P(2, 0), P(1, 1))
    assert d.center == P(1, 0) and d.radius_sq == 1
    assert d.center == _bisector_solver(P(0, 0), P(2, 0), P(1, 1))
    d = circumdisk(P(0, 0), P(4, 0), P(0, 3))
    assert d.center == P(2, "3/2") and d.radius_sq == Fraction(25, 4)


def test_circumdisk_boundary_property():
    pts = (P(3, 7), P("-1/3", 2), P(5, "-4/9"))
    d = circumdisk(*pts)
    assert all(helpers.disk_classify_fraction(d, p) is Position.BOUNDARY for p in pts)
    assert d.center == _bisector_solver(*pts)


def _classify(d: Disk, pts, k: int) -> Position:
    """Point k of pts against d: the sign of ``power`` on the disk's circle
    at the point's integer copy."""
    scale, q = helpers.lcm_copy(pts)
    return _sign_position(power(circle_of(d, scale), q[k]))


def test_circle_of():
    d = disk(0, 0, 1)
    pts = [P(1, 0), P(0, 0), P(2, 0), P("1/2", "1/3")]
    assert [_classify(d, pts, k) for k in range(4)] == [
        Position.BOUNDARY, Position.INTERIOR, Position.EXTERIOR, Position.INTERIOR
    ]
    # the copy is six times the points: |X - 0|^2 - 36, reduced
    assert circle_of(d, 6) == (1, 0, 0, -36)
    assert circle_of(disk("1/2", 0, "1/4"), 1) == (2, 1, 0, 0)
    # a factor that leaves the center or the radius fractional: the lcm of
    # the coefficients' denominators clears them
    assert circle_of(disk("1/3", 0, "1/4"), 2) == (9, 6, 0, -5)


# rational disk coordinates: integers, small and wide fractions, either sign
disk_coord = st.one_of(
    st.integers(-(10**6), 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)


@given(disk_coord, disk_coord, st.one_of(st.just(Fraction(0)), disk_coord.map(abs)), st.sampled_from([1, 6, 3 * 2**20]))
def test_circle_of_matches_its_fraction_oracle(cx, cy, r2, scale):
    # the lift reads only the integer parts of the center and the squared
    # radius; the oracle computes the power's coefficients as Fractions
    d = Disk(Point(cx, cy), r2)
    assert circle_of(d, scale) == helpers.circle_of_fraction(d, scale)


def test_disk_refuses_a_negative_squared_radius():
    with pytest.raises(ValueError, match="squared radius must be nonnegative"):
        disk(0, 0, -1)


def test_is_witness_disk_needs_every_other_point_outside():
    # the disk on diameter (0,0)-(2,0): a third point inside or on it spoils it
    d = disk(1, 0, 1)
    for third, witness in ((P(5, 5), True), (P(1, "1/2"), False), (P(1, 1), False)):
        pts = (P(0, 0), P(2, 0), third)
        scale, q = helpers.lcm_copy(pts)
        assert is_witness_disk(q, circle_of(d, scale), 0, 1) is witness


def test_shrink_toward_examples():
    d = disk(0, 0, 1)
    s = shrink_toward(d, P(-1, 0), P(0, 0))
    assert s.center == P("-1/2", 0) and s.radius_sq == Fraction(1, 4)
    s = shrink_toward(d, P(-1, 0), P("1/2", 0))
    assert s.center == P("-1/4", 0) and s.radius_sq == Fraction(9, 16)
    with pytest.raises(PreconditionViolated):
        shrink_toward(d, P(0, 1), P(0, 1))  # anchor equals target: not interior
    with pytest.raises(PreconditionViolated):
        shrink_toward(d, P("1/2", 0), P(0, 0))  # anchor not on boundary


def test_shrink_toward_properties():
    d = disk(3, -2, 25)
    anchor, target = P(0, 2), P(4, -1)
    assert helpers.disk_classify_fraction(d, anchor) is Position.BOUNDARY
    s = shrink_toward(d, anchor, target)
    assert s.radius_sq < d.radius_sq
    assert helpers.disk_classify_fraction(s, anchor) is Position.BOUNDARY
    assert helpers.disk_classify_fraction(s, target) is Position.BOUNDARY
    assert disk_contains_disk(d, s)
    assert disks_internally_tangent(d, s)
    t = shrink_parameter(d, anchor, target)
    assert 0 < t < 1


def test_general_position_examples():
    ok = [P(0, 0), P(1, 0), P(0, 1)]
    assert general_position(ok) is None
    square = ok + [P(1, 1)]
    assert general_position(square) == Violation(ViolationKind.COCIRCULAR, (0, 1, 2, 3))
    line = [P(0, 0), P(1, 1), P(2, 2), P(5, 0)]
    assert general_position(line) == Violation(ViolationKind.COLLINEAR, (0, 1, 2))
    dup = [P(0, 0), P(1, 0), P(0, 0)]
    assert general_position(dup) == Violation(ViolationKind.DUPLICATE, (0, 2))


def test_general_position_reports_least_group_of_a_row():
    # In the row of pair (0, 1), points 6 and 7 share a circle through 0 and 1
    # and so do 5 and 9. The (6, 7) collision is met first, but (0, 1, 5, 9)
    # is the first cocircular quadruple in combinations order.
    pts = [P(x, y) for x, y in (
        (0, 0), (10, 0), (-2, 12), (12, -8), (18, 8),
        (1, -3), (-7, 7), (17, 17), (10, 1), (8, -4),
    )]
    expected = Violation(ViolationKind.COCIRCULAR, (0, 1, 5, 9))
    assert helpers.general_position_naive(pts) == expected
    assert general_position(pts) == expected


def test_integer_copy():
    scale, scaled = integer_copy([P("1/2", "1/3"), P(2, "-5/6")])
    assert (scale, scaled) == (6, (Point(3, 2), Point(12, -5)))
    assert all(type(c) is int for p in scaled for c in p)
    assert integer_copy([]) == (1, ())


def test_general_position_large_denominators():
    # rational-parameterisation points: the lcm of the denominators is 51
    # bits for the convex set and 58 for the fan with its blockers
    fan = fan_instance(8, 1)
    for base, extra in ((convex_points(10, 2), ()), (fan.points, fan.blockers)):
        assert math.lcm(*(c.denominator for p in base for c in p)) > 2**32
        assert general_position(base + extra) is None
        # reflecting a vertex across a circumcenter adds a cocircular point
        d = circumdisk(base[0], base[3], base[5])
        fourth = P(2 * d.center.x - base[3].x, 2 * d.center.y - base[3].y)
        grown = list(base) + [fourth]
        found = general_position(grown)
        assert found is not None and found == helpers.general_position_naive(grown)
        assert general_position_added(base, [fourth]) == helpers.general_position_naive(grown)


def test_on_circle_iff_cocircular():
    pts = [P(0, 0), P(3, 1), P(1, 4)]
    d = circumdisk(*pts)
    # reflecting a boundary point across the center yields an exact fourth
    # cocircular point
    fourth = P(2 * d.center.x - pts[0].x, 2 * d.center.y - pts[0].y)
    assert in_circle(*pts, fourth) is Position.BOUNDARY
    assert general_position(pts + [fourth]) == Violation(
        ViolationKind.COCIRCULAR, (0, 1, 2, 3)
    )


def test_triangle_classify():
    a, b, c = P(0, 0), P(4, 0), P(0, 4)
    assert helpers.triangle_classify(a, b, c, P(1, 1)) is Position.INTERIOR
    assert helpers.triangle_classify(a, b, c, P(2, 0)) is Position.BOUNDARY
    assert helpers.triangle_classify(a, b, c, P(5, 5)) is Position.EXTERIOR


def test_disjointness_predicates():
    unit = circle_of(disk(0, 0, 1), 1)
    assert interior_disjoint(unit, circle_of(disk(2, 0, 1), 1))  # tangent
    assert externally_tangent(unit, circle_of(disk(2, 0, 1), 1))
    assert interior_disjoint(unit, circle_of(disk(3, 0, 1), 1))
    assert not externally_tangent(unit, circle_of(disk(3, 0, 1), 1))
    assert not interior_disjoint(unit, circle_of(disk(1, 0, 1), 1))
    assert disk_contains_disk(disk(0, 0, 4), disk(0, 0, 1))
    assert not disk_contains_disk(disk(0, 0, 1), disk(0, 0, 4))


small_fraction = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 12)
)
points = st.builds(Point, small_fraction, small_fraction)


@given(points, points, points)
def test_orient_symmetries(a, b, c):
    o = orient(a, b, c)
    assert orient(b, c, a) is o
    assert orient(c, a, b) is o
    flipped = {
        Orientation.CCW: Orientation.CW,
        Orientation.CW: Orientation.CCW,
        Orientation.COLLINEAR: Orientation.COLLINEAR,
    }[o]
    assert orient(a, c, b) is flipped


@given(points, points, points, points, st.sampled_from([Fraction(3), Fraction(1, 7)]))
def test_predicates_scale_invariant(a, b, c, d, factor):
    def scale(p: Point) -> Point:
        return Point(p.x * factor, p.y * factor)

    assert orient(a, b, c) is orient(scale(a), scale(b), scale(c))
    if orient(a, b, c) is not Orientation.COLLINEAR:
        assert in_circle(a, b, c, d) is in_circle(scale(a), scale(b), scale(c), scale(d))
        disk_before = circumdisk(a, b, c)
        disk_after = Disk(scale(disk_before.center), disk_before.radius_sq * factor**2)
        assert _classify(disk_before, [d], 0) is _classify(disk_after, [scale(d)], 0)


# wide numerators and denominators, so the lcm of a set and the coefficients
# of its circles are large
wide_fraction = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9))
wide_points = st.builds(Point, wide_fraction, wide_fraction)
any_points = st.one_of(points, wide_points)
# Unit scale, or a ratio of integers up to 10^12 that moves the points far
# from it and gives them large denominators.
factors = st.one_of(st.just(Fraction(1)), st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)))


def _scaled_disk(d: Disk, factor: Fraction) -> Disk:
    return Disk(Point(d.center.x * factor, d.center.y * factor), d.radius_sq * factor * factor)


@given(any_points, st.lists(any_points, min_size=1, max_size=6), st.data(), factors)
def test_power_on_circle_of_matches_fraction_arithmetic(center, pts, data, factor):
    # the radius through a drawn point puts that point on the boundary, and
    # a grown disk moves it inside; the set rescaled by a drawn factor,
    # with its disks, classifies every point as the set does
    on = data.draw(st.integers(0, len(pts) - 1))
    d = Disk(center, dist_sq(center, pts[on]))
    assert helpers.disk_classify_fraction(d, pts[on]) is Position.BOUNDARY
    rescaled = [Point(p.x * factor, p.y * factor) for p in pts]
    for original in (d, Disk(center, d.radius_sq + Fraction(1, 3))):
        expected = [helpers.disk_classify_fraction(original, p) for p in pts]
        for copy, e in ((pts, original), (rescaled, _scaled_disk(original, factor))):
            scale, q = helpers.lcm_copy(copy)
            c = circle_of(e, scale)
            assert c[0] > 0 and math.gcd(*c) == 1
            assert [_sign_position(power(c, x)) for x in q] == expected


@given(any_points, any_points, st.data(), st.lists(any_points, max_size=3))
def test_circle_pair_tests_match_fraction_oracles(center, on, data, pts):
    # b's center is on + s (center - on), and b passes through on unless
    # its squared radius is nudged: then s in [0, 1] puts b inside a and
    # s >= 1 around it, internally tangent at on, and s <= 0 makes the two
    # externally tangent there. Or b is any disk.
    a = Disk(center, dist_sq(center, on))
    s = data.draw(st.one_of(small_fraction, wide_fraction), label="s")
    nudge = data.draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 3), Fraction(5)]), label="nudge")
    bc = Point(on.x + s * (center.x - on.x), on.y + s * (center.y - on.y))
    b = Disk(bc, dist_sq(bc, on) + nudge)
    if data.draw(st.booleans(), label="any b"):
        b = Disk(data.draw(any_points), dist_sq(data.draw(any_points), center))
    elif nudge == 0:
        assert helpers.disks_externally_tangent(a, b) or s > 0
        assert helpers.disks_internally_tangent(a, b) or s < 0 or s > 1
        assert helpers.disks_internally_tangent(b, a) or s < 1
    for x, y in ((a, b), (b, a)):
        scale = helpers.lcm_copy(pts)[0]
        cx, cy = circle_of(x, scale), circle_of(y, scale)
        assert internally_tangent(cx, cy) is helpers.disks_internally_tangent(x, y)
        assert externally_tangent(cx, cy) is helpers.disks_externally_tangent(x, y)
        assert interior_disjoint(cx, cy) is helpers.disks_interior_disjoint(x, y)


def _sign_position(value) -> Position:
    return [Position.BOUNDARY, Position.EXTERIOR, Position.INTERIOR][(value > 0) - (value < 0)]


@given(helpers.grid_points, helpers.grid_points, helpers.grid_points, helpers.grid_points)
def test_circle_through_power_matches_lifted_determinant(a, b, c, d):
    assume(orient(a, b, c) is not Orientation.COLLINEAR)
    expected = helpers.in_circle_lifted(a, b, c, d)
    integers = helpers.lcm_copy([a, b, c, d])[1]
    for pts in ([a, b, c, d], integers):
        for order in permutations(pts[:3]):
            circle = circle_through(*order)
            assert circle[0] > 0
            assert [power(circle, x) for x in pts[:3]] == [0, 0, 0]
            assert _sign_position(power(circle, pts[3])) is expected
            assert in_circle(*order, pts[3]) is expected
    assert all(type(v) is int for v in circle_through(*integers[:3]))


@given(st.lists(helpers.grid_points, min_size=3, max_size=9))
def test_general_position_matches_naive_scan(pts):
    expected = helpers.general_position_naive(pts)
    assert general_position(pts) == expected
    integers = helpers.lcm_copy(pts)[1]
    assert general_position(integers) == expected
    assert general_position_added((), integers) == expected


@given(st.lists(helpers.grid_points, min_size=3, max_size=9), st.lists(helpers.grid_points, min_size=1, max_size=3))
def test_general_position_added_matches_naive_scan(candidates, added):
    base = []  # the contract assumes a base in general position
    for p in candidates:
        if helpers.general_position_naive(base + [p]) is None:
            base.append(p)
    found = general_position_added(base, added)
    assert found == helpers.general_position_naive(base + added)
    union = helpers.lcm_copy(base + added)[1]
    assert general_position_added(union[: len(base)], union[len(base):]) == found
    if len(base) >= 3:
        # build of the union scans that copy, and when a step fails its
        # certificate names the violation: an added point is to blame
        try:
            assert build(base + added).scaled == union
        except DegenerateInput as exc:
            assert exc.violation == found


@given(st.lists(helpers.grid_points, min_size=3, max_size=9), st.integers(3, 12), st.integers(0, 10**6))
def test_pencil_gap_matches_naive_scan(grid, n, seed):
    # every ordered pair of a grid set (duplicates, collinear and cocircular
    # points included) and of a random set: the one-sided scan of a -> b
    # reads the left end of the gap, that of b -> a its right end, the same
    # circle at parameter -t
    for pts in (grid, random_points(n, seed)):
        q = helpers.lcm_copy(pts)[1]
        xs, ys = [p.x for p in q], [p.y for p in q]
        for a, b in permutations(range(len(q)), 2):
            left, right = _left_apex(xs, ys, a, b), _left_apex(xs, ys, b, a)
            if right is not None:
                right = (-right[0], right[1], right[2])
            gap = helpers.pencil_gap_naive(xs, ys, a, b)
            if gap is not None:
                assert (left, right) == gap
            else:
                assert left is not None and right is not None
                assert Fraction(right[0], right[1]) >= Fraction(left[0], left[1])
