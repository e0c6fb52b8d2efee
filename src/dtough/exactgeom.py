"""Exact rational plane geometry: points, disks, and sign predicates.

Every coordinate is an ``int`` or a ``fractions.Fraction`` (``_exact``) and
every predicate is the sign of an exactly evaluated rational expression, so
answers never depend on floating-point rounding and are invariant under
rational rescaling of the input. Disks store the *squared* radius; radii
themselves are irrational in general and never materialize.

``orient`` and ``in_circle`` are generic over the number type. The package
has one circle: (W, U, V, K) with W > 0, whose power
W |X|^2 - 2 (U x + V y) + K is negative inside, zero on and positive outside
it. ``circle_through`` gives the circle through three points, and every
in-circle question is the sign of one ``power`` at a point; ``in_circle``
reads that sign as a ``Position``. A triangulation computes each face's
circle when it is assembled and keeps it (``delaunay.Triangulation.circle``),
so the questions about its own faces compute no circle again.

Every sign test on a point set's own points (the general-position
certificate, the Delaunay face scan and strict edge tests of
``delaunay.build``, ``from_triangles``, ``verify_delaunay`` and
``edge_angle_check``) runs on a copy of the point set multiplied by the lcm
L of its denominators: the answers are the same, the arithmetic is plain
``int`` and still exact. ``integer_copy`` is the one routine that takes
that lcm; a triangulation keeps its copy as ``Triangulation.scaled`` and L
as ``Triangulation.scale``. The certificate accepts that copy in place of
the points, so a build scales its points once. A ``Disk`` becomes a circle
on a copy, given only the copy's factor, in one place (``circle_of``), so
every in-disk test is the sign of ``power`` too (``diskpath``,
``is_witness_disk``), and one formula on two circles answers their
tangency and disjointness (``_circle_pair``). Only disk centers and the
sentinels of ``structure.sentinel_augment`` are built in ``Fraction``.

The certificate (``general_position``) is the paper's hypothesis, not a
step of building T: ``delaunay.build`` runs it only to name the violation
when its local tests fail, and ``cli``'s ``hypothesis`` check, ``gen`` and
``blocking.disjoint_disk_instance`` run it themselves. It walks the pencil
of circles through each pair (a, b) of points, O(n^3) in all: one bisector
row per pair finds every collinear triple and cocircular quadruple whose
least and greatest index the pair is (``_bisector_row``).

The module holds predicates, circles and the certificate; the pencil scan
that wraps faces and finds witness disks is ``delaunay``'s.

There is no floating-point filter layer: one misclassified in-circle test
would invalidate every combinatorial audit built on top of this module. All
functions are pure and all types immutable; the module is safe under any
amount of concurrency.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import CollinearInput, PreconditionViolated

Scalar = Union[int, str, Fraction]
# A circle (W, U, V, K), W > 0, with power W |X|^2 - 2 (U x + V y) + K at X;
# ints on integer points, Fractions on rational ones.
Circle = tuple[int, int, int, int]


MAX_EXPONENT = 1000
MAX_LITERAL = 4000  # characters; int() refuses a run of more than 4,300 digits
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")  # the exponent of a Fraction literal


def coord(value: Scalar) -> Fraction:
    """Coerce a value to an exact coordinate.

    Accepts ints, Fractions, and strings (``"3"``, ``"-7/2"``, ``"0.125"``;
    decimal strings parse exactly). A string with a zero denominator, with
    a decimal exponent above ``MAX_EXPONENT`` in magnitude, or longer than
    ``MAX_LITERAL`` characters raises ValueError, and so does any other
    string that ``Fraction`` refuses; no message repeats the string. The
    exponent and the length are refused before ``Fraction`` or ``int`` sees
    the string: ``1e999999999`` would make ``Fraction`` build a
    billion-digit integer, and the interpreter refuses to read an integer
    of more than 4,300 digits with a message about its own settings. Floats
    are rejected: their binary expansion is rarely what the caller meant, and
    exactness is the whole point of this package.
    """
    if isinstance(value, float):
        raise TypeError("float coordinates are inexact; pass a str, int, or Fraction")
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        if match:
            # counted before int(), which refuses more than 4,300 digits
            digits = match.group(1).lstrip("+-").replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
                raise ValueError(f"exponent magnitude above {MAX_EXPONENT}")
        if len(value) > MAX_LITERAL:
            raise ValueError(f"literal longer than {MAX_LITERAL} characters")
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError("zero denominator") from exc
        except ValueError:
            raise ValueError("not an integer, decimal or fraction a/b") from None
    return Fraction(value)


class Point(NamedTuple):
    x: Fraction
    y: Fraction


class Disk(NamedTuple):
    """A closed disk: boundary points are members."""

    center: Point
    radius_sq: Fraction


def point(x: Scalar, y: Scalar) -> Point:
    return Point(coord(x), coord(y))


def disk(cx: Scalar, cy: Scalar, radius_sq: Scalar) -> Disk:
    r2 = coord(radius_sq)
    if r2 < 0:
        raise ValueError("squared radius must be nonnegative")
    return Disk(point(cx, cy), r2)


class Orientation(Enum):
    CCW = 1
    CW = -1
    COLLINEAR = 0


class Position(Enum):
    """Classification against a closed disk."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


class ViolationKind(Enum):
    DUPLICATE = "duplicate"
    COLLINEAR = "collinear"
    COCIRCULAR = "cocircular"


class Violation(NamedTuple):
    """A general-position failure with the indices that witness it."""

    kind: ViolationKind
    indices: tuple[int, ...]


# ---------------------------------------------------------------------------
# Vector helpers
# ---------------------------------------------------------------------------


def dist_sq(a: Point, b: Point) -> Fraction:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2, (a.y + b.y) / 2)


def arc_point(radius: Fraction, t: Fraction) -> Point:
    """The point at the given distance from the origin in the direction with
    half-angle tangent t: (r (1 - t^2), 2 r t) / (1 + t^2), rational when
    r and t are."""
    den = 1 + t * t
    return Point(radius * (1 - t * t) / den, radius * 2 * t / den)


def cross(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle (a, b, c)."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def outward_normal(a: Point, b: Point, probe: Point) -> Point:
    """The perpendicular of b - a that points away from the side of line ab
    holding probe (the left-hand one when probe is on the line)."""
    if cross(a, b, probe) > 0:
        return Point(b.y - a.y, a.x - b.x)
    return Point(a.y - b.y, b.x - a.x)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def orient(a: Point, b: Point, c: Point) -> Orientation:
    """Turn direction of the path a -> b -> c."""
    det = cross(a, b, c)
    if det > 0:
        return Orientation.CCW
    if det < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def circle_through(a: Point, b: Point, c: Point) -> Circle:
    """The circle through a, b, c as (W, U, V, K) with W > 0.

    Its power ``power(c, X)`` is the lifted determinant of (a, b, c, X)
    expanded about a, times two and normalized by the orientation of
    (a, b, c), so it depends only on the circle, not on the order the
    defining points are given in. With B = b - a, C = c - a,
    px = |B|^2 C.x - |C|^2 B.x and py = |B|^2 C.y - |C|^2 B.y, signs flipped
    so that cross(B, C) > 0: W = 2 cross(B, C), U = W a.x + py,
    V = W a.y - px and K = W |a|^2 + 2 (py a.x - px a.y). The center is
    (U, V) / W. On integer points all four are ints.
    """
    ax, ay = a.x, a.y
    bx, by = b.x - ax, b.y - ay
    cx, cy = c.x - ax, c.y - ay
    cross = bx * cy - by * cx
    if cross == 0:
        raise CollinearInput(f"no circle through collinear points {a}, {b}, {c}")
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    px = b2 * cx - c2 * bx
    py = b2 * cy - c2 * by
    if cross < 0:
        cross, px, py = -cross, -px, -py
    w = 2 * cross
    return w, w * ax + py, w * ay - px, w * (ax * ax + ay * ay) + 2 * (py * ax - px * ay)


def power(c: Circle, pt: Point) -> int:
    """W |X|^2 - 2 (U x + V y) + K at the point X: negative inside the
    circle, zero on it, positive outside."""
    w, u, v, k = c
    x, y = pt
    return w * (x * x + y * y) - 2 * (u * x + v * y) + k


def _position(gap: Union[int, Fraction]) -> Position:
    """The region of a point whose signed gap (negative inside) is gap."""
    if gap < 0:
        return Position.INTERIOR
    if gap > 0:
        return Position.EXTERIOR
    return Position.BOUNDARY


def in_circle(a: Point, b: Point, c: Point, d: Point) -> Position:
    """Classify d against the closed disk bounded by the circle through a,
    b, c: the sign of ``power(circle_through(a, b, c), d)``."""
    return _position(power(circle_through(a, b, c), d))


# ---------------------------------------------------------------------------
# Disk algebra
# ---------------------------------------------------------------------------


def reduced(c: Circle) -> Circle:
    """The integer circle c divided by the gcd of its four coefficients."""
    g = math.gcd(*c)
    return c[0] // g, c[1] // g, c[2] // g, c[3] // g


def circle_of(d: Disk, scale: int) -> Circle:
    """The disk d as a circle on a point set's integer copy, given the
    copy's factor L (``integer_copy``, ``Triangulation.scale``): the power
    |X - L c|^2 - L^2 r^2 times the lcm of its coefficients' denominators,
    reduced. Its ``power`` at the copy of a point is negative inside d, zero
    on its boundary and positive outside. O(1): no point is read."""
    _exact((*d.center, d.radius_sq))
    cx, cy = scale * d.center.x, scale * d.center.y
    k = cx * cx + cy * cy - scale * scale * d.radius_sq
    w = math.lcm(cx.denominator, cy.denominator, k.denominator)
    return reduced((w, *(f.numerator * (w // f.denominator) for f in (cx, cy, k))))


def is_witness_disk(points: Sequence[Point], c: Circle, i: int, j: int) -> bool:
    """Whether integer points i and j lie on the circle c and every other
    point strictly outside it: c then certifies the Delaunay edge (i, j)."""
    return all(power(c, p) == 0 if k in (i, j) else power(c, p) > 0 for k, p in enumerate(points))


def radius_sq_w2(c: Circle) -> int:
    """W^2 r^2 = U^2 + V^2 - K W for the circle c of radius r, whose center
    is (U, V) / W."""
    w, u, v, k = c
    return u * u + v * v - k * w


def _circle_pair(a: Circle, b: Circle) -> tuple[int, int, int]:
    """R^2, r^2 and R^2 + r^2 - d^2, each times W1^2 W2^2, for circles a and
    b of radii R and r whose centers are d apart (``radius_sq_w2``)."""
    w1, u1, v1, _ = a
    w2, u2, v2, _ = b
    big = radius_sq_w2(a) * w2 * w2
    small = radius_sq_w2(b) * w1 * w1
    return big, small, big + small - (u1 * w2 - u2 * w1) ** 2 - (v1 * w2 - v2 * w1) ** 2


def internally_tangent(outer: Circle, inner: Circle) -> bool:
    """d = R - r in squared form: r <= R, R^2 + r^2 - d^2 = 2Rr >= 0. It
    puts inner's closed disk inside outer's."""
    big, small, m = _circle_pair(outer, inner)
    return small <= big and m >= 0 and m * m == 4 * big * small


def externally_tangent(a: Circle, b: Circle) -> bool:
    """d = R + r in squared form: R^2 + r^2 - d^2 = -2Rr <= 0."""
    big, small, m = _circle_pair(a, b)
    return m <= 0 and m * m == 4 * big * small


def interior_disjoint(a: Circle, b: Circle) -> bool:
    """Open interiors disjoint, d >= R + r in squared form: d^2 - R^2 - r^2
    >= 2Rr. External tangency counts as disjoint."""
    big, small, m = _circle_pair(a, b)
    return m <= 0 and m * m >= 4 * big * small


# ---------------------------------------------------------------------------
# General position
# ---------------------------------------------------------------------------


def _exact(values: Iterable[object]) -> None:
    """Refuse the first value whose type is not ``int`` or ``Fraction``."""
    for c in values:
        if type(c) not in (int, Fraction):
            raise PreconditionViolated(f"coordinate {c!r} is not an int or a Fraction")


def integer_copy(points: Sequence[Point]) -> tuple[int, tuple[Point, ...]]:
    """L, the lcm of all coordinate denominators, and the points times L:
    ``int`` coordinates on which, as L > 0, every sign test answers as on
    the points, without the gcd normalisation of ``Fraction``. The package
    takes that lcm here only; other routines are given L."""
    _exact(c for p in points for c in p)
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return scale, tuple(
        Point(p.x.numerator * (scale // p.x.denominator), p.y.numerator * (scale // p.y.denominator))
        for p in points
    )


def _bisector_row(pts: Sequence[Point], a: int, b: int, members: Sequence[int]) -> Optional[Violation]:
    """Scan the points ``members`` (ascending) against the pair (a, b).

    Returns the collinear triple of a, b and the first member collinear with
    them. Else returns the cocircular quadruple of a, b and the two smallest
    points of the group whose smallest point is least, or None when no group
    has two. Indices in a violation are sorted.

    The circumcenter of a, b, k lies on the perpendicular bisector of ab, at
    a + B/2 + t perp(B) with B = b - a and perp(B) = (-B.y, B.x). Writing
    C = k - a, the condition |center - a| = |center - k| solves to
    2t = C.(C - B) / cross(B, C). Two members share a circle through a and b
    exactly when they share t, so t, as a reduced fraction with a positive
    denominator, keys the groups. Coordinates must be ints.
    """
    ax, ay = pts[a]
    bx, by = pts[b].x - ax, pts[b].y - ay
    first: dict[tuple[int, int], int] = {}
    best: Optional[tuple[int, int]] = None
    for k in members:
        cx, cy = pts[k].x - ax, pts[k].y - ay
        den = bx * cy - by * cx
        if den == 0:
            return Violation(ViolationKind.COLLINEAR, tuple(sorted((a, b, k))))
        num = cx * (cx - bx) + cy * (cy - by)
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        key = (num // g, den // g)
        j = first.setdefault(key, k)
        if j != k and (best is None or (j, k) < best):
            best = (j, k)
    if best is None:
        return None
    return Violation(ViolationKind.COCIRCULAR, tuple(sorted((a, b) + best)))


def _least_violation(points: Sequence[Point]) -> Optional[Violation]:
    """The least violation of the points: the first point that repeats an
    earlier one, else the least collinear triple, else the least cocircular
    quadruple.

    Each tuple is scanned once, in the bisector row of its least index a and
    greatest index b over a < k < b, O(n^3) in all. The rows come in blocks
    by a, and the first block with a collinear triple holds the least one.
    """
    n = len(points)
    q = integer_copy(points)[1]
    seen: dict[Point, int] = {}
    for i, p in enumerate(q):  # ints hash faster than Fractions
        if p in seen:
            return Violation(ViolationKind.DUPLICATE, (seen[p], i))
        seen[p] = i
    collinear: list[tuple[int, ...]] = []
    cocircular: list[tuple[int, ...]] = []
    for a in range(n):
        for b in range(a + 2, n):
            hit = _bisector_row(q, a, b, range(a + 1, b))
            if hit is not None:
                (collinear if hit.kind is ViolationKind.COLLINEAR else cocircular).append(hit.indices)
        if collinear:
            return Violation(ViolationKind.COLLINEAR, min(collinear))
    return Violation(ViolationKind.COCIRCULAR, min(cocircular)) if cocircular else None


def general_position(points: Sequence[Point]) -> Optional[Violation]:
    """None when no two points coincide, no three are collinear, and no four
    are cocircular; otherwise the first duplicate, the first point that
    repeats an earlier one ([A, B, B, A] gives (1, 2), not (0, 3)), else the
    lexicographically least collinear triple, else the least cocircular
    quadruple.

    O(n^3) on lcm-scaled integer coordinates (``_least_violation``), equal
    to the naive O(n^4) scan that the tests keep as an oracle.
    """
    return _least_violation(points)


def general_position_added(base: Sequence[Point], added: Sequence[Point]) -> Optional[Violation]:
    """``general_position(base + added)``, the least violation of the union,
    which is the least one among the tuples that hold an added point
    whenever base alone passes. Kept under its own name for the bench
    tracer; the tests' extension oracle calls it.
    """
    return _least_violation(list(base) + list(added))
