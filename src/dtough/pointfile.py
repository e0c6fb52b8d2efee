"""The plain-text point file format.

One point per line as ``x y``. Coordinates are decimal literals (parsed
exactly: ``0.25`` is 1/4) or fractions ``a/b``. ``#`` starts a comment,
blank lines are skipped, duplicates are rejected at load. A canonical
field is read with ``int``, any other by ``exactgeom.coord``, which
refuses a zero denominator, a decimal exponent above
``exactgeom.MAX_EXPONENT`` in magnitude and a field longer than
``exactgeom.MAX_LITERAL`` characters; its error quotes at most the first
``SHOWN`` characters of the field. Emission is canonical (always ``a/b``
or a bare integer), so emit -> parse -> emit is byte-identical.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import PointFileError
from .exactgeom import MAX_LITERAL, Point, coord

SHOWN = 40  # characters of a bad field quoted in its error
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")  # as emitted; 1/0 gets coord's error


def parse_points(text: str) -> tuple[Point, ...]:
    points: list[Point] = []
    seen: dict[tuple[int, int, int, int], int] = {}  # hashing a Fraction takes a modular inverse
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise PointFileError(line_no, f"expected 'x y', got {len(fields)} field(s)")
        coords = []
        for field in fields:
            match = _CANONICAL.fullmatch(field) if len(field) <= MAX_LITERAL else None
            try:
                coords.append(Fraction(int(match[1]), int(match[2] or 1)) if match else coord(field))
            except ValueError as exc:
                shown = repr(field[:SHOWN]) + ("..." if len(field) > SHOWN else "")
                raise PointFileError(line_no, f"bad coordinate {shown}: {exc}") from exc
        x, y = coords
        first = seen.setdefault((x.numerator, x.denominator, y.numerator, y.denominator), line_no)
        if first != line_no:
            raise PointFileError(line_no, f"duplicate of point on line {first}")
        points.append(Point(x, y))
    return tuple(points)


def fraction_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def format_points(points: Sequence[Point]) -> str:
    return "".join(f"{fraction_str(p.x)} {fraction_str(p.y)}\n" for p in points)


def read_points(path: str | Path) -> tuple[Point, ...]:
    """Parse a point file; bytes that are not UTF-8 are a ``PointFileError``
    on the line that holds the first bad byte."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PointFileError(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8: {exc.reason}") from exc
    return parse_points(text)
