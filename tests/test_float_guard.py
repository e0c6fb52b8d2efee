"""No verdict rests on a float: the modules behind the verdicts hold no float
literal, no ``float(...)`` call and no ``math`` function but the exact
integer ones, and a float coordinate given to the library is refused. Only
``render``, which draws, may use floats."""

import ast
from pathlib import Path

import pytest

import dtough
from dtough import Disk, Point, build, find_path, from_triangles, general_position
from dtough.errors import PreconditionViolated

EXACT_MODULES = (
    "exactgeom", "delaunay", "structure", "diskpath", "blocking", "generate", "pointfile"
)
INTEGER_MATH = {"gcd", "lcm", "isqrt", "ceil"}


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float(...) call")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {node.lineno}: from math import {a.name}"
                for a in node.names
                if a.name not in INTEGER_MATH
            ]
    return found


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_hold_no_float(module):
    source = (Path(dtough.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert _float_uses(ast.parse(source)) == []


def test_the_guard_sees_each_kind_of_float():
    source = "import math\nfrom math import pi\nx = 0.0 + float(y) + math.atan2(1, 2) + math.gcd(4, 6)\n"
    assert _float_uses(ast.parse(source)) == [
        "line 2: from math import pi",
        "line 3: literal 0.0",
        "line 3: float(...) call",
        "line 3: math.atan2",
    ]


def test_a_float_coordinate_is_a_precondition_violation():
    # integer_copy and circle_of read exact denominators; a float has none,
    # and is refused as a breach of contract, not by an AttributeError
    tri = build([Point(0, 0), Point(2, 0), Point(1, 2)])
    floated = [Point(0, 0), Point(2, 0), Point(0.5, 2)]
    calls = {
        "0.5": [
            lambda: build(floated),
            lambda: from_triangles(floated, [(0, 1, 2)]),
            lambda: general_position(floated),
            lambda: find_path(tri, 0, 1, Disk(Point(0.5, 0.5), 1)),
        ],
        "2.5": [lambda: find_path(tri, 0, 1, Disk(Point(1, 0), 2.5))],
    }
    for shown, cases in calls.items():
        for call in cases:
            with pytest.raises(PreconditionViolated, match=f"coordinate {shown} is not an int or a Fraction"):
                call()
