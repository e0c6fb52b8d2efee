"""Every top-level function and class of the package has a caller inside it.

Library code that only tests reach costs upkeep and gives nothing; it moves
into ``tests/helpers.py`` as an oracle or goes. A reference is a ``Name``
read anywhere in ``src/dtough`` (load context: the stored field
``DiskPath.disk`` must not hide the function ``disk``) or an attribute of a
package module name, such as ``structure.max_independent_set``. The package
``__init__`` only re-exports, so it counts as no caller.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dtough"

# Public entry points with no caller in the package by design.
ENTRY_POINTS = {
    "from_triangles",  # non-Delaunay triangulations for the non-vacuity tests
    # bench/tracing.py counts its calls by this name; every in-circle
    # question about a triangulation reads Triangulation.circle instead
    "in_circle",
}


def _uncalled(src: Path) -> list[str]:
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    trees = {p.stem: ast.parse(p.read_text()) for p in paths}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in trees:
                    attributes.add((node.value.id, node.attr))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in names | ENTRY_POINTS
        and (module, node.name) not in attributes
    ]


def test_every_top_level_definition_has_a_caller():
    assert _uncalled(SRC) == []


def test_the_guard_sees_an_orphan(tmp_path):
    # a stored field of the same name, or a re-export, is no caller
    (tmp_path / "a.py").write_text(
        "def used():\n    pass\n\ndef orphan():\n    used()\n\nclass Box:\n    orphan = 1\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\na.Box\n")
    (tmp_path / "__init__.py").write_text("from .a import orphan\n")
    assert _uncalled(tmp_path) == ["a.orphan"]
