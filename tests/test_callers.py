"""Every top-level function, class and assigned name (a constant or a type
alias) of the package has a caller inside it.

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
    # bench/tracing.py spans it by this name; the audit reads the angle
    # ledger instead, and only the sentinel census oracle walks faces
    "planar_faces",
    # bench/tracing.py spans it by this name; build certifies the whole
    # copy when it fails, and only the tests' extension oracle scans the
    # tuples that hold an added point
    "general_position_added",
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
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if name not in names | ENTRY_POINTS and (module, name) not in attributes
    ]


def _defined(tree: ast.Module):
    """The names a module defines at top level: functions, classes and the
    targets of plain and annotated assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t)):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id


def test_every_top_level_definition_has_a_caller():
    assert _uncalled(SRC) == []


def test_the_guard_sees_an_orphan(tmp_path):
    # a stored field of the same name, or a re-export, is no caller; an
    # alias or constant that nothing reads is an orphan too
    (tmp_path / "a.py").write_text(
        "def used():\n    pass\n\ndef orphan():\n    used()\n\nclass Box:\n    orphan = 1\n\n"
        "Pair = tuple[int, int]\nStale = tuple[int, int, int]\nLIMIT: int = 3\n\n"
        "def sized(p: Pair) -> bool:\n    return len(p) < LIMIT\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\na.Box\na.sized((1, 2))\n")
    (tmp_path / "__init__.py").write_text("from .a import orphan, Stale\n")
    assert _uncalled(tmp_path) == ["a.orphan", "a.Stale"]
