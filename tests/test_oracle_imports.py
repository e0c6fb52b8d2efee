"""The oracles of ``tests/helpers.py`` use only the public names of the package.

An oracle that imports a private helper of the code it checks shares that
helper's faults and cannot catch them. The guard reads the file's syntax
tree: a ``_``-prefixed name imported from ``dtough``, or read as an
attribute of a ``dtough`` module that the file imports, fails it.
"""

import ast
from pathlib import Path

HELPERS = Path(__file__).resolve().parent / "helpers.py"


def _private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dtough":
            for alias in node.names:
                modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dtough":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            base = ast.unparse(node.value)
            if base in modules:
                found.append(f"{base}.{node.attr}")
    return found


def test_helpers_import_no_private_name_of_the_package():
    assert _private_names(HELPERS.read_text()) == []


def test_the_guard_sees_a_private_name():
    source = (
        "import dtough.diskpath\n"
        "from dtough import exactgeom, point\n"
        "from dtough.diskpath import _shrink, find_path\n"
        "exactgeom._least_violation\n"
        "dtough.diskpath._find\n"
    )
    assert _private_names(source) == [
        "dtough.diskpath._shrink", "exactgeom._least_violation", "dtough.diskpath._find"
    ]
