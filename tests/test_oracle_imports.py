"""Private names stay inside the module that defines them.

An oracle that imports a private helper of the code it checks shares that
helper's faults and cannot catch them, so the oracles of
``tests/helpers.py`` use only the public names of the package. A module of
the package that imports another's private helper makes that helper an
interface nobody declared, so the modules of ``src/dtough`` do not either:
a helper two modules need lives in the one that uses it, or goes public.

The guard reads a file's syntax tree: a ``_``-prefixed name imported from
``dtough`` or, relatively, from a module of the package, or read as an
attribute of a package module that the file imports, fails it.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
HELPERS = TESTS / "helpers.py"
SRC = TESTS.parent / "src" / "dtough"


def _private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "dtough"):
            for alias in node.names:
                modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    module = f"{node.module}." if node.module else ""
                    found.append(f"{'.' * node.level}{module}{alias.name}")
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


def test_package_modules_import_no_private_name_of_another():
    found = {p.name: _private_names(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


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


def test_the_guard_sees_a_private_name_in_a_relative_import():
    # a module's own private names are no import; another module's are
    source = (
        "from . import exactgeom\n"
        "from .exactgeom import Point, _bisector_row\n"
        "from .. import _top\n"
        "exactgeom._least_violation\n"
        "def _mine():\n    pass\n\n_mine()\n"
    )
    assert _private_names(source) == [
        ".exactgeom._bisector_row", ".._top", "exactgeom._least_violation"
    ]
