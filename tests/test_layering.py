"""Import layering: only the CLI builds tables, and the package has no import cycle.

Every ``from .x import`` and ``from . import x`` in the package's modules is
read with ``ast``, function-level imports included, so a lazy import cannot
hide an edge.
"""

import ast
import graphlib
from pathlib import Path

import cvteleport

PACKAGE = Path(cvteleport.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def imported_modules(name: str) -> set[str]:
    """The package modules ``name`` imports; ``from . import x`` of a
    non-module name is an import of ``__init__``."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
    return found


def test_only_the_cli_imports_tables():
    importers = [name for name in MODULES if "tables" in imported_modules(name)]
    assert importers == ["__init__", "cli"]


def test_package_imports_form_no_cycle():
    graph = {
        name: imported_modules(name) - {"__init__"} for name in MODULES if name != "__init__"
    }
    # raises graphlib.CycleError naming the cycle
    graphlib.TopologicalSorter(graph).prepare()
