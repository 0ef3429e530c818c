"""Source hygiene: no module imports a name it never uses.

Every `.py` file under `src/`, `tests/` and `scripts/` is parsed with `ast`.
A name bound by an import must be read somewhere in the same file.  Imports
in a package `__init__.py` are its public re-exports and are skipped, as
are names listed in a module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the source."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def exported_names(tree: ast.Module) -> set[str]:
    """String entries of a module-level `__all__` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
    return set()


def test_sources_found():
    names = {path.name for path in SOURCES}
    assert {"gauss_sums.py", "test_hygiene.py", "run_gaussian_demo.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "from math import pi as PI, tau\n"
        "__all__ = ['tau']\n"
        "print(sys.argv, PI)\n"
    )
    assert unused_imports(source) == ["line 2: os"]
