"""Source hygiene: no module imports a name it never uses, no error class
is defined that nothing raises, and nothing is defined that nothing reads.

Every `.py` file under `src/`, `tests/` and `scripts/` is parsed with `ast`.
A name bound by an import must be read somewhere in the same file.  Imports
in a package `__init__.py` are its public re-exports and are skipped, as
are names listed in a module's `__all__`.  Every class in `errors.py` must
be raised under `src/`, or be a base of a class that is.  Every function,
method and class defined under `src/` must be public (a name in the
package's `_EXPORTS`) or have its name read under `src/`, `perfbench/` or
`scripts/`; tests do not count as readers.
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


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Classes defined in `errors_source` that no `raise` in `sources`
    names, neither directly nor through a subclass."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    covered = set()
    pending = [name for name in raised if name in bases]
    while pending:
        name = pending.pop()
        if name not in covered:
            covered.add(name)
            pending.extend(b for b in bases[name] if b in bases)
    return sorted(set(bases) - covered)


def test_every_error_class_is_raised():
    errors = ROOT / "src" / "triplepole" / "errors.py"
    sources = [path.read_text() for path in (ROOT / "src").rglob("*.py")]
    assert unraised_errors(errors.read_text(), sources) == []


def test_error_checker_follows_raises_and_bases():
    errors = (
        "class Base(Exception):\n    pass\n"
        "class Middle(Base):\n    pass\n"
        "class Leaf(Middle):\n    pass\n"
        "class Dotted(Exception):\n    pass\n"
        "class Unused(Base):\n    pass\n"
        "class Mentioned(Exception):\n    pass\n"
    )
    sources = [
        "def f():\n    raise Leaf('x')\n",
        "def g():\n    raise errors.Dotted from None\n",
        "def h():\n    try:\n        pass\n    except Mentioned:\n        raise\n",
    ]
    assert unraised_errors(errors, sources) == ["Mentioned", "Unused"]


def read_names(sources: list[str]) -> set[str]:
    """Every name the sources read: loaded names and attributes, and string
    constants (a name handed to getattr or a tracer by string)."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unread_definitions(source: str, readers: set[str], public: set[str]) -> list[str]:
    """Functions, methods and classes defined in `source`, dunder methods
    aside, whose name is neither in `readers` nor in `public`."""
    defined = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    return [
        f"line {node.lineno}: {node.name}"
        for node in sorted(defined, key=lambda node: node.lineno)
        if node.name not in readers | public
    ]


def package_exports() -> set[str]:
    """The names listed in `_EXPORTS` of the package `__init__.py`."""
    tree = ast.parse((ROOT / "src" / "triplepole" / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            return {elt.value for names in node.value.values for elt in names.elts}
    raise AssertionError("no _EXPORTS in the package __init__")


def test_every_definition_is_read_or_exported():
    readers = read_names(
        [path.read_text() for folder in ("src", "perfbench", "scripts")
         for path in (ROOT / folder).rglob("*.py")]
    )
    public = package_exports()
    unread = {
        str(path.relative_to(ROOT)): found
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (found := unread_definitions(path.read_text(), readers, public))
    }
    assert unread == {}


def test_definition_checker_counts_reads_not_definitions():
    source = (
        "class Kept:\n"
        "    def __init__(self):\n        pass\n"
        "    def called(self):\n        pass\n"
        "    def unread(self):\n        pass\n"
        "def by_string():\n    pass\n"
        "def exported():\n    pass\n"
        "def stored():\n    pass\n"
    )
    readers = read_names([
        source,
        "Kept().called()\ngetattr(mod, 'by_string')\nobj.stored = 1\nstored = 2\n",
    ])
    assert unread_definitions(source, readers, {"exported"}) == [
        "line 6: unread",
        "line 12: stored",
    ]
