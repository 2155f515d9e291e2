"""The public surface is what a run reaches.

Every name that gaugelab/__init__.py exports must be referred to, outside its own
definition, by code that a run executes: another statement of the package (the CLI
included), the benchmark in perfbench/, the acceptance tests or the CLI manifests.  A name
that only its own unit tests call is dead API and goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugelab"
RUN_FILES = sorted({*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                    ROOT / "tests" / "test_acceptance.py",
                    *(ROOT / "tests" / "manifests").glob("*.py")} - {PACKAGE / "__init__.py"})


def _defined(stmt):
    return {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()


def _used(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
        return set(node.value.split("."))    # a benchmark key such as "spectra.chi_hat.calls"
    return set()


def _references():
    """(names a top-level statement defines, names it refers to), for every top-level
    statement of every run file."""
    for path in RUN_FILES:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            yield _defined(stmt), set().union(*map(_used, ast.walk(stmt)))


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for stmt in tree.body
            if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]


def test_every_export_is_reached_by_a_run():
    statements = list(_references())
    exports = _exports()
    assert exports
    unreached = [name for name in exports
                 if not any(name in used and name not in defined for defined, used in statements)]
    assert unreached == []
