"""The public surface is what a run reaches.

Every name that gaugelab/__init__.py exports must be referred to, outside its own
definition, by code that a run executes: another statement of the package (the CLI
included), the benchmark in perfbench/, the acceptance tests or the CLI manifests.  A name
that only its own unit tests call is dead API and goes.  The same holds one level down for
the public methods and properties of an exported class.  That check matches names only, so
a method named like something a run reaches (a field, or another class's method) passes it.
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


def _exported_classes():
    """The class statements of the package that __init__.py exports."""
    exports = set(_exports())
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in exports:
                yield stmt


def test_every_public_method_is_reached_by_a_run():
    used = set().union(*(used for _, used in _references()))
    unreached = [f"{cls.name}.{stmt.name}" for cls in _exported_classes() for stmt in cls.body
                 if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
                 and stmt.name not in used]
    assert unreached == []


# Inputs are read-only: a constructor fills its object, and nothing rebinds it after.  Caches
# are functools.cached_propertys or one keyed slot (a cached_property holding the container it
# grows), so no statement of the package writes an attribute after construction, and none
# reads or writes an object's __dict__ but _scratch's per-thread buffers.
CONSTRUCTORS = {"__init__", "__post_init__"}
WRITERS = {"setattr", "delattr", "__setattr__", "__delattr__"}
DICT_WRITERS = {"update", "setdefault", "pop", "popitem", "clear"}


def _is_vars(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")


def _bound(target):
    """The self.<attr> and vars(...)[key] nodes that an assignment or del target binds,
    tuples unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for elt in target.elts for a in _bound(elt)]
    if isinstance(target, ast.Starred):
        return _bound(target.value)
    is_self = (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
               and target.value.id == "self")
    is_vars = isinstance(target, ast.Subscript) and _is_vars(target.value)
    return [target] if is_self or is_vars else []


def _writes(node, function):
    """(line, what, enclosing function) of each attribute write and __dict__ use under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else function
        targets = (child.targets if isinstance(child, (ast.Assign, ast.Delete))
                   else [child.target] if isinstance(child, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for bound in (b for t in targets for b in _bound(t)):
            yield bound.lineno, f"{ast.unparse(bound)} bound", function
        if isinstance(child, ast.Call):
            name = getattr(child.func, "id", getattr(child.func, "attr", None))
            if name in WRITERS:
                yield child.lineno, f"{name}() called", function
        if (isinstance(child, ast.Attribute) and _is_vars(child.value)
                and child.attr in DICT_WRITERS):
            yield child.lineno, f"vars().{child.attr} called", function
        if (isinstance(child, ast.Attribute) and child.attr == "__dict__"
                or isinstance(child, ast.Constant) and child.value == "__dict__"):
            yield child.lineno, "__dict__ used", function
        yield from _writes(child, inner)


def test_nothing_rebinds_an_object_after_construction():
    found = [f"{path.name}:{line} {what} in {function}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what, function in _writes(ast.parse(path.read_text(), str(path)), None)
             if not (function in CONSTRUCTORS and what != "__dict__ used"
                     or path.name == "measures.py" and function == "_scratch"
                     and what == "__dict__ used")]
    assert found == []
