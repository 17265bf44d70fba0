"""Every module of the package and of the tests uses every name it imports,
and every function the package exports is run by a request.

The package root is exempt from the first check: its imports are its
exports. A deleted route that leaves an import behind fails here with the
module and the name. An exported function must be called somewhere in the
package outside its own body, or be a span target of ``bench/tracing.py``,
or be on ``EXPORT_ALLOWLIST`` with its reason; a second route that only the
tests call belongs in ``tests/`` as an oracle.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradealg"
MODULES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list:
    """The names bound by imports in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport os.path as osp\nfrom typing import List, Tuple\nx: List = osp\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


# exported functions that no request calls and no tracer target names
EXPORT_ALLOWLIST = {
    "GF": "the constructor of a prime field for library callers; requests parse --field",
    "decide_cm_rees": "the library form of the CM rule, which the CLI reaches through "
    "_cm_rees with the invariants of A and A1 it already holds",
}


def exported_functions() -> list:
    """``(module, name)`` of each function the package root imports from a
    module that defines it at top level; classes and constants are left out."""
    exports = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            tree = ast.parse((PACKAGE / f"{node.module}.py").read_text())
            defs = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            exports += [(node.module, a.name) for a in node.names if a.name in defs]
    return exports


def called_names(source: str) -> set:
    """Names called as ``name(...)`` or ``module.name(...)`` in ``source``,
    with ``module`` a module of the package, except calls inside a function
    of the same name. A method call ``obj.name(...)`` does not count."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    called = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and ast.unparse(func.value) in modules:
                name = func.attr
            else:
                name = None
            if name is not None and name not in inside:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return called


def tracer_targets() -> set:
    """``(module, name)`` of each plain function ``bench/tracing.py`` wraps."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS":
            entries = ast.literal_eval(node.value)
            return {
                (module.removeprefix("gradealg."), path)
                for module, path, *_ in entries
                if "." not in path
            }
    raise AssertionError("bench/tracing.py defines no TARGETS")


def package_calls() -> set:
    return set().union(*(called_names(p.read_text()) for p in MODULES if p.parent == PACKAGE))


def test_every_exported_function_is_run_by_a_request():
    called = package_calls()
    targets = tracer_targets()
    unrun = [
        f"{module}.{name}"
        for module, name in exported_functions()
        if name not in called and (module, name) not in targets and name not in EXPORT_ALLOWLIST
    ]
    assert unrun == []


def test_export_allowlist_holds_only_unrun_exports():
    # an allowlisted name that a request calls, or that is not exported, is stale
    exported = {name for _, name in exported_functions()}
    assert set(EXPORT_ALLOWLIST) <= exported - package_calls()


def test_a_call_inside_its_own_def_or_on_an_object_does_not_count():
    source = (
        "def f(n):\n    return f(n - 1) if n else g()\n"
        "def g():\n    return blowup.h()\n"
        "x = basis.normal_form(f)\n"
    )
    assert called_names(source) == {"g", "h"}
