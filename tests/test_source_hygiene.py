"""Every module of the package and of the tests uses every name it imports,
every function the package exports is run by a request, and every field
of a package record is read in the package.

The package root is exempt from the first check: its imports are its
exports. A deleted route that leaves an import behind fails here with the
module and the name. An exported function must be called somewhere in the
package outside its own body, or be a span target of ``bench/tracing.py``,
or be on ``EXPORT_ALLOWLIST`` with its reason; a second route that only the
tests call belongs in ``tests/`` as an oracle. A field of a ``NamedTuple`` record must be read in
the package, as an attribute or through the record's ``_asdict()``, or be
on ``FIELD_ALLOWLIST`` with its reason; a field that only copies another
record or the caller's own argument has no reader.
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


# record fields that nothing in the package reads, "Class.field" -> reason
FIELD_ALLOWLIST: dict = {}


def record_fields(sources: list) -> dict:
    """``{class: [field, ...]}`` of each ``NamedTuple`` class in ``sources``."""
    records = {}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base) == "NamedTuple" for base in node.bases
            ):
                records[node.name] = [
                    s.target.id for s in node.body if isinstance(s, ast.AnnAssign)
                ]
    return records


def read_fields(sources: list, records: dict) -> set:
    """``(class, field)`` pairs read in ``sources``: an attribute loaded by a
    field's name counts for every record with that field, whatever the object;
    ``x._asdict()`` reads every field of the record that ``x`` holds, where
    ``x`` is a call, or a name assigned a call, of a function annotated to
    return a record."""
    trees = [ast.parse(source) for source in sources]
    returns = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                returns[node.name] = ast.unparse(node.returns).strip("'\"")

    def called(node):
        if isinstance(node, ast.Call):
            func = node.func
            return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return None

    loaded, dumped = set(), set()
    for tree in trees:
        assigned = {}  # name -> the functions whose result it is assigned
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and called(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, set()).add(called(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            if called(node) == "_asdict" and isinstance(node.func, ast.Attribute):
                holder = node.func.value
                if isinstance(holder, ast.Name):
                    funcs = assigned.get(holder.id, set())
                else:
                    funcs = {called(holder)}
                dumped.update(returns[f] for f in funcs if returns.get(f) in records)
    return {
        (cls, field)
        for cls, fields in records.items()
        for field in fields
        if field in loaded or cls in dumped
    }


def unread_fields() -> list:
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    records = record_fields(sources)
    read = read_fields(sources, records)
    return [
        f"{cls}.{field}"
        for cls, fields in records.items()
        for field in fields
        if (cls, field) not in read
    ]


def test_every_record_field_is_read_in_the_package():
    unread = [name for name in unread_fields() if name not in FIELD_ALLOWLIST]
    assert unread == []


def test_field_allowlist_holds_only_unread_fields():
    assert set(FIELD_ALLOWLIST) <= set(unread_fields())


def test_a_field_is_read_by_attribute_or_through_asdict():
    source = (
        "class A(NamedTuple):\n    a: int\n    b: int\n"
        "class B(NamedTuple):\n    c: int\n    d: int\n"
        "class C(NamedTuple):\n    e: int\n"
        "def make() -> 'B':\n    return B(1, 2)\n"
        "def f(x):\n    r = make()\n    x.b = 0\n    return x.a, r._asdict()\n"
    )
    records = record_fields([source])
    assert records == {"A": ["a", "b"], "B": ["c", "d"], "C": ["e"]}
    assert read_fields([source], records) == {("A", "a"), ("B", "c"), ("B", "d")}
