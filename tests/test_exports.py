"""Every exported name of the package resolves and has a caller outside the tests,
so does every public member of an exported class, the package imports only
what it declares and reads every name it imports, every shared test helper
has a caller, nothing it runs loads scipy, and the README's library example
runs."""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import csbm

PACKAGE = Path(csbm.__file__).resolve().parent
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(csbm.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = csbm if module is None else importlib.import_module(f"csbm.{module}")
    exported = getattr(mod, "__all__", ())
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)


def reader_nodes():
    """Every AST node of the code outside the tests: the package, the studies and the benchmark."""
    root = PACKAGE.parent.parent
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += [*(root / "studies").rglob("*.py"), *(root / "perfbench").rglob("*.py")]
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(), str(path)))


def test_every_export_has_a_caller():
    # An exported name must be read somewhere besides the tests: by another
    # module of the package, a study or the benchmark.  A reference is a
    # name, an attribute or an imported name; a docstring mentioning it is
    # not one.
    referenced = set()
    for node in reader_nodes():
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name.rpartition(".")[2])
    assert sorted(set(csbm.__all__) - referenced) == []


# Public members that only the tests read, each kept for the reader named.
TEST_READ_MEMBERS = {
    # Its pinned-bytes test; the provenance sidecar planned in ROADMAP.md
    # will hash it.
    "SweepConfig.to_json",
    # The pipeline pin's ``bipartition`` splits each bad vertex's metagraph by it.
    "VertexClass.reached",
    # The witness differential tests check both against the list-and-min rule.
    "SingletonReport.maj",
    "SingletonReport.witness_pair",
}

_MEMBER_KINDS = (property, functools.cached_property, classmethod, staticmethod)


def public_members(cls: type) -> set[str]:
    """Public dataclass and NamedTuple fields, methods and properties defined by ``cls``."""
    names = set(getattr(cls, "_fields", ()))
    if dataclasses.is_dataclass(cls):
        names.update(field.name for field in dataclasses.fields(cls))
    names.update(
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) or isinstance(value, _MEMBER_KINDS)
    )
    return {name for name in names if not name.startswith("_")}


def test_every_public_member_has_a_reader():
    # Each public member of an exported class must be read as an attribute
    # somewhere besides the tests, or be listed with its test reader above.
    read = {node.attr for node in reader_nodes() if isinstance(node, ast.Attribute)}
    unread = {
        f"{name}.{member}"
        for name in csbm.__all__
        if isinstance(getattr(csbm, name), type)
        for member in public_members(getattr(csbm, name))
        if member not in read
    }
    assert sorted(unread - TEST_READ_MEMBERS) == []
    # A listed member that gains a reader leaves the list.
    assert sorted(TEST_READ_MEMBERS - unread) == []


def test_no_dataclass_field_is_private():
    # Derived data is a cached property of its owner, never a settable
    # constructor field: a field named ``_x`` would be a cache slot.
    private = [
        f"{cls.__qualname__}.{field.name}"
        for module in MODULES
        for _, cls in inspect.getmembers(importlib.import_module(f"csbm.{module}"))
        if dataclasses.is_dataclass(cls) and isinstance(cls, type)
        for field in dataclasses.fields(cls)
        if field.name.startswith("_")
    ]
    assert private == []


def test_imports_equal_the_declared_dependencies():
    # Every absolute import anywhere in the package, lazy ones included,
    # names either the standard library, the package itself, or a declared
    # dependency; and every declared dependency is imported.
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as fh:
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", dep).group()
            for dep in tomllib.load(fh)["project"]["dependencies"]
        }
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names - {"csbm"} == declared


def test_every_import_is_used():
    # Each name a module of the package binds by an import is read in that
    # module, as a name or as the base of an attribute (``np`` in
    # ``np.zeros``).  ``__init__.py`` imports to re-export, and a
    # ``__future__`` import is a compiler directive, so neither counts.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def test_scalar_checks_live_in_graphs_only():
    # "A real number, not a bool, finite, in range" is written once, in
    # csbm.graphs' _require_integer and _require_real.  An isfinite call in
    # another module, or a checker of its own, is a second copy of the rule.
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_require_coefficients":
                copies.append(f"{path.stem}: defines _require_coefficients")
            elif isinstance(node, ast.Call) and path.name != "graphs.py":
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == "isfinite":
                    copies.append(f"{path.stem}: calls isfinite")
    assert copies == []


def _references(tree) -> set[str]:
    """Names, attributes, imported names and parameter names (fixtures) in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
    return found


@pytest.mark.parametrize("helper", ["conftest.py", "reference.py", "graph_algebra.py"])
def test_every_test_helper_has_a_caller(helper):
    # A module-level function of a shared test module is referenced from
    # another test file or the benchmark; a private one may be referenced
    # from its own module instead.  A test naming a fixture as a parameter
    # references it.
    root = PACKAGE.parent.parent
    paths = [*(root / "tests").glob("*.py"), *(root / "perfbench").rglob("*.py")]
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    own = trees.pop(helper)
    elsewhere = set().union(*map(_references, trees.values()))
    inside = _references(own)
    unread = [
        node.name
        for node in own.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in elsewhere
        and not (node.name.startswith("_") and node.name in inside)
    ]
    assert unread == []


def test_a_trial_loads_no_scipy():
    # In a fresh interpreter: import the package, run small trials at k = 1
    # and k = 2 through every experiment, peel a pendant edge at k = 2 over
    # two rounds, and query single vertices.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import csbm; "
        "[csbm.run_trial(csbm.Params(n=200, a=9.0, b=1.0, s=0.4, K=3, k=k), 0, "
        "('recover', 'match', 'witness')) for k in (1, 2)]; "
        "g = csbm.Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)]); "
        "assert csbm.k_core(g, 2) == {0, 1, 2}; "
        "assert g.neighbors(2) == {0, 1, 3} and g.neighbors(3) == {2}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(PACKAGE.parent)
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_readme_library_example_runs(capsys):
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    code = readme.split("## Library use")[1].split("```python")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # The staged trial and run_trial's one call report the same overlap.
    assert lines[0].split()[0] == lines[1]
    assert [line.split()[0] for line in lines[2:]] == list(csbm.condition_set(9.0, 1.0, 0.4))
