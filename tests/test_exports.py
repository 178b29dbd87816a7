"""Every exported name of the package resolves, and a trial needs no scipy."""

import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import csbm

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(csbm.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = csbm if module is None else importlib.import_module(f"csbm.{module}")
    exported = getattr(mod, "__all__", ())
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)


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


def test_a_trial_loads_no_scipy():
    # In a fresh interpreter: import the package and run one small trial
    # through every experiment; only cascading peels and per-vertex graph
    # queries import scipy.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import csbm; "
        "csbm.run_trial(csbm.Params(n=200, a=9.0, b=1.0, s=0.4, K=3, k=1), 0, "
        "('recover', 'match', 'witness')); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(csbm.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
