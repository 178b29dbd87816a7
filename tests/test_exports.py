"""Every exported name of the package resolves."""

import importlib
import pkgutil

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
