"""Every name in a module's `__all__` is bound in that module.

A stale entry fails only at `from lcscohom.<module> import *`, so each
list is checked by name, and by a star import, in every module.
"""

import importlib
import pkgutil
import sys
import types

import pytest

import lcscohom

# __main__ runs the command line on import
MODULES = ["lcscohom"] + [
    f"lcscohom.{info.name}"
    for info in pkgutil.iter_modules(lcscohom.__path__)
    if info.name != "__main__"
]


def unbound(module) -> list:
    """The names in the module's `__all__` that it does not bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    assert unbound(importlib.import_module(name)) == []
    exec(f"from {name} import *", {})


def test_a_stale_entry_is_found(monkeypatch):
    module = types.ModuleType("stale")
    module.present = 1
    module.__all__ = ["present", "gone"]
    monkeypatch.setitem(sys.modules, "stale", module)
    assert unbound(module) == ["gone"]
    with pytest.raises(AttributeError):
        exec("from stale import *", {})
