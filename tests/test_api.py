"""Export consistency: __all__ lists only real names, and the package
re-exports only names its source modules declare public."""

import importlib
import pkgutil
import types

import pytest

import ptspec

MODULES = [importlib.import_module(f"ptspec.{info.name}")
           for info in pkgutil.iter_modules(ptspec.__path__)
           if not info.name.startswith("__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_reexports_are_public_in_their_module():
    declared = {(name, id(getattr(m, name, None)))
                for m in MODULES for name in getattr(m, "__all__", ())}
    stray = [name for name, obj in vars(ptspec).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)
             and (name, id(obj)) not in declared]
    assert stray == []
