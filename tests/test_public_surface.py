"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deletion that leaves its name in some package's ``__all__`` breaks
``from repro.x import *`` without failing any import; this catches it.
"""

import importlib
import pkgutil

import pytest

import repro

# Importing every module also binds each submodule as an attribute of its
# package, so an exported submodule name (``repro.live``'s ``wire``) resolves too.
MODULES = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_some_module_declares_all():
    assert repro in EXPORTING


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__, f"{module.__name__} declares an empty __all__"
    stale = [name for name in module.__all__ if not hasattr(module, name)]
    assert not stale, f"names in {module.__name__}.__all__ that do not resolve: {stale}"
