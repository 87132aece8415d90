"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import degreesearch


def test_every_exported_name_resolves():
    # A stale entry in any ``__all__`` breaks ``from ... import *``.
    modules = [degreesearch] + [
        importlib.import_module(f"degreesearch.{info.name}")
        for info in pkgutil.iter_modules(degreesearch.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
