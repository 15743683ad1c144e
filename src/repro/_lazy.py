"""Lazy package facades (PEP 562).

Every ``repro`` package re-exports names from its submodules.  Importing
them all up front makes ``import repro`` load the whole program — the
HTTP daemon, the SQLite work queue, the ablation drivers — before a
command has decided what it needs.  :func:`lazy_exports` gives a
package a module-level ``__getattr__`` and ``__dir__`` that import the
defining submodule on first attribute access instead.

A resolved name is deliberately *not* cached in the package globals:
each access reads the attribute off its defining module, so whatever
rebinds a function there for a while (``unittest.mock``, a profiler)
is seen through the facade, and nothing stale outlives the rebinding.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict) -> tuple:
    """``(__getattr__, __dir__)`` for the package named ``package``.

    ``exports`` reads like the import block it replaces: it maps a
    module, relative to ``package``, to the names taken from it.
    ``"." : ["engine"]`` is ``from . import engine``;
    ``".core": ["instances as canonical"]`` is
    ``from .core import instances as canonical``.
    """
    where: dict = {}
    for source, names in exports.items():
        absolute = importlib.util.resolve_name(source, package)
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            where[alias or attr] = (absolute, attr)

    def __getattr__(name: str):
        try:
            absolute, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if absolute == package:
            return importlib.import_module(f"{package}.{attr}")
        module = sys.modules.get(absolute) or importlib.import_module(absolute)
        return getattr(module, attr)

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
