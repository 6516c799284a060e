"""Lazy package exports (PEP 562): a package loads a submodule on first use.

A package ``__init__`` lists where each public name is defined and gets
back its ``__all__``, ``__getattr__`` and ``__dir__``::

    __all__, __getattr__, __dir__ = lazy_exports(
        __name__, {"harness": ("Timer", "format_table")}
    )

``import repro.bench`` then imports nothing else; ``repro.bench.Timer``
imports ``repro.bench.harness`` and caches ``Timer`` in the package, so
later lookups never reach ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule name, relative to ``package``, to the
    public names it defines.
    """
    where = {
        name: f"{package}.{sub}" for sub, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__
