"""Lazy re-exports: a package's public names load with their modules.

A package ``__init__`` that imports every submodule it re-exports makes
``import repro.serve.server`` pay for the client, and ``import
repro.runtime.units`` pay for the executors and the metric kernels.
:func:`lazy_exports` builds a PEP 562 module ``__getattr__`` instead:
``from repro.runtime import run`` imports :mod:`repro.runtime.runner` on
that first access and binds the name on the package, so later lookups
are plain attribute reads (and patching the package attribute still
works).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(package: str, exports: dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` resolving ``exports`` (name -> module)."""

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
