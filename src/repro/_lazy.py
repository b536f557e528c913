"""Lazy package exports (PEP 562): a name's submodule loads on first use.

Every package ``__init__`` that re-exports names lists them in one
table, public name -> defining submodule, and gets its module-level
``__getattr__`` and ``__dir__`` from :func:`lazy_exports`.  ``import
repro`` then loads only the package shells, so a command imports, and
keeps resident, only the modules it runs; ``repro.numerics`` (and with
it numpy) loads only when something reads it.

A name mapped to itself is the submodule itself: ``{"core": "core"}``
serves ``repro.core``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping, Tuple


def lazy_exports(namespace: dict,
                 exports: Mapping[str, str]) -> Tuple[Callable, Callable]:
    """The ``(__getattr__, __dir__)`` pair for a package's ``globals()``.

    A resolved name is stored in ``namespace``, so the next read is a
    plain attribute lookup and the hook never runs for it again.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{module_name}", package)
        value = module if module_name == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
