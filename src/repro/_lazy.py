"""On-demand package namespaces (PEP 562).

A package ``__init__`` declares which submodule defines each of its
public names; a name's submodule is imported the first time the name is
read.  Importing a package therefore costs only the submodules its
caller actually uses — which is what keeps a ``repro schedule`` process
from loading the campaign, fault-injection and experiment layers.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_namespace(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``'s ``__init__``.

    ``exports`` maps each submodule (relative name) to the public names
    it defines.  Reading an exported name imports its submodule; reading
    a submodule's own name imports the submodule.  Either way the value
    is then stored in the package namespace, so later reads are plain
    attribute lookups.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
        elif name in exports:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin, *exports})

    return __getattr__, __dir__
