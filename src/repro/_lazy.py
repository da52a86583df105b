"""PEP 562 lazy re-exports for the package ``__init__`` modules.

Each package lists its public names once, in a literal table
``{defining module: names}``, and :func:`lazy_exports` turns that table
into the package's ``__all__`` plus the module-level ``__getattr__`` and
``__dir__`` (PEP 562).  A name's defining module is imported the first
time the name is read, and the value is then cached on the package, so
``import repro`` loads nothing but this module and each CLI command pays
only for the modules it uses.  ``from package import *`` and ``dir(package)``
still see every export.

Code inside ``repro`` imports from the defining modules, not from the
package tables; the tables are the public face.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    table: Mapping[str, Sequence[str]],
    *,
    defined: Sequence[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from its table.

    ``defined`` names what the package defines itself; it joins
    ``__all__`` but is never looked up.  A name that is also the name of
    its own defining submodule (``repro.synth.perturb``) is bound at
    once: the import system sets the package attribute to the submodule
    when anything first imports it, which would otherwise hide the name.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owner})

    for name, module in owner.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, __dir__, sorted([*owner, *defined])
