"""Lazy package exports (PEP 562).

A package ``__init__`` declares which submodule defines each public name
and installs the pair of module hooks this helper returns::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.sim.engine": ("Environment", "Event"),
        "repro.sim.monitor": ("CounterMonitor",),
    })

``import repro.sim`` then loads no submodule; ``repro.sim.Environment``
(or ``from repro.sim import Environment``) imports ``repro.sim.engine`` on
first access and caches the value on the package, so later lookups are
plain attribute reads.  ``__all__`` stays an explicit list in the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` hooks of ``package``.

    ``exports`` maps a submodule's full dotted name to the names it
    provides.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
