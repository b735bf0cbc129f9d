"""Package names served on first access (PEP 562).

A package init declares what it exports once, as ``{submodule: names}``,
and gets back its ``__getattr__``, ``__dir__`` and ``__all__``::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "switch": ("SharedMemorySwitch", "SwitchView"),
    })

A name is imported from its submodule the first time it is read and
then cached in the package namespace, so ``import repro`` compiles only
what a caller touches. Names a package needs at import time are
imported eagerly as usual and also listed in the table; ``__getattr__``
is never consulted for them. Packages put the same imports under
``if TYPE_CHECKING:`` so that type checkers and linters see every name.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a submodule, relative to ``package``, to the names it
    exports through the package.
    """
    owner: Dict[str, str] = {}
    for module, names in table.items():
        for name in names:
            if name in owner:
                raise ValueError(
                    f"{package}: {name!r} is exported by both "
                    f"{owner[name]!r} and {module!r}"
                )
            owner[name] = module
    namespace = importlib.import_module(package).__dict__

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
