"""Reference algorithms the online policies are measured against.

The exhaustive search and the scripted clairvoyant OPT are oracles:
they are imported when one of their names is first read.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.opt.surrogate import (
    MaxValueSurrogate,
    SrptSurrogate,
    System,
    make_surrogate,
)

if TYPE_CHECKING:
    from repro.opt.exhaustive import TinyInstance, exhaustive_opt
    from repro.opt.scripted import ScriptedPolicy

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "exhaustive": ("TinyInstance", "exhaustive_opt"),
        "scripted": ("ScriptedPolicy",),
        "surrogate": (
            "MaxValueSurrogate",
            "SrptSurrogate",
            "System",
            "make_surrogate",
        ),
    },
)
