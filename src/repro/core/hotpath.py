"""The ``@hot_path`` marker: declare a function allocation-audited.

The engines' per-packet paths are a performance *contract* —
``fresh_copy`` skips ``__init__``, the column kernels update
preallocated arrays, the transmission phase walks only active ports.
The contract erodes one
innocent allocation at a time, so functions on the contract are marked
with this decorator and ``repro check`` audits their bodies statically
(rules RC201–RC204: no closures, no comprehension temporaries in
loops, no string formatting outside ``raise``, no repeated deep
attribute chains in loops). The dynamic complement is the perf fence in
``benchmarks/test_fastpath_perf.py``.

The marker is free at runtime: it sets one attribute at import time and
returns the same function object — no wrapper, no indirection, nothing
on the call path.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

#: Attribute set on marked functions (introspectable by tests/tools).
HOT_PATH_ATTR = "__repro_hot_path__"


def hot_path(fn: F) -> F:
    """Mark ``fn`` as simulation-hot-path code.

    Marked functions are statically audited by ``repro check``'s RC2xx
    rule pack; the decorator itself adds zero call overhead.
    """
    setattr(fn, HOT_PATH_ATTR, True)
    return fn


def is_hot_path(fn: Callable[..., Any]) -> bool:
    """Whether ``fn`` carries the hot-path marker."""
    return getattr(fn, HOT_PATH_ATTR, False) is True
