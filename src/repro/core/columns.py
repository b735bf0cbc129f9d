"""Column layout helpers and the numpy backend seam.

The vectorized engine (:mod:`repro.core.columnar`) keeps switch state as
struct-of-arrays columns indexed by output port instead of per-packet
objects. Every engine column is a plain Python list: the hot arrival
and transmission loops touch one element at a time, and CPython list
indexing beats ndarray scalar access by ~5x.
:func:`scalar_int_column` / :func:`scalar_float_column` build them so
the layout is defined in one place.

The backend seam decides whether trace columns are handed out as numpy
arrays. Its one consumer is :meth:`repro.traffic.columnar.ColumnarTrace.
array_columns`, which gives the vectorized OPT surrogates
(:mod:`repro.opt.vectorized`) a trace's cached ndarray view. Under the
``python`` backend it returns ``None`` and the surrogates read the list
columns instead.

Backend selection happens once per process, controlled by the
``REPRO_VECTOR_BACKEND`` environment variable: ``auto`` (default; numpy
when importable), ``numpy`` (require numpy, raise otherwise), or
``python`` (never import numpy).
"""

from __future__ import annotations

import os
from typing import Any, List

from repro.core.errors import ConfigError

#: Environment variable controlling backend selection.
BACKEND_ENV = "REPRO_VECTOR_BACKEND"

_VALID = ("auto", "numpy", "python")

_backend: str | None = None
_np: Any = None


def _resolve() -> str:
    raw = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if raw not in _VALID:
        raise ConfigError(
            f"{BACKEND_ENV}={raw!r} invalid; expected one of {_VALID}"
        )
    if raw == "python":
        return "python"
    global _np
    try:
        import numpy
    except ImportError:
        if raw == "numpy":
            raise ConfigError(
                f"{BACKEND_ENV}=numpy but numpy is not importable"
            ) from None
        return "python"
    _np = numpy
    return "numpy"


def backend() -> str:
    """The resolved column backend: ``"numpy"`` or ``"python"``.

    Resolved lazily on first use and cached for the process lifetime, so
    tests may set ``REPRO_VECTOR_BACKEND`` before touching the engine.
    """
    global _backend
    if _backend is None:
        _backend = _resolve()
    return _backend


def reset_backend_cache() -> None:
    """Forget the cached backend choice (test hook)."""
    global _backend, _np
    _backend = None
    _np = None


def numpy_module() -> Any:
    """The numpy module when the backend is ``numpy``, else ``None``."""
    backend()
    return _np


def scalar_int_column(n: int, fill: int = 0) -> List[int]:
    """A list-backed integer column for scalar-hot access patterns."""
    return [fill] * n


def scalar_float_column(n: int, fill: float = 0.0) -> List[float]:
    """A list-backed float column for scalar-hot access patterns."""
    return [fill] * n
