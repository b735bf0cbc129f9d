"""Flat per-port column storage for the vectorized batch-slot engine.

The vectorized engine (:mod:`repro.core.columnar`) keeps switch state as
struct-of-arrays columns indexed by output port instead of per-packet
objects. Two backends provide the columns:

* ``numpy`` — ``int64``/``float64`` ndarrays; enables whole-array
  transmission updates (``head_residual -= active_mask``).
* ``python`` — :class:`array.array` typecodes ``'q'``/``'d'``; a pure
  stdlib fallback used when numpy is unavailable (or forced via
  ``REPRO_VECTOR_BACKEND=python``), with a per-port loop in the
  transmission phase.

Columns whose access pattern is scalar-per-arrival (queue lengths, value
totals, cached victim codes) are deliberately plain Python lists —
CPython list indexing beats ndarray scalar access by ~5x, and the hot
arrival loops touch one element at a time. Only columns consumed by
whole-array operations (head residuals, the active-port mask) use the
backend arrays. :func:`scalar_int_column` / :func:`scalar_float_column`
build the list-backed columns so the layout is defined in one place.

Backend selection happens once per process, controlled by the
``REPRO_VECTOR_BACKEND`` environment variable: ``auto`` (default; numpy
when importable), ``numpy`` (require numpy, raise otherwise), or
``python`` (never import numpy).
"""

from __future__ import annotations

import os
from array import array
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


def int_column(n: int, fill: int = 0) -> Any:
    """A length-``n`` signed 64-bit column on the active backend."""
    if backend() == "numpy":
        return _np.full(n, fill, dtype=_np.int64)
    return array("q", [fill]) * n if n else array("q")


def float_column(n: int, fill: float = 0.0) -> Any:
    """A length-``n`` float64 column on the active backend."""
    if backend() == "numpy":
        return _np.full(n, fill, dtype=_np.float64)
    return array("d", [fill]) * n if n else array("d")


def scalar_int_column(n: int, fill: int = 0) -> List[int]:
    """A list-backed integer column for scalar-hot access patterns."""
    return [fill] * n


def scalar_float_column(n: int, fill: float = 0.0) -> List[float]:
    """A list-backed float column for scalar-hot access patterns."""
    return [fill] * n


def column_list(col: Any) -> List[Any]:
    """Materialize any column as a plain list (for invariant checks)."""
    return [col[i] for i in range(len(col))]
