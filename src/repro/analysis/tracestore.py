"""Cross-cell trace reuse: a plan-scoped store of traces.

Many sweep cells share one arrival trace. A Fig. 5 buffer sweep (panels
2, 5, 8) varies only ``B``, which no MMPP generator consumes — every
``B`` value at a given seed replays byte-identical arrivals. Without
reuse the sweep regenerates that trace once per cell; at paper scale
(2*10^6 slots) generation rivals simulation, so a six-value B-sweep
pays the dominant cost six times over.

A :class:`TraceStore` memoizes traces under caller-supplied *content
keys*: strings that encode everything the generator consumed (recipe,
its parameters, the seed) and nothing it ignored. The key contract is
the same as the sweep cache's ``cache_token`` — two cells may share a
key only when their generators provably produce identical packet
streams. Keys are computed per cell by a ``trace_key`` callable (see
:func:`repro.analysis.sweep.run_sweep`); returning ``None`` for a cell
opts it out of reuse.

The store is scoped to one execution plan. It is built with the number
of planned uses of each key, every :meth:`TraceStore.get_or_build`
spends one, and a trace is held only while uses of its key remain — it
is dropped at the last one, so a single-use key (every cell of a
``k``-sweep) is never held at all and peak memory stays that of one
live trace per shared key. A use beyond the plan (a cell retried after
its key's last use) just rebuilds the trace.

Reuse is an execution optimization, never an identity: store and key
appear in **no** cache key, and a sweep
with reuse is ``cmp``-identical to the same sweep regenerating every
trace (pinned by the tier-1 suite, serial and parallel).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Mapping, Optional

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.traffic.trace import Trace

__all__ = ["TraceKeyFn", "TraceStore"]

#: Per-cell content-key function: maps ``(config, value, seed)`` to the
#: trace's content key, or ``None`` to disable reuse for that cell.
TraceKeyFn = Callable[[SwitchConfig, float, int], Optional[str]]


class TraceStore:
    """Use-counted memo of traces for one execution plan.

    ``uses`` maps each content key to the number of
    :meth:`get_or_build` calls the plan will make with it; keys it does
    not name count as single-use.
    """

    def __init__(self, uses: Mapping[str, int]) -> None:
        self._uses = Counter(uses)
        self._held: Dict[str, Trace] = {}

    def __len__(self) -> int:
        """Traces held right now."""
        return len(self._held)

    def get_or_build(self, key: str, builder: Callable[[], Trace]) -> Trace:
        """Spend one use of ``key``; return its trace, building it if
        it is not held."""
        if not key:
            raise ConfigError("trace store key must be a non-empty string")
        trace = self._held.pop(key, None)
        if trace is None:
            trace = builder()
        self._uses[key] -= 1
        if self._uses[key] > 0:
            self._held[key] = trace
        else:
            del self._uses[key]
        return trace
