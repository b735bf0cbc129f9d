"""Observability layer: event tracing and trace replay.

Two cooperating pieces (see ``docs/OBSERVABILITY.md``):

* :class:`SlotObserver` / :class:`PacketEvent` — the read-only event
  protocol a :class:`~repro.core.switch.SharedMemorySwitch` drives when
  an observer is attached (one ``is None`` check per arrival when not).
* :class:`JsonlTraceWriter` / :class:`TraceReplayer` — record a run as
  a versioned JSONL event stream; re-derive its metrics purely from the
  stream and check conservation laws, byte-equal to the live run.

Both are imported when one of their names is first read; a run that
attaches no observer loads neither.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.observer import PacketEvent, SlotObserver
    from repro.obs.replay import (
        ConservationError,
        ReplayResult,
        TraceReplayer,
        replay_trace,
    )
    from repro.obs.trace_io import (
        EVENT_SCHEMA_VERSION,
        JsonlTraceWriter,
        read_events,
        record_trace,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "observer": ("PacketEvent", "SlotObserver"),
        "replay": (
            "ConservationError",
            "ReplayResult",
            "TraceReplayer",
            "replay_trace",
        ),
        "trace_io": (
            "EVENT_SCHEMA_VERSION",
            "JsonlTraceWriter",
            "read_events",
            "record_trace",
        ),
    },
)
