"""JSONL event traces: the serialized form of the observer stream.

A recorded run is a text file of one JSON object per line (schema
version :data:`EVENT_SCHEMA_VERSION`; the full grammar is documented in
``docs/OBSERVABILITY.md``). The stream is framed per slot:

``header`` → (``slot`` … events … ``slot_end`` | ``idle`` | ``flush``
| ``pstate``)* → ``end``

* ``header`` carries the schema version, the switch configuration
  digest (ports, buffer size, speedup, discipline) and free-form
  context (panel name, policy, seed).
* ``slot`` / ``slot_end`` frame one simulated slot; ``arr`` / ``dec`` /
  ``push`` / ``tx`` lines appear between them in engine order.
* ``idle`` records a fast-forwarded empty-buffer stretch *explicitly* —
  a trace never silently skips slots, so replay can account for every
  slot of the clock.
* ``pstate`` (schema >= 2) records a port admin-state change applied
  between slot frames; a down event carries the count of packets
  deterministically reclaimed (flushed) from that port's queue.
* ``end`` closes the stream and embeds the live
  :meth:`~repro.core.metrics.SwitchMetrics.snapshot` of the recording
  run, which is what makes every trace a self-checking artifact: the
  replayer re-derives metrics from the events alone and compares
  byte-for-byte (see :mod:`repro.obs.replay`).

Floats are serialized with :func:`json.dumps`, whose ``repr``-based
formatting round-trips exactly — byte-equality of replayed metrics is
therefore a meaningful contract, not an approximation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.errors import TraceError
from repro.core.metrics import SwitchMetrics
from repro.obs.observer import PacketEvent, SlotObserver
from repro.resilience.atomic import tmp_path_for

if TYPE_CHECKING:
    from repro.core.config import SwitchConfig
    from repro.policies.base import Policy
    from repro.traffic.trace import Trace

#: Version of the JSONL event grammar; bumped on incompatible changes.
#: Version 2 added the ``pstate`` port-churn event; version-1 traces
#: (which cannot contain one) remain readable.
EVENT_SCHEMA_VERSION = 2

#: Schema versions :func:`read_events` accepts.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

_Sink = Union[str, Path, IO[str]]


def _dumps(obj: Mapping[str, object]) -> str:
    return json.dumps(obj, separators=(",", ":"))


class JsonlTraceWriter(SlotObserver):
    """A :class:`SlotObserver` that streams events to a JSONL sink.

    ``sink`` may be a path (opened and owned by the writer) or any
    text-mode file object (ownership stays with the caller). The header
    line is written on construction; call :meth:`write_end` (or use the
    writer as a context manager around a run and call it before exit)
    to close the stream with the recording run's metrics snapshot.

    Path sinks are published *atomically*: events stream to a sibling
    temp file, which is renamed onto the target only when the stream
    was properly terminated with :meth:`write_end`. A recording that
    crashes, is killed, or calls :meth:`abort` leaves no file at the
    target path — a trace on disk is therefore always complete
    (header through ``end``), never torn. File-object sinks keep the
    caller's semantics untouched.
    """

    def __init__(
        self,
        sink: _Sink,
        *,
        header: Optional[Mapping[str, object]] = None,
    ) -> None:
        self._final_path: Optional[Path] = None
        self._tmp_path: Optional[Path] = None
        if isinstance(sink, (str, Path)):
            self._final_path = Path(sink)
            self._final_path.parent.mkdir(parents=True, exist_ok=True)
            self._tmp_path = tmp_path_for(self._final_path)
            # repro: allow[RC403] -- streams to the atomic module's sibling tmp path; close() publishes via os.replace, abort() discards
            self._handle: IO[str] = self._tmp_path.open(
                "w", encoding="utf-8"
            )
            self._owns_handle = True
        else:
            self._handle = sink
            self._owns_handle = False
        self._closed = False
        self._ended = False
        self.events_written = 0
        head: Dict[str, object] = {
            "t": "header",
            "schema": EVENT_SCHEMA_VERSION,
        }
        if header:
            head.update(header)
        self._write(head)

    # -- plumbing ---------------------------------------------------------

    def _write(self, obj: Mapping[str, object]) -> None:
        self._handle.write(_dumps(obj) + "\n")
        self.events_written += 1

    def write_end(self, metrics: Optional[SwitchMetrics] = None) -> None:
        """Write the ``end`` line (with the live metrics snapshot when
        given) and close the stream; idempotent."""
        if self._closed:
            return
        tail: Dict[str, object] = {"t": "end"}
        if metrics is not None:
            tail["metrics"] = metrics.snapshot()
        self._write(tail)
        self._ended = True
        self.close()

    def close(self) -> None:
        """Close the stream; for path sinks, publish or discard.

        A terminated stream (``write_end`` was called) is fsynced and
        renamed onto the target path; an unterminated one is discarded,
        so the target never holds a torn trace. Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if not self._owns_handle:
            self._handle.flush()
            return
        try:
            if self._ended:
                self._handle.flush()
                os.fsync(self._handle.fileno())
        finally:
            self._handle.close()
        assert self._tmp_path is not None and self._final_path is not None
        if self._ended:
            os.replace(self._tmp_path, self._final_path)
        else:
            self._tmp_path.unlink(missing_ok=True)

    def abort(self) -> None:
        """Discard the recording: close the stream without publishing."""
        self._ended = False
        self.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- observer hooks ---------------------------------------------------

    def on_slot_begin(self, slot: int, n_arrivals: int) -> None:
        self._write({"t": "slot", "slot": slot, "arrivals": n_arrivals})

    def on_arrival(self, slot: int, packet: PacketEvent) -> None:
        self._write(
            {
                "t": "arr",
                "slot": slot,
                "port": packet.port,
                "work": packet.work,
                "value": packet.value,
                "aslot": packet.arrival_slot,
            }
        )

    def on_decision(
        self, slot: int, action: str, victim_port: Optional[int]
    ) -> None:
        line: Dict[str, object] = {"t": "dec", "slot": slot, "action": action}
        if victim_port is not None:
            line["victim"] = victim_port
        self._write(line)

    def on_push_out(self, slot: int, victim: PacketEvent) -> None:
        self._write(
            {
                "t": "push",
                "slot": slot,
                "port": victim.port,
                "value": victim.value,
                "residual": victim.residual,
            }
        )

    def on_transmit(self, slot: int, packet: PacketEvent) -> None:
        self._write(
            {
                "t": "tx",
                "slot": slot,
                "port": packet.port,
                "value": packet.value,
                "aslot": packet.arrival_slot,
            }
        )

    def on_flush(
        self, slot: int, dropped: Tuple[PacketEvent, ...]
    ) -> None:
        ports = [0] * (max((p.port for p in dropped), default=-1) + 1)
        for packet in dropped:
            ports[packet.port] += 1
        self._write(
            {"t": "flush", "slot": slot, "count": len(dropped), "ports": ports}
        )

    def on_port_state(
        self, slot: int, port: int, up: bool, reclaimed: Tuple[PacketEvent, ...]
    ) -> None:
        self._write(
            {
                "t": "pstate",
                "slot": slot,
                "port": port,
                "up": bool(up),
                "count": len(reclaimed),
            }
        )

    def on_idle(self, slot: int, n_slots: int) -> None:
        self._write({"t": "idle", "slot": slot, "n": n_slots})

    def on_slot_end(self, slot: int, occupancy: int) -> None:
        self._write({"t": "slot_end", "slot": slot, "occ": occupancy})


def read_events(source: _Sink) -> Iterator[Dict[str, object]]:
    """Yield event dicts from a JSONL trace, validating basic shape.

    Raises :class:`~repro.core.errors.TraceError` on malformed lines,
    missing/duplicate headers, or an unsupported schema version.
    """
    if isinstance(source, (str, Path)):
        handle: IO[str] = Path(source).open("r", encoding="utf-8")
        owns = True
    else:
        handle = source
        owns = False
    try:
        saw_header = False
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"bad event-trace line {lineno}: {exc}"
                ) from exc
            if not isinstance(event, dict) or "t" not in event:
                raise TraceError(
                    f"event-trace line {lineno} is not an event object"
                )
            if event["t"] == "header":
                if saw_header:
                    raise TraceError(
                        f"duplicate header at line {lineno}"
                    )
                saw_header = True
                schema = event.get("schema")
                if schema not in SUPPORTED_SCHEMA_VERSIONS:
                    raise TraceError(
                        f"event trace has schema {schema!r}, this reader "
                        f"supports {SUPPORTED_SCHEMA_VERSIONS}"
                    )
            elif not saw_header:
                raise TraceError(
                    "event trace does not start with a header line"
                )
            yield event
        if not saw_header:
            raise TraceError("event trace is empty (no header line)")
    finally:
        if owns:
            handle.close()


def record_trace(
    policy: "Policy",
    trace: "Trace",
    config: "SwitchConfig",
    sink: _Sink,
    *,
    flush_every: Optional[int] = None,
    drain_slots: int = 0,
    header: Optional[Mapping[str, object]] = None,
) -> SwitchMetrics:
    """Run ``policy`` over ``trace`` while recording a JSONL event trace.

    Convenience glue used by ``repro trace`` and the replay test suite:
    builds a :class:`~repro.analysis.competitive.PolicySystem` with the
    writer attached, drives it through
    :func:`~repro.analysis.competitive.run_system`, and closes the
    stream with the live metrics snapshot. Returns the live metrics so
    callers can compare against the replayed reconstruction.
    """
    from repro.analysis.competitive import PolicySystem, run_system

    head: Dict[str, object] = {
        "policy": getattr(policy, "name", type(policy).__name__),
        "n_ports": config.n_ports,
        "buffer_size": config.buffer_size,
        "speedup": config.speedup,
        "discipline": config.discipline.value,
    }
    if header:
        head.update(header)
    writer = JsonlTraceWriter(sink, header=head)
    try:
        system = PolicySystem(config, policy)
        metrics = run_system(
            system,
            trace,
            flush_every=flush_every,
            drain_slots=drain_slots,
            observer=writer,
        )
        writer.write_end(metrics)
    except BaseException:
        # A failed recording publishes nothing: the sink path either
        # keeps its previous contents or stays absent.
        writer.abort()
        raise
    finally:
        writer.close()
    return metrics
