"""Arrival traces: per-slot packet sequences fed to switches.

A :class:`Trace` is the linearization of the paper's arrival model: in each
time slot a burst of packets arrives, ordered by input port (the model
serves input ports in a fixed order, and bursts are unrestricted in size).
Traces are plain data — they can be generated (synthetic MMPP workloads,
adversarial constructions), saved/loaded as JSON lines, concatenated, and
replayed against any number of systems.

Packets inside a trace are *templates*: the switch admits fresh copies, so
a trace may be replayed repeatedly without state leaking between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import TraceError
from repro.core.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traffic.columnar import ColumnarTrace


@dataclass(frozen=True, slots=True)
class PortStateEvent:
    """A mid-run port admin-state change (churn).

    Applied by the run loop at the *start* of its slot, before that
    slot's arrivals: a down event deterministically reclaims the port's
    buffered packets (accounted as flushed), an up event restores
    admissibility. Events within one slot apply in list order.
    """

    port: int
    up: bool


@dataclass
class Trace:
    """A sequence of per-slot arrival bursts.

    ``port_events`` optionally carries port churn: a mapping from slot
    index to the :class:`PortStateEvent` list applied at that slot's
    start. Static traces (the common case) leave it empty, and every
    consumer treats an absent/empty mapping as "no churn".

    :meth:`to_columnar` caches the trace's column form; the mutators
    below drop that cache, so grow a trace through them rather than by
    editing ``slots`` in place.
    """

    slots: List[List[Packet]] = field(default_factory=list)
    port_events: Dict[int, List[PortStateEvent]] = field(default_factory=dict)
    _columnar: Optional["ColumnarTrace"] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def append_slot(self, packets: Sequence[Packet] = ()) -> None:
        """Append one slot with the given (possibly empty) burst."""
        self._columnar = None
        self.slots.append(list(packets))

    def add_packet(self, slot: int, packet: Packet) -> None:
        """Add a packet to ``slot``, growing the trace as needed."""
        self._columnar = None
        while len(self.slots) <= slot:
            self.slots.append([])
        self.slots[slot].append(packet)

    def add_port_event(self, slot: int, port: int, up: bool) -> None:
        """Record a churn event at ``slot``, growing the trace as needed."""
        self._columnar = None
        while len(self.slots) <= slot:
            self.slots.append([])
        self.port_events.setdefault(slot, []).append(
            PortStateEvent(port=port, up=up)
        )

    def extend(self, other: "Trace") -> None:
        """Append another trace's slots (and churn events) after this
        one's; the other trace's event slots shift accordingly."""
        self._columnar = None
        offset = len(self.slots)
        for packets in other.slots:
            self.slots.append(list(packets))
        for slot, events in other.port_events.items():
            self.port_events.setdefault(offset + slot, []).extend(events)

    def repeated(self, times: int) -> "Trace":
        """A new trace consisting of this one repeated ``times`` times.

        Packet objects are shared between repetitions (they are templates);
        ``arrival_slot`` metadata refers to the slot within the original
        trace and is informational only.
        """
        if times < 1:
            raise TraceError(f"repeat count must be >= 1, got {times}")
        result = Trace()
        for _ in range(times):
            result.extend(self)
        return result

    def padded(self, extra_slots: int) -> "Trace":
        """A new trace with ``extra_slots`` empty slots appended (drain)."""
        result = Trace(
            [list(p) for p in self.slots],
            {slot: list(events) for slot, events in self.port_events.items()},
        )
        for _ in range(extra_slots):
            result.append_slot()
        return result

    def to_columnar(self) -> "ColumnarTrace":
        """The trace as CSR columns, converted once and cached.

        The mirror of :meth:`ColumnarTrace.to_trace`: the vectorized
        engines replay an object trace through this view, so the
        policies of one sweep cell share a single conversion (and a
        single validation, which the view remembers). The mutators
        above drop the cache.
        """
        view = self._columnar
        if view is None:
            from repro.traffic.columnar import ColumnarTrace

            view = self._columnar = ColumnarTrace.from_trace(self)
        return view

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def total_packets(self) -> int:
        return sum(len(burst) for burst in self.slots)

    def __iter__(self) -> Iterator[List[Packet]]:
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def packets(self) -> Iterator[Packet]:
        """All packets in arrival order."""
        for burst in self.slots:
            yield from burst

    def stats(self) -> Dict[str, float]:
        """Aggregate statistics for logging and experiment records."""
        total = self.total_packets
        works = [p.work for p in self.packets()]
        values = [p.value for p in self.packets()]
        return {
            "n_slots": self.n_slots,
            "total_packets": total,
            "mean_burst": total / self.n_slots if self.n_slots else 0.0,
            "max_work": max(works) if works else 0,
            "total_value": sum(values),
        }

    def per_port_counts(self, n_ports: int) -> List[int]:
        """Arrival counts per destination port."""
        counts = [0] * n_ports
        for packet in self.packets():
            if packet.port >= n_ports:
                raise TraceError(
                    f"packet for port {packet.port} but n_ports={n_ports}"
                )
            counts[packet.port] += 1
        return counts

    def validate_for(self, config: SwitchConfig) -> None:
        """Raise :class:`TraceError` unless the trace fits the switch.

        Checks port ranges, and the Section III constraint that packets to
        port ``i`` require exactly ``w_i`` cycles (FIFO discipline only).
        """
        for burst in self.slots:
            for packet in burst:
                if not 0 <= packet.port < config.n_ports:
                    raise TraceError(
                        f"packet port {packet.port} out of range "
                        f"0..{config.n_ports - 1}"
                    )
                if (
                    config.discipline is QueueDiscipline.FIFO
                    and packet.work != config.work_of(packet.port)
                ):
                    raise TraceError(
                        f"packet work {packet.work} != w_{packet.port}="
                        f"{config.work_of(packet.port)}"
                    )
        for slot, events in self.port_events.items():
            if not 0 <= slot < len(self.slots):
                raise TraceError(
                    f"port event at slot {slot} outside trace of "
                    f"{len(self.slots)} slots"
                )
            for event in events:
                if not 0 <= event.port < config.n_ports:
                    raise TraceError(
                        f"port event for port {event.port} out of range "
                        f"0..{config.n_ports - 1}"
                    )

    # ------------------------------------------------------------------
    # Serialization (JSON lines, one slot per line)
    # ------------------------------------------------------------------

    def dump_jsonl(self, path: Path | str) -> None:
        """Write the trace as JSON lines: one array of packet dicts per slot.

        The file is published atomically (tmp + fsync + rename): a
        process killed mid-dump leaves the previous trace or none, so a
        saved trace can never be half a trace.
        """
        # Lazy import keeps repro.traffic importable without the
        # resilience package on the path (and this is a cold path).
        from repro.resilience.atomic import atomic_write_text

        rows = []
        for burst in self.slots:
            row = [
                {
                    "port": p.port,
                    "work": p.work,
                    "value": p.value,
                    **(
                        {"opt": p.opt_accept}
                        if p.opt_accept is not None
                        else {}
                    ),
                }
                for p in burst
            ]
            rows.append(json.dumps(row))
        if self.port_events:
            # Churn rides as one trailing JSON *object* line; slot lines
            # are arrays, so the loader distinguishes them by type.
            # Static traces keep the original format byte-for-byte.
            rows.append(
                json.dumps(
                    {
                        "port_events": {
                            str(slot): [[e.port, e.up] for e in events]
                            for slot, events in sorted(
                                self.port_events.items()
                            )
                        }
                    }
                )
            )
        atomic_write_text(path, "\n".join(rows) + "\n" if rows else "")

    @classmethod
    def load_jsonl(cls, path: Path | str) -> "Trace":
        """Read a trace written by :meth:`dump_jsonl`."""
        path = Path(path)
        trace = cls()
        with path.open("r", encoding="utf-8") as handle:
            for slot, line in enumerate(handle):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(f"bad trace line {slot}: {exc}") from exc
                if isinstance(row, dict):
                    for slot_key, events in row.get(
                        "port_events", {}
                    ).items():
                        for port, up in events:
                            trace.add_port_event(int(slot_key), port, bool(up))
                    continue
                burst = [
                    Packet(
                        port=item["port"],
                        work=item.get("work", 1),
                        value=item.get("value", 1.0),
                        arrival_slot=slot,
                        opt_accept=item.get("opt"),
                    )
                    for item in row
                ]
                trace.append_slot(burst)
        return trace


def burst(
    slot: int,
    port: int,
    count: int,
    work: int = 1,
    value: float = 1.0,
    opt_accept_first: int = 0,
) -> List[Packet]:
    """Build ``count`` identical packets, tagging the first
    ``opt_accept_first`` of them as accepted by the scripted OPT.

    The paper's notation ``h x [w]`` (a burst of ``h`` packets with work
    ``w``) maps directly onto this helper, which keeps the adversarial
    constructions readable.
    """
    if count < 0 or opt_accept_first < 0:
        raise TraceError("burst counts must be non-negative")
    if opt_accept_first > count:
        raise TraceError(
            f"cannot tag {opt_accept_first} of {count} packets as accepted"
        )
    packets = []
    for idx in range(count):
        packets.append(
            Packet(
                port=port,
                work=work,
                value=value,
                arrival_slot=slot,
                opt_accept=idx < opt_accept_first,
            )
        )
    return packets
