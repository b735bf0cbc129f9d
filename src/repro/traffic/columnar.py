"""Columnar arrival traces: CSR-style per-slot packet columns.

A :class:`ColumnarTrace` stores the same arrival sequence as
:class:`repro.traffic.trace.Trace` without one object per packet: a slot
``offsets`` array (CSR row pointers, length ``n_slots + 1``) plus flat
``ports`` / ``works`` / ``values`` columns, and optional ``opts`` /
``arrivals`` columns for the rare traces that carry scripted-OPT tags or
out-of-line arrival slots (repeated adversarial rounds). Slot ``s``'s
burst is the column span ``offsets[s]:offsets[s + 1]``.

The column representation is plain Python lists, the fastest thing
the ingestion loops (:meth:`repro.core.columnar.VectorizedSwitch.
run_span`, the vectorized OPT surrogates) can index packet by packet.
Arrays pay only in the generators' batched numpy sampling, whose
per-slot :data:`Chunk` arrays :meth:`ColumnarTrace.from_chunks`
concatenates into those lists.

The synthetic generators (:mod:`repro.traffic.workloads`,
:func:`repro.traffic.patterns.poisson_workload` /
:func:`~repro.traffic.patterns.saturating_workload`) return this shape;
their packet streams are pinned by absolute trace digests
(``tests/test_trace_columnar.py`` and the per-panel ``trace_sha256`` of
``repro golden``).

For consumers that need objects (the reference engine and the other
systems without a column path) :meth:`ColumnarTrace.to_trace`
materializes the packets lazily and caches the result, so replaying one
trace through many reference systems pays materialization once. The
other direction, :meth:`Trace.to_columnar`, caches this shape on an
object trace for the vectorized engines.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

try:  # pure-stdlib installs can still import the module
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import TraceError
from repro.core.packet import Packet
from repro.traffic.trace import PortStateEvent, Trace

__all__ = ["Chunk", "ColumnarTrace"]

#: One slot's packets as equal-length numpy columns: int64 ports,
#: int64 works, float64 values, in arrival order. The generators'
#: column cores yield one per slot.
Chunk = Tuple[Any, Any, Any]


class ColumnarTrace:
    """A trace as flat CSR columns instead of per-packet objects.

    Parameters
    ----------
    offsets:
        CSR row pointers: ``offsets[s]`` is the column index of slot
        ``s``'s first packet; length ``n_slots + 1``; ``offsets[-1]``
        is the total packet count.
    ports / works / values:
        One entry per packet, in arrival order.
    opts:
        Optional scripted-OPT tags per packet: ``-1`` for untagged
        (``opt_accept is None``), ``0``/``1`` for tagged. ``None`` when
        no packet is tagged (the common case).
    arrivals:
        Optional explicit ``arrival_slot`` per packet. ``None`` means
        every packet's arrival slot is its own slot index (true for all
        generated workloads; repeated adversarial rounds reuse
        within-round slots and need the explicit column).
    port_events:
        Optional port churn, same shape as :attr:`Trace.port_events`
        (slot -> ordered :class:`PortStateEvent` list). Empty for the
        static traces all generators emit.
    """

    __slots__ = (
        "offsets",
        "ports",
        "works",
        "values",
        "opts",
        "arrivals",
        "port_events",
        "validated",
        "_trace",
    )

    def __init__(
        self,
        offsets: List[int],
        ports: List[int],
        works: List[int],
        values: List[float],
        opts: Optional[List[int]] = None,
        arrivals: Optional[List[int]] = None,
        port_events: Optional[Dict[int, List[PortStateEvent]]] = None,
    ) -> None:
        if not offsets or offsets[0] != 0:
            raise TraceError("offsets must start at 0")
        total = offsets[-1]
        if not (len(ports) == len(works) == len(values) == total):
            raise TraceError(
                f"column lengths {len(ports)}/{len(works)}/{len(values)} "
                f"do not match offsets[-1]={total}"
            )
        for extra in (opts, arrivals):
            if extra is not None and len(extra) != total:
                raise TraceError(
                    f"optional column length {len(extra)} != {total}"
                )
        self.offsets = offsets
        self.ports = ports
        self.works = works
        self.values = values
        self.opts = opts
        self.arrivals = arrivals
        self.port_events: Dict[int, List[PortStateEvent]] = (
            port_events if port_events is not None else {}
        )
        #: Switch shapes these columns passed an engine's validation
        #: for (see ``VectorizedSwitch.bind_columns``): the other
        #: replays of the trace skip the check, and the memo dies with
        #: the trace.
        self.validated: Set[Tuple[Any, ...]] = set()
        self._trace: Optional[Trace] = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_packets(self) -> int:
        return self.offsets[-1]

    def __len__(self) -> int:
        return self.n_slots

    def slot_bounds(self, slot: int) -> Tuple[int, int]:
        """Column span ``[lo, hi)`` of ``slot``'s burst."""
        return self.offsets[slot], self.offsets[slot + 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("ColumnarTrace is mutable column data; unhashable")

    def _canonical(
        self,
    ) -> Tuple[
        List[int],
        List[int],
        List[int],
        List[float],
        List[int],
        List[int],
        Dict[int, List[PortStateEvent]],
    ]:
        total = self.total_packets
        opts = self.opts if self.opts is not None else [-1] * total
        if self.arrivals is not None:
            arrivals = self.arrivals
        else:
            arrivals = []
            for slot in range(self.n_slots):
                arrivals.extend(
                    [slot] * (self.offsets[slot + 1] - self.offsets[slot])
                )
        return (
            self.offsets,
            self.ports,
            self.works,
            self.values,
            opts,
            arrivals,
            self.port_events,
        )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------

    @classmethod
    def from_chunks(cls, chunks: Iterable[Chunk]) -> "ColumnarTrace":
        """Concatenate per-slot column chunks, one chunk per slot."""
        offsets = [0]
        kept: List[Chunk] = []
        total = 0
        for chunk in chunks:
            if len(chunk[0]):
                kept.append(chunk)
                total += len(chunk[0])
            offsets.append(total)
        if kept:
            arrays = tuple(np.concatenate(column) for column in zip(*kept))
        else:
            arrays = (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.float64),
            )
        ports, works, values = arrays
        return cls(offsets, ports.tolist(), works.tolist(), values.tolist())

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Convert an object trace; packet order and content preserved.

        The ``arrivals`` column is emitted only when some packet's
        ``arrival_slot`` differs from its slot index, and ``opts`` only
        when some packet carries a scripted-OPT tag — so conversion
        round-trips normalize to the compact form.
        """
        offsets = [0]
        ports: List[int] = []
        works: List[int] = []
        values: List[float] = []
        opts: List[int] = []
        arrivals: List[int] = []
        tagged = False
        out_of_line = False
        for slot, burst in enumerate(trace.slots):
            for packet in burst:
                ports.append(packet.port)
                works.append(packet.work)
                values.append(packet.value)
                if packet.opt_accept is None:
                    opts.append(-1)
                else:
                    tagged = True
                    opts.append(1 if packet.opt_accept else 0)
                arrivals.append(packet.arrival_slot)
                if packet.arrival_slot != slot:
                    out_of_line = True
            offsets.append(len(ports))
        return cls(
            offsets,
            ports,
            works,
            values,
            opts if tagged else None,
            arrivals if out_of_line else None,
            (
                {s: list(ev) for s, ev in trace.port_events.items()}
                if trace.port_events
                else None
            ),
        )

    def to_trace(self) -> Trace:
        """Materialize (and cache) the equivalent object trace.

        The cached trace is shared between callers — packets are
        templates (the engines admit fresh copies), so sharing is safe
        exactly as it is for any other replayed :class:`Trace`.
        """
        if self._trace is not None:
            return self._trace
        offsets = self.offsets
        n_slots = self.n_slots
        arrivals = self.arrivals
        if arrivals is None:
            arrivals = [
                slot
                for slot in range(n_slots)
                for _ in range(offsets[slot + 1] - offsets[slot])
            ]
        opts: List[Optional[bool]] = (
            [None] * self.total_packets
            if self.opts is None
            else [None if tag < 0 else bool(tag) for tag in self.opts]
        )
        packets = list(
            map(Packet, self.ports, self.works, self.values, arrivals, opts)
        )
        trace = Trace(
            [packets[offsets[s]:offsets[s + 1]] for s in range(n_slots)]
        )
        for slot, events in self.port_events.items():
            trace.port_events[slot] = list(events)
        self._trace = trace
        return trace

    @property
    def slots(self) -> List[List[Packet]]:
        """Materialized per-slot bursts (object-engine compatibility)."""
        return self.to_trace().slots

    def __iter__(self) -> Iterator[List[Packet]]:
        """Per-slot bursts, like iterating a :class:`Trace` (materializes)."""
        return iter(self.slots)

    def packets(self) -> Iterator[Packet]:
        """All packets in arrival order (materializes)."""
        return self.to_trace().packets()

    # ------------------------------------------------------------------
    # Inspection / validation (Trace-compatible)
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Aggregate statistics; same keys as :meth:`Trace.stats`."""
        total = self.total_packets
        return {
            "n_slots": self.n_slots,
            "total_packets": total,
            "mean_burst": total / self.n_slots if self.n_slots else 0.0,
            "max_work": max(self.works) if total else 0,
            "total_value": sum(self.values),
        }

    def per_port_counts(self, n_ports: int) -> List[int]:
        """Arrival counts per destination port."""
        counts = [0] * n_ports
        for port in self.ports:
            if port >= n_ports:
                raise TraceError(
                    f"packet for port {port} but n_ports={n_ports}"
                )
            counts[port] += 1
        return counts

    def validate_for(self, config: SwitchConfig) -> None:
        """Raise :class:`TraceError` unless the trace fits the switch.

        Same contract as :meth:`Trace.validate_for`, over columns: port
        ranges, and the Section III per-port work requirement under the
        FIFO discipline.
        """
        n_ports = config.n_ports
        fifo = config.discipline is QueueDiscipline.FIFO
        works = config.works if fifo else None
        for port, work in zip(self.ports, self.works):
            if not 0 <= port < n_ports:
                raise TraceError(
                    f"packet port {port} out of range 0..{n_ports - 1}"
                )
            if works is not None and work != works[port]:
                raise TraceError(
                    f"packet work {work} != w_{port}={works[port]}"
                )
        for slot, events in self.port_events.items():
            if not 0 <= slot < self.n_slots:
                raise TraceError(
                    f"port event at slot {slot} outside trace of "
                    f"{self.n_slots} slots"
                )
            for event in events:
                if not 0 <= event.port < n_ports:
                    raise TraceError(
                        f"port event for port {event.port} out of range "
                        f"0..{n_ports - 1}"
                    )
