"""Arrival traces: per-slot packet bursts fed to switches.

A :class:`Trace` is the linearization of the paper's arrival model: in each
time slot a burst of packets arrives, ordered by input port (the model
serves input ports in a fixed order, and bursts are unrestricted in size).
Traces are plain data — they can be generated (synthetic MMPP workloads,
adversarial constructions), saved/loaded as JSON lines, concatenated, and
replayed against any number of systems.

A trace is stored as CSR columns, one entry per packet: a slot
``offsets`` list (row pointers, length ``n_slots + 1``) plus flat
``ports`` / ``works`` / ``values`` columns, and optional ``opts`` /
``arrivals`` columns for the traces that carry scripted-OPT tags or
out-of-line arrival slots (repeated adversarial rounds). Slot ``s``'s
burst is the column span ``offsets[s]:offsets[s + 1]``. The columns are
plain Python lists, the fastest thing the ingestion loops
(:meth:`repro.core.columnar.VectorizedSwitch.run_span`, the vectorized
OPT surrogates) can index packet by packet.

There are two ways to build one. The synthetic generators' chunk
iterators yield one numpy :data:`Chunk` per slot, which
:meth:`Trace.from_chunks` concatenates (the only part of this module
that needs numpy). The hand-built constructions grow a trace through
the builder methods (:meth:`~Trace.append_slot`,
:meth:`~Trace.add_port_event`, :meth:`~Trace.extend`, ...), which only
ever append to the columns.

A long run is replayed in *windows*: :meth:`Trace.from_chunks` with the
window's first slot, or :meth:`Trace.window` on a built trace, makes a
trace of consecutive slots that keeps global arrival slots, scripted-OPT
tags and churn events, and
:func:`~repro.analysis.competitive.run_system` continues a system's own
slot clock from one window to the next.

Packet objects are a view: :attr:`Trace.slots`, iteration and
:meth:`Trace.packets` build the per-slot :class:`Packet` lists once and
cache them for the consumers that read objects (the reference engine,
scripted OPT, the bisect surrogate). The packets are *templates*: the
switch admits fresh copies, so a trace may be replayed repeatedly
without state leaking between runs.

The vectorized engine reads one more derived column, the
:class:`RunIndex` (:attr:`Trace.run_index`): per packet, how many
packets remain in its same-port run within its slot, so an arrival
kernel skips a rejected run in one step, and per-port arrival counts
of column spans, from which a span derives its drop ledger. Every
builder method drops the view, the run index and the validation memo,
so grow a trace through them, never by editing the view.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

try:  # pure-stdlib installs can still import and build traces
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import TraceError
from repro.core.packet import Packet

__all__ = [
    "Chunk",
    "PortStateEvent",
    "RUN_CAP",
    "RunIndex",
    "Trace",
    "burst",
    "port_runs",
]

#: One slot's packets as equal-length numpy columns: int64 ports,
#: int64 works, float64 values, in arrival order. The generators'
#: chunk iterators yield one per slot.
Chunk = Tuple[Any, Any, Any]


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


class Trace:
    """A sequence of per-slot arrival bursts, stored as columns.

    Parameters
    ----------
    bursts:
        Per-slot packet bursts; their fields are copied into the
        columns.
    port_events:
        Optional port churn: a mapping from slot index to the
        :class:`PortStateEvent` list applied at that slot's start.
        Static traces (the common case) leave it empty, and every
        consumer treats an empty mapping as "no churn".

    Columns
    -------
    offsets:
        CSR row pointers: ``offsets[s]`` is the column index of slot
        ``s``'s first packet; ``offsets[-1]`` is the packet count.
    ports / works / values:
        One entry per packet, in arrival order.
    opts:
        Scripted-OPT tag per packet, ``-1`` for untagged
        (``opt_accept is None``) and ``0``/``1`` for tagged; ``None``
        while no packet is tagged.
    arrivals:
        Explicit ``arrival_slot`` per packet; ``None`` while every
        packet's arrival slot is its own slot index.
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
        "_slots",
        "_index",
    )

    __hash__ = None  # type: ignore[assignment]  # mutable column data

    def __init__(
        self,
        bursts: Iterable[Sequence[Packet]] = (),
        port_events: Optional[Mapping[int, Sequence[PortStateEvent]]] = None,
    ) -> None:
        self.offsets: List[int] = [0]
        self.ports: List[int] = []
        self.works: List[int] = []
        self.values: List[float] = []
        self.opts: Optional[List[int]] = None
        self.arrivals: Optional[List[int]] = None
        self.port_events: Dict[int, List[PortStateEvent]] = (
            {slot: list(events) for slot, events in port_events.items()}
            if port_events
            else {}
        )
        #: Switch shapes these columns passed an engine's validation
        #: for (see ``VectorizedSwitch.bind_columns``): the other
        #: replays of the trace skip the check. Builder methods clear it.
        self.validated: Set[Tuple[Any, ...]] = set()
        self._slots: Optional[List[List[Packet]]] = None
        self._index: Optional[RunIndex] = None
        for packets in bursts:
            self.append_slot(packets)

    @classmethod
    def from_columns(
        cls,
        offsets: List[int],
        ports: List[int],
        works: List[int],
        values: List[float],
        opts: Optional[List[int]] = None,
        arrivals: Optional[List[int]] = None,
        port_events: Optional[Mapping[int, Sequence[PortStateEvent]]] = None,
    ) -> "Trace":
        """A trace over the given columns (adopted, not copied)."""
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
        trace = cls(port_events=port_events)
        trace.offsets = offsets
        trace.ports = ports
        trace.works = works
        trace.values = values
        trace.opts = opts
        trace.arrivals = arrivals
        return trace

    @classmethod
    def from_chunks(
        cls, chunks: Iterable[Chunk], first_slot: int = 0
    ) -> "Trace":
        """Concatenate per-slot column chunks, one chunk per slot.

        ``first_slot`` is the global slot of the first chunk: a window
        cut from a longer recipe (``islice`` of its chunk iterator)
        keeps its packets' global arrival slots, so a system replaying
        consecutive windows stamps the same arrivals as one replaying
        their concatenation.
        """
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
        return cls.from_columns(
            offsets,
            ports.tolist(),
            works.tolist(),
            values.tolist(),
            arrivals=(
                _global_slots(offsets, first_slot) if first_slot else None
            ),
        )

    def window(self, s0: int, s1: int) -> "Trace":
        """A new trace of the slots ``[s0, s1)``, with their packets'
        arrival slots, scripted-OPT tags and churn events.

        Arrival slots stay global (slot ``s0 + s`` for the window's
        slot ``s`` unless the packet carries its own), so one system
        replaying consecutive windows with :func:`repro.analysis.
        competitive.run_system` replays exactly their concatenation.
        """
        if not 0 <= s0 <= s1 <= self.n_slots:
            raise TraceError(
                f"window [{s0}, {s1}) outside trace of {self.n_slots} slots"
            )
        lo, hi = self.offsets[s0], self.offsets[s1]
        offsets = [end - lo for end in self.offsets[s0:s1 + 1]]
        if self.arrivals is not None:
            arrivals: Optional[List[int]] = self.arrivals[lo:hi]
        else:
            arrivals = _global_slots(offsets, s0) if s0 else None
        return Trace.from_columns(
            offsets,
            self.ports[lo:hi],
            self.works[lo:hi],
            self.values[lo:hi],
            None if self.opts is None else self.opts[lo:hi],
            arrivals,
            {
                slot - s0: events
                for slot, events in self.port_events.items()
                if s0 <= slot < s1
            },
        )

    # ------------------------------------------------------------------
    # Building (every method here drops what was derived from the columns)
    # ------------------------------------------------------------------

    def append_slot(self, packets: Iterable[Packet] = ()) -> None:
        """Append one slot with the given (possibly empty) burst."""
        burst = list(packets)
        tags = [p.opt_accept for p in burst]
        arrived = [p.arrival_slot for p in burst]
        own = [self.n_slots] * len(burst)
        self._append(
            [p.port for p in burst],
            [p.work for p in burst],
            [p.value for p in burst],
            (
                None
                if all(tag is None for tag in tags)
                else [-1 if tag is None else int(tag) for tag in tags]
            ),
            None if arrived == own else arrived,
            own,
        )
        self.offsets.append(len(self.ports))

    def add_port_event(self, slot: int, port: int, up: bool) -> None:
        """Record a churn event at ``slot``, growing the trace as needed."""
        self._grow(slot)
        self.port_events.setdefault(slot, []).append(
            PortStateEvent(port=port, up=up)
        )

    def extend(self, other: "Trace") -> None:
        """Append another trace's slots (and churn events) after this
        one's; the other trace's event slots shift accordingly."""
        shift = self.n_slots
        base = len(self.ports)
        own = _global_slots(other.offsets, shift)
        theirs = (
            other.arrivals
            if other.arrivals is not None
            else _global_slots(other.offsets, 0)
        )
        self._append(
            other.ports,
            other.works,
            other.values,
            other.opts,
            None if theirs == own else theirs,
            own,
        )
        self.offsets.extend(base + end for end in other.offsets[1:])
        for slot, events in list(other.port_events.items()):
            self.port_events.setdefault(shift + slot, []).extend(events)

    def repeated(self, times: int) -> "Trace":
        """A new trace consisting of this one repeated ``times`` times.

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
        result = Trace()
        result.extend(self)
        result._grow(self.n_slots + extra_slots - 1)
        return result

    def _grow(self, slot: int) -> None:
        """Append empty slots until ``slot`` exists."""
        self._touch()
        while len(self.offsets) <= slot + 1:
            self.offsets.append(len(self.ports))

    def _touch(self) -> None:
        """Drop what was derived from the columns: the packet view, the
        run index and the validation memo."""
        self._slots = None
        self._index = None
        self.validated.clear()

    def _append(
        self,
        ports: List[int],
        works: List[int],
        values: List[float],
        opts: Optional[List[int]],
        arrivals: Optional[List[int]],
        own: List[int],
    ) -> None:
        """Append packet columns at the end: columns only ever grow
        there. ``opts`` is ``None`` when none of the packets is tagged,
        ``arrivals`` when each arrives in its own slot, which ``own``
        lists."""
        self._touch()
        if opts is not None and self.opts is None:
            self.opts = [-1] * len(self.ports)
        if self.opts is not None:
            self.opts.extend(opts if opts is not None else [-1] * len(own))
        if arrivals is not None and self.arrivals is None:
            self.arrivals = _global_slots(self.offsets, 0)
        if self.arrivals is not None:
            self.arrivals.extend(arrivals if arrivals is not None else own)
        self.ports.extend(ports)
        self.works.extend(works)
        self.values.extend(values)

    # ------------------------------------------------------------------
    # Inspection
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

    @property
    def slots(self) -> List[List[Packet]]:
        """Per-slot packet bursts, built from the columns on first use
        and cached until the next builder call. Read-only: the trace
        is its columns."""
        view = self._slots
        if view is None:
            offsets = self.offsets
            arrivals = (
                self.arrivals
                if self.arrivals is not None
                else _global_slots(offsets, 0)
            )
            opts: List[Optional[bool]] = (
                [None] * self.total_packets
                if self.opts is None
                else [None if tag < 0 else bool(tag) for tag in self.opts]
            )
            columns = (self.ports, self.works, self.values, arrivals, opts)
            packets = list(map(Packet, *columns))
            view = self._slots = [
                packets[offsets[s]:offsets[s + 1]]
                for s in range(self.n_slots)
            ]
        return view

    @property
    def run_index(self) -> "RunIndex":
        """The same-port run index of the columns (see
        :class:`RunIndex`), built on first use and cached until the
        next builder call."""
        index = self._index
        if index is None:
            index = self._index = RunIndex(self.ports, self.offsets)
        return index

    def __iter__(self) -> Iterator[List[Packet]]:
        return iter(self.slots)

    def packets(self) -> Iterator[Packet]:
        """All packets in arrival order."""
        for burst in self.slots:
            yield from burst

    def __eq__(self, other: object) -> bool:
        """Content equality: same packets in the same slots, same churn."""
        if not isinstance(other, Trace):
            return NotImplemented
        return self._canonical() == other._canonical()

    def _canonical(self) -> Tuple[Any, ...]:
        return (
            self.offsets,
            self.ports,
            self.works,
            self.values,
            self.opts if self.opts is not None else [-1] * len(self.ports),
            (
                self.arrivals
                if self.arrivals is not None
                else _global_slots(self.offsets, 0)
            ),
            self.port_events,
        )

    def __repr__(self) -> str:
        return (
            f"Trace(n_slots={self.n_slots}, "
            f"total_packets={self.total_packets}, "
            f"event_slots={len(self.port_events)})"
        )

    def stats(self) -> Dict[str, float]:
        """Aggregate statistics for logging and experiment records."""
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

        Checks port ranges, and the Section III constraint that packets to
        port ``i`` require exactly ``w_i`` cycles (FIFO discipline only).
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

    # ------------------------------------------------------------------
    # Serialization (JSON lines, one slot per line)
    # ------------------------------------------------------------------

    def dump_jsonl(self, path: Path | str) -> None:
        """Write the trace as JSON lines: one array of packet dicts per slot.

        A packet whose arrival slot is not its line's slot (a repeated
        adversarial round) carries it as ``"aslot"``; every other
        packet omits it, so traces without out-of-line arrivals keep
        the original format byte for byte.

        The file is published atomically (tmp + fsync + rename): a
        process killed mid-dump leaves the previous trace or none, so a
        saved trace can never be half a trace.
        """
        # Lazy import keeps repro.traffic importable without the
        # resilience package on the path (and this is a cold path).
        from repro.resilience.atomic import atomic_write_text

        offsets, opts, arrivals = self.offsets, self.opts, self.arrivals
        rows = []
        for slot in range(self.n_slots):
            row = []
            for j in range(offsets[slot], offsets[slot + 1]):
                item: Dict[str, Any] = {
                    "port": self.ports[j],
                    "work": self.works[j],
                    "value": self.values[j],
                }
                if opts is not None and opts[j] >= 0:
                    item["opt"] = bool(opts[j])
                if arrivals is not None and arrivals[j] != slot:
                    item["aslot"] = arrivals[j]
                row.append(item)
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
                        arrival_slot=item.get("aslot", slot),
                        opt_accept=item.get("opt"),
                    )
                    for item in row
                ]
                trace.append_slot(burst)
        return trace


#: The longest run a run-index entry records. A longer run reads as
#: several back to back, so every entry is one byte and a cached int.
RUN_CAP = 255

#: Packets per block of the numpy run-index build.
_RUN_BLOCK = 4096


def port_runs(ports: Sequence[int], offsets: Sequence[int]) -> bytes:
    """Per packet, how many packets remain in its same-port run within
    its slot, itself included, capped at :data:`RUN_CAP`.

    A run ends where the port changes or the slot ends, so packet ``i``
    and the next ``runs[i] - 1`` ones share a port and a slot. This is
    the pure-Python build, for installs without numpy and for the
    one-slot columns of :func:`repro.core.columnar.drop_down_arrivals`
    (``offsets`` ``(0, n)``).
    """
    runs = bytearray(len(ports))
    for s in range(len(offsets) - 1):
        rem = 0
        last = -1
        for i in range(offsets[s + 1] - 1, offsets[s] - 1, -1):
            p = ports[i]
            rem = rem + 1 if p == last else 1
            last = p
            runs[i] = rem if rem < RUN_CAP else RUN_CAP
    return bytes(runs)


def _port_runs_np(ports: Any, offsets: Sequence[int]) -> bytes:
    """:func:`port_runs` with numpy, over a one-byte ports copy (a
    ``bytes`` object) or a list, a block of whole slots at a time. A
    packet's run ends before the first run start after it, so a suffix
    minimum over the start positions gives every packet its run's end.
    Blocks of about :data:`_RUN_BLOCK` packets keep the temporaries
    small."""
    if isinstance(ports, bytes):
        col = np.frombuffer(ports, np.uint8)
    else:
        col = np.asarray(ports, np.int64)
    runs = np.empty(len(col), np.uint8)
    n_slots = len(offsets) - 1
    s = 0
    while s < n_slots:
        lo = offsets[s]
        e = min(bisect_left(offsets, lo + _RUN_BLOCK, s + 1), n_slots)
        hi = offsets[e]
        m = hi - lo
        block = col[lo:hi]
        start = np.empty(m + 1, bool)
        start[0] = start[m] = True
        np.not_equal(block[1:], block[:-1], out=start[1:m])
        start[np.asarray(offsets[s + 1:e], np.int64) - lo] = True
        ends = np.arange(m + 1)
        ends[~start] = m
        np.minimum.accumulate(ends[::-1], out=ends[::-1])
        rem = ends[1:]
        rem -= np.arange(m)
        np.minimum(rem, RUN_CAP, out=runs[lo:hi], casting="unsafe")
        s = e
    out: bytes = runs.tobytes()
    return out


class RunIndex:
    """Same-port runs of a trace's columns, and per-port arrival
    counts of their spans.

    ``runs`` is :func:`port_runs` of the columns: an arrival kernel
    that rejects packet ``i`` skips to ``i + runs[i]``, since a
    rejection changes nothing its test reads. :meth:`port_counts`
    counts a column span's arrivals per port, which the vectorized
    engine derives its drop ledger from. The index keeps a one-byte
    copy of the ports column (a list copy when a port is above 255),
    never the trace's own columns, and uses numpy for both where it
    is installed.
    """

    __slots__ = ("runs", "_ports")

    def __init__(self, ports: Sequence[int], offsets: Sequence[int]) -> None:
        narrow: Any
        try:
            narrow = bytes(ports)
        except (TypeError, ValueError):
            narrow = None
        if narrow is None or len(narrow) != len(ports):
            # A port above 255, or a column with a buffer of wider items.
            narrow = list(ports)
        self._ports = narrow
        if np is None or not narrow:
            self.runs = port_runs(narrow, offsets)
        else:
            self.runs = _port_runs_np(narrow, offsets)

    def port_counts(self, lo: int, hi: int, n_ports: int) -> List[int]:
        """Arrivals per port, ``0 .. n_ports - 1``, in the column span
        ``[lo, hi)``; every port in it must be below ``n_ports``."""
        ports = self._ports
        if np is not None and isinstance(ports, bytes):
            col = np.frombuffer(ports, np.uint8, hi - lo, lo)
            counts: List[int] = np.bincount(col, minlength=n_ports).tolist()
            return counts
        counts = [0] * n_ports
        for p in ports[lo:hi]:
            counts[p] += 1
        return counts


def _global_slots(offsets: Sequence[int], first_slot: int) -> List[int]:
    """Each packet's slot, ``first_slot`` plus its slot index, in
    column order (one shared int object per slot)."""
    return list(
        chain.from_iterable(
            repeat(first_slot + slot, offsets[slot + 1] - offsets[slot])
            for slot in range(len(offsets) - 1)
        )
    )


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
