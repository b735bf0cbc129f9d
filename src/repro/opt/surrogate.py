"""The paper's OPT surrogate: a single priority queue with ``n*C`` cores.

Section V-A: *"Since it is computationally prohibitive to compute the true
optimal policy, we used a single priority queue that first processes the
smallest packets (resp., packets with largest value) and has kC cores. This
algorithm has been proven optimal in the single queue model, so in case of
congestion it may perform even better than optimal in our model."*

Two variants implement the two models:

* :class:`SrptSurrogate` (processing model) — one shared buffer of ``B``
  packets kept in ascending residual-work order. Admission is the optimal
  single-queue push-out rule: accept when there is room, otherwise evict
  the largest-residual packet if it exceeds the arrival's work. Each slot,
  the ``n*C`` smallest-residual packets receive one cycle each.

* :class:`MaxValueSurrogate` (value model) — ascending value order;
  admission evicts the smallest value when the arrival is strictly more
  valuable; each slot the ``n*C`` most valuable packets transmit (unit
  work).

Both expose the :class:`System` interface (``run_slot`` /
``fast_forward`` / ``flush`` / ``metrics`` / ``backlog``) shared with
policy-driven switches, so the competitive runner treats them
interchangeably.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Protocol, Sequence

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError, TraceError
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet


class System(Protocol):
    """What :func:`repro.analysis.competitive.run_system` drives.

    Besides these members, a system exposes one slot entry point:
    ``run_span(ports, works, values, arrivals, offsets, s0, s1)`` over
    a trace's columns (the vectorized engines), or ``run_slot(arrivals)``
    over one slot's packet burst (the reference engine, the bisect
    surrogates, the single-queue system). The runner fast-forwards
    every arrival-free slot that starts on an empty buffer instead of
    running it (``run_span`` returns at such a slot). The members
    ``set_port_state``, ``check_invariants`` and ``attach_observer``
    are optional: the runner uses them where a trace carries churn,
    where self-checks are on, and where an observer is passed.
    """

    metrics: SwitchMetrics

    @property
    def backlog(self) -> int:
        """Number of currently buffered packets."""
        ...

    def flush(self) -> int:
        """Drop all buffered packets without credit; return the count."""
        ...

    def fast_forward(self, n_slots: int) -> None:
        """Advance over ``n_slots`` idle slots (empty buffer required)."""
        ...


class _SinglePQSurrogate:
    """Shared machinery of the two surrogate variants."""

    def __init__(self, config: SwitchConfig, cores: int | None = None) -> None:
        """``cores`` defaults to the paper's ``n * C``."""
        self.config = config
        self.cores = (
            cores if cores is not None else config.n_ports * config.speedup
        )
        if self.cores < 1:
            raise TraceError(f"surrogate needs >= 1 core, got {self.cores}")
        self.buffer_size = config.buffer_size
        self.metrics = SwitchMetrics(n_ports=config.n_ports)
        self._items: List[Packet] = []  # kept sorted by the variant's key
        self._port_up: List[bool] = [True] * config.n_ports
        self._n_down = 0

    @property
    def backlog(self) -> int:
        return len(self._items)

    def flush(self) -> int:
        dropped = len(self._items)
        self.metrics.record_flush(self._items)
        self._items.clear()
        return dropped

    def run_slot(self, arrivals: Sequence[Packet]) -> List[Packet]:
        if self._n_down:
            for packet in arrivals:
                self.metrics.record_arrival(packet)
                if not self._port_up[packet.port]:
                    self.metrics.record_drop(packet)
                    continue
                self._admit(packet)
        else:
            for packet in arrivals:
                self.metrics.record_arrival(packet)
                self._admit(packet)
        done = self._transmit()
        self.metrics.record_transmissions(done)
        self.metrics.record_slot(len(self._items))
        return done

    def fast_forward(self, n_slots: int) -> None:
        """Advance over ``n_slots`` idle slots (empty buffer required)."""
        if self._items:
            raise TraceError(
                f"fast_forward with {len(self._items)} buffered packets"
            )
        self.metrics.record_idle_slots(n_slots)

    def set_port_state(self, port: int, up: bool) -> int:
        """Admin-up/down ``port``; returns the packets reclaimed.

        The surrogate has no per-port queues, but packets destined to a
        down port can never be delivered: they are removed from the
        single priority queue and accounted as flushed — the same
        deterministic reclaim the switch engines apply.
        """
        if not 0 <= port < self.config.n_ports:
            raise TraceError(
                f"port-state event for port {port}, switch has "
                f"{self.config.n_ports} ports"
            )
        up = bool(up)
        if up == self._port_up[port]:
            state = "up" if up else "down"
            raise TraceError(f"port {port} is already {state}")
        if up:
            self._port_up[port] = True
            self._n_down -= 1
            return 0
        self._port_up[port] = False
        self._n_down += 1
        flushed = [p for p in self._items if p.port == port]
        if flushed:
            # Order-preserving removal keeps the sort key intact.
            self._items = [p for p in self._items if p.port != port]
            self.metrics.record_flush(flushed)
        return len(flushed)

    # Variant hooks -----------------------------------------------------

    def _admit(self, packet: Packet) -> None:
        raise NotImplementedError

    def _transmit(self) -> List[Packet]:
        raise NotImplementedError


class SrptSurrogate(_SinglePQSurrogate):
    """Processing-model surrogate: smallest-residual-first single queue.

    The buffer list is sorted ascending by residual work. Decrementing a
    prefix of a sorted list keeps it sorted, so transmission is O(cores)
    and admission O(B).
    """

    def _admit(self, packet: Packet) -> None:
        admitted = packet.fresh_copy()
        if len(self._items) < self.buffer_size:
            insort(self._items, admitted, key=lambda p: p.residual)
            self.metrics.record_accept(admitted)
            return
        # Push out the largest-residual packet when the arrival is smaller.
        if self._items and self._items[-1].residual > admitted.residual:
            victim = self._items.pop()
            self.metrics.record_push_out(victim)
            insort(self._items, admitted, key=lambda p: p.residual)
            self.metrics.record_accept(admitted)
        else:
            self.metrics.record_drop(packet)

    def _transmit(self) -> List[Packet]:
        active = min(self.cores, len(self._items))
        for idx in range(active):
            self._items[idx].residual -= 1
        done: List[Packet] = []
        while self._items and self._items[0].residual == 0:
            done.append(self._items.pop(0))
        return done


class MaxValueSurrogate(_SinglePQSurrogate):
    """Value-model surrogate: largest-value-first single queue.

    The buffer list is sorted ascending by value; transmission pops from
    the tail (most valuable first), admission evicts from the head
    (least valuable) when profitable.
    """

    def _admit(self, packet: Packet) -> None:
        admitted = packet.fresh_copy()
        if len(self._items) < self.buffer_size:
            insort(self._items, admitted, key=lambda p: p.value)
            self.metrics.record_accept(admitted)
            return
        if self._items and self._items[0].value < admitted.value:
            victim = self._items.pop(0)
            self.metrics.record_push_out(victim)
            insort(self._items, admitted, key=lambda p: p.value)
            self.metrics.record_accept(admitted)
        else:
            self.metrics.record_drop(packet)

    def _transmit(self) -> List[Packet]:
        active = min(self.cores, len(self._items))
        done: List[Packet] = []
        for _ in range(active):
            packet = self._items.pop()
            packet.residual = 0
            done.append(packet)
        return done


def make_surrogate(
    config: SwitchConfig, by_value: bool, *, engine: str = "reference"
) -> System:
    """Build the appropriate surrogate for a model/objective.

    ``engine`` selects the implementation: ``"reference"`` is the
    ``bisect`` single queue above (the oracle); ``"vectorized"`` is the
    array-backed variant of :mod:`repro.opt.vectorized`, decision- and
    metrics-identical by contract (see docs/PIPELINE.md). Measured
    objectives are therefore engine-independent, which is why the
    engine is not part of any cache key.
    """
    if engine == "vectorized":
        from repro.opt.vectorized import (
            VectorizedMaxValueSurrogate,
            VectorizedSrptSurrogate,
        )

        if by_value:
            return VectorizedMaxValueSurrogate(config)
        return VectorizedSrptSurrogate(config)
    if engine != "reference":
        raise ConfigError(
            f"unknown surrogate engine {engine!r}; "
            "expected 'reference' or 'vectorized'"
        )
    if by_value:
        return MaxValueSurrogate(config)
    return SrptSurrogate(config)
