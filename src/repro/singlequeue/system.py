"""The single-queue architecture of Fig. 1 (top): one buffer, any core.

The paper motivates the shared-memory switch by contrasting it with the
classical *single queue* design, where the whole buffer is one queue and
every core can process any packet, run-to-completion: once a core picks a
packet, no other core may touch it until it finishes (rescheduling is too
expensive at line rate).

Two admission/service disciplines are modeled, matching the paper's
discussion in the introduction:

* **PQ** — packets are served in non-decreasing order of required work,
  and admission pushes out the largest-work *waiting* packet when a
  smaller one arrives into a full buffer. This is the policy of
  Keslassy-Kogan-Scalosub-Segal [11] that the paper cites as having
  optimal throughput in the single-queue model — and the one the Fig. 5
  OPT surrogate approximates.
* **FIFO** — greedy non-push-out first-in-first-out service; the paper
  cites an ``Omega(log k)`` competitive blow-up for FIFO ordering [19].

The run-to-completion constraint is what distinguishes this system from
:class:`repro.opt.surrogate.SrptSurrogate`: the surrogate re-sorts by
residual every slot (an idealization that may *beat* the true OPT), while
here a core is occupied by its packet for that packet's full work.

This substrate exists to reproduce the paper's *motivational* claims
(Section I): the single-queue PQ maximizes throughput but starves heavy
traffic classes — "priorities ... rigged to the inverse of the processing
requirements" — while the shared-memory switch with LWD serves every
class. See :mod:`repro.experiments.architecture`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet


class SingleQueueSystem:
    """One shared buffer, ``m`` identical run-to-completion cores.

    Implements the :class:`repro.opt.surrogate.System` protocol
    (``run_slot`` / ``fast_forward`` / ``flush`` / ``metrics`` /
    ``backlog``) so it can be driven by the same runners as the
    shared-memory switch.

    Parameters
    ----------
    config:
        Reused for its buffer size, port labels (traffic classes), and
        core count default (``n * C``).
    discipline:
        ``"pq"`` (smallest-work-first with push-out; throughput-optimal)
        or ``"fifo"`` (greedy non-push-out, arrival order).
    cores:
        Number of cores; defaults to ``config.n_ports * config.speedup``.
    """

    def __init__(
        self,
        config: SwitchConfig,
        discipline: str = "pq",
        cores: Optional[int] = None,
    ) -> None:
        if discipline not in ("pq", "fifo"):
            raise ConfigError(f"unknown single-queue discipline {discipline!r}")
        self.config = config
        self.discipline = discipline
        self.cores = cores if cores is not None else (
            config.n_ports * config.speedup
        )
        if self.cores < 1:
            raise ConfigError(f"need >= 1 core, got {self.cores}")
        self.buffer_size = config.buffer_size
        self.metrics = SwitchMetrics(n_ports=config.n_ports)
        # Waiting room: sorted ascending by required work for PQ (ties
        # FIFO), plain FIFO otherwise. In-service packets occupy their
        # cores (and buffer slots) until completion.
        self._waiting: Deque[Packet] = deque()
        self._in_service: List[Packet] = []
        self.current_slot = 0

    # ------------------------------------------------------------------

    @property
    def backlog(self) -> int:
        return len(self._waiting) + len(self._in_service)

    def flush(self) -> int:
        """Drop all *waiting* packets (in-service packets keep their
        cores; preempting them would violate run-to-completion)."""
        dropped = list(self._waiting)
        self._waiting.clear()
        self.metrics.record_flush(dropped)
        return len(dropped)

    def run_slot(self, arrivals: Sequence[Packet]) -> List[Packet]:
        for packet in arrivals:
            self.metrics.record_arrival(packet)
            self._admit(packet)
        self._dispatch()
        done = self._process()
        self.metrics.record_transmissions(done, slot=self.current_slot)
        self.metrics.record_slot(self.backlog)
        self.current_slot += 1
        return done

    def fast_forward(self, n_slots: int) -> None:
        """Advance over ``n_slots`` idle slots (empty buffer required)."""
        if self.backlog:
            raise ConfigError(
                f"fast_forward with {self.backlog} buffered packets"
            )
        self.metrics.record_idle_slots(n_slots)
        self.current_slot += n_slots

    # ------------------------------------------------------------------

    def _admit(self, packet: Packet) -> None:
        admitted = packet.fresh_copy()
        if self.backlog < self.buffer_size:
            self._enqueue(admitted)
            self.metrics.record_accept(admitted)
            return
        if self.discipline == "fifo":
            self.metrics.record_drop(packet)
            return
        # PQ push-out: evict the largest-work waiting packet if strictly
        # larger than the arrival (in-service packets cannot be evicted).
        victim_idx = None
        victim_work = admitted.work
        for idx, waiting in enumerate(self._waiting):
            if waiting.work > victim_work:
                victim_work = waiting.work
                victim_idx = idx
        if victim_idx is None:
            self.metrics.record_drop(packet)
            return
        victim = self._waiting[victim_idx]
        del self._waiting[victim_idx]
        self.metrics.record_push_out(victim)
        self._enqueue(admitted)
        self.metrics.record_accept(admitted)

    def _enqueue(self, packet: Packet) -> None:
        if self.discipline == "fifo":
            self._waiting.append(packet)
            return
        # Insert keeping ascending work, FIFO among equals.
        for idx, waiting in enumerate(self._waiting):
            if waiting.work > packet.work:
                self._waiting.insert(idx, packet)
                return
        self._waiting.append(packet)

    def _dispatch(self) -> None:
        while self._waiting and len(self._in_service) < self.cores:
            self._in_service.append(self._waiting.popleft())

    def _process(self) -> List[Packet]:
        done: List[Packet] = []
        still_busy: List[Packet] = []
        for packet in self._in_service:
            packet.residual -= 1
            if packet.residual == 0:
                done.append(packet)
            else:
                still_busy.append(packet)
        self._in_service = still_busy
        return done
