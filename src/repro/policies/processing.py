"""Push-out policies for the heterogeneous-processing model (Section III).

All four policies are greedy (accept while the buffer has space) and differ
only in which buffered packet they sacrifice under congestion:

* **LQD** (Longest-Queue-Drop, Aiello et al.) — push out the tail of the
  longest queue. Optimal up to constants under uniform processing, but
  Theorem 4 shows it degrades to ``Ω(sqrt(k))`` with heterogeneous work.

* **BPD** (Biggest-Packet-Drop) — push out from the non-empty queue with
  the largest per-packet work, i.e. greedily minimize total buffered work.
  Theorem 5 shows a ``ln k + γ`` lower bound: BPD starves ports.

* **BPD₁** — BPD that never empties a queue (victims must leave at least
  one packet behind); introduced in Section V-B to counteract BPD's
  port-starvation pathology in simulations.

* **LWD** (Longest-Work-Drop) — the paper's main contribution: push out the
  tail of the queue with the most total residual work ``W_j``. Combines
  LQD's port balance with work awareness; Theorem 7 proves LWD is at most
  **2-competitive**, and it is at least ``4/3 - 6/B``-competitive in the
  contiguous case (Theorem 6) and ``sqrt(2)`` under uniform processing.

Tie-breaking follows the paper where specified (largest required work) and
is completed deterministically by the largest port index otherwise, so runs
are reproducible bit-for-bit.

Each selector is the literal O(n) argmax of its definition, scanned
over the :class:`~repro.core.switch.SwitchView`. Every key ends with the
port number, so keys are unique and the argmax is well defined. These
scans are the reference the vectorized engine's column kernels must
match decision for decision (``tests/test_fastpath_differential.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.decisions import DROP, Decision, push_out
from repro.core.packet import Packet
from repro.policies.base import PushOutPolicy

if TYPE_CHECKING:
    from repro.core.switch import SwitchView


class LQD(PushOutPolicy):
    """Longest-Queue-Drop.

    On congestion, let ``j*`` maximize ``|Q_j| + [j = i]`` (the arrival is
    counted virtually towards its own queue); ties prefer the queue with
    the largest required processing, then the largest index. If ``j* != i``
    push out the tail of ``Q_{j*}`` and accept; otherwise drop (the arrival
    itself belongs to the longest queue).
    """

    name = "LQD"

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        target = self._longest_queue(view, packet)
        if target == packet.port:
            return DROP
        return push_out(target)

    @staticmethod
    def _longest_queue(view: SwitchView, packet: Packet) -> int:
        best_key: Optional[Tuple[int, int, int]] = None
        best_port = packet.port
        for port in range(view.n_ports):
            virtual_len = view.queue_len(port) + (1 if port == packet.port else 0)
            key = (virtual_len, view.work_of(port), port)
            if best_key is None or key > best_key:
                best_key = key
                best_port = port
        return best_port


class BPD(PushOutPolicy):
    """Biggest-Packet-Drop.

    On congestion, let ``Q_j`` be the non-empty queue with the largest
    required processing (ties prefer the largest index, mirroring the
    paper's sorted-port convention). Push out its tail and accept iff the
    arrival "precedes" the victim in that order — ``w_i < w_j``, or
    ``w_i = w_j`` and ``i <= j`` — and drop otherwise.
    """

    name = "BPD"

    #: Minimum number of packets a queue must hold to be a victim. BPD₁
    #: overrides this to 2 so that victims always leave a packet behind.
    min_victim_len = 1

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        victim = self._biggest_queue(view)
        if victim is None:
            return DROP
        arrival_key = (view.work_of(packet.port), packet.port)
        victim_key = (view.work_of(victim), victim)
        if arrival_key <= victim_key:
            return push_out(victim)
        return DROP

    def _biggest_queue(self, view: SwitchView) -> Optional[int]:
        best_key: Optional[Tuple[int, int]] = None
        best_port: Optional[int] = None
        for port in range(view.n_ports):
            if view.queue_len(port) < self.min_victim_len:
                continue
            key = (view.work_of(port), port)
            if best_key is None or key > best_key:
                best_key = key
                best_port = port
        return best_port


class BPD1(BPD):
    """BPD that never pushes out the last packet of a queue (Section V-B).

    Victim queues must hold at least two packets; if no such queue exists
    the arrival is dropped. This prevents BPD from idling output ports,
    which the simulations identify as its main weakness.
    """

    name = "BPD1"
    min_victim_len = 2


class LWD(PushOutPolicy):
    """Longest-Work-Drop — the paper's main policy (Theorems 6 and 7).

    On congestion, let ``j*`` maximize ``W_j + [j = i] * w_i`` where ``W_j``
    is the total residual work of queue ``j`` and the arrival's work is
    counted virtually towards its own queue; ties prefer the queue with the
    largest per-packet work (as the paper specifies), then the largest
    index. If ``j* != i`` push out the tail of ``Q_{j*}`` and accept;
    otherwise drop.

    Under uniform processing requirements all queues hold equal-work
    packets and LWD's choice coincides with LQD's, which is how the
    ``sqrt(2)`` lower bound of Aiello et al. transfers to LWD.
    """

    name = "LWD"

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        target = self._longest_work_queue(view, packet)
        if target == packet.port:
            return DROP
        return push_out(target)

    @staticmethod
    def _longest_work_queue(view: SwitchView, packet: Packet) -> int:
        own_work = view.work_of(packet.port)
        best_key: Optional[Tuple[int, int, int]] = None
        best_port = packet.port
        for port in range(view.n_ports):
            virtual = view.total_work(port) + (
                own_work if port == packet.port else 0
            )
            key = (virtual, view.work_of(port), port)
            if best_key is None or key > best_key:
                best_key = key
                best_port = port
        return best_port
