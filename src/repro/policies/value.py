"""Push-out policies for the heterogeneous-value model (Section IV).

Unit-work packets carry an intrinsic value; each output queue is a priority
queue that transmits its most valuable packet first, and the objective is
total transmitted value. The paper examines the two "pure" strategies and
its proposed hybrid:

* **LQD** — value-oblivious: push out the lowest-value packet of the
  longest queue. Keeps ports busy but ignores value; Theorem 9 shows an
  ``Ω(cbrt(k))`` lower bound.

* **MVD** (Minimal-Value-Drop) — greedily maximize buffered value: push out
  the globally least valuable packet, but only when the arrival is strictly
  more valuable. Starves ports; Theorem 10 shows an ``(m-1)/2`` lower bound
  with ``m = min(k, B)``.

* **MVD₁** — MVD that never empties a queue (Section V-C), analogous to
  BPD₁.

* **MRD** (Maximal-Ratio-Drop) — the paper's proposed hybrid, conjectured
  O(1)-competitive: push out the tail of the queue maximizing
  ``|Q_j| / a_j`` (length over average value), trading off active ports
  against buffered value exactly as LWD trades off length against work in
  the processing model. At least ``4/3``-competitive when values are
  port-determined (Theorem 11) and at least ``sqrt(2)`` (inherits LQD's
  bound under unit values).

Push-out always evicts a queue's *tail*, which for value-model priority
queues is its least valuable packet.

As in the processing model, each selector is the literal O(n) argmax of
its definition over the view, with the port number last in every key so
ties resolve uniquely. The vectorized engine's column kernels must match
these scans decision for decision (the differential test suite).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.decisions import ACCEPT, DROP, Decision, push_out
from repro.core.packet import Packet
from repro.policies.base import PushOutPolicy

if TYPE_CHECKING:
    from repro.core.switch import SwitchView


class LQDValue(PushOutPolicy):
    """Longest-Queue-Drop in the value model.

    Identical queue selection to processing-model LQD (virtual arrival
    counted towards its own queue; ``j* != i`` required to push out).
    Ties among longest queues prefer the queue whose tail is cheapest
    (sacrificing the least value), then the largest index.
    """

    name = "LQD-V"

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        target = self._longest_queue(view, packet)
        if target == packet.port:
            return DROP
        return push_out(target)

    @staticmethod
    def _longest_queue(view: SwitchView, packet: Packet) -> int:
        best_key: Optional[Tuple[int, float, int]] = None
        best_port = packet.port
        for port in range(view.n_ports):
            virtual_len = view.queue_len(port) + (1 if port == packet.port else 0)
            if view.queue_len(port) > 0:
                cheap = -view.tail_value(port)
            else:
                cheap = float("-inf")
            key = (virtual_len, cheap, port)
            if best_key is None or key > best_key:
                best_key = key
                best_port = port
        return best_port


class MVD(PushOutPolicy):
    """Minimal-Value-Drop.

    On congestion, find the queue holding the globally minimal buffered
    value (ties prefer the longest such queue, per the paper, then the
    largest index). If that minimal value is strictly below the arrival's
    value, push out that queue's tail (= its minimal-value packet) and
    accept; otherwise drop.
    """

    name = "MVD"

    #: Minimum victim-queue length; MVD₁ raises it to 2.
    min_victim_len = 1

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        victim = self._min_value_queue(view)
        if victim is None:
            return DROP
        if view.tail_value(victim) < packet.value:
            return push_out(victim)
        return DROP

    def _min_value_queue(self, view: SwitchView) -> Optional[int]:
        best_key: Optional[Tuple[float, int, int]] = None
        best_port: Optional[int] = None
        for port in range(view.n_ports):
            length = view.queue_len(port)
            if length < self.min_victim_len:
                continue
            # Lexicographic minimum on value, then maximum on length/index:
            # negate the latter two so a single "smaller is better" key works.
            key = (view.min_value(port), -length, -port)
            if best_key is None or key < best_key:
                best_key = key
                best_port = port
        return best_port


class MVD1(MVD):
    """MVD that never pushes out the last packet of a queue (Section V-C)."""

    name = "MVD1"
    min_victim_len = 2


class MRD(PushOutPolicy):
    """Maximal-Ratio-Drop — the paper's conjectured O(1) policy.

    On congestion, let ``Q_j`` maximize ``|Q_j| / a_j`` over non-empty
    queues, where ``a_j`` is the average buffered value of queue ``j``
    (ties prefer the queue containing a smaller value, then the largest
    index). If the minimal value currently buffered anywhere is strictly
    below the arrival's value, push out the tail of ``Q_j`` and accept;
    otherwise drop.

    Note the admission test uses the *global* minimum while the victim is
    the max-ratio queue's tail — the two may differ; we implement the
    paper's definition literally. With unit values MRD reduces to LQD.
    """

    name = "MRD"

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        buffer_min = view.buffer_min_value()
        if buffer_min is None:
            # Congested but empty is impossible when B >= 1; guard anyway.
            return ACCEPT if not view.is_full else DROP
        if buffer_min >= packet.value:
            return DROP
        victim = self._max_ratio_queue(view)
        if victim is None:
            return DROP
        return push_out(victim)

    @staticmethod
    def _max_ratio_queue(view: SwitchView) -> Optional[int]:
        best_key: Optional[Tuple[float, float, int]] = None
        best_port: Optional[int] = None
        for port in range(view.n_ports):
            length = view.queue_len(port)
            if length == 0:
                continue
            ratio = length / view.avg_value(port)
            key = (ratio, -view.min_value(port), port)
            if best_key is None or key > best_key:
                best_key = key
                best_port = port
        return best_port
