"""Non-push-out threshold policies: NHST, NEST, NHDT (Section III-B-1).

These policies never evict admitted packets; they accept an arrival only
when the shared buffer has space *and* the arrival's queue is below a
threshold. The paper analyzes three variants:

* **NHST** (Non-Push-Out-Harmonic-Static-Threshold): queue ``i`` may hold at
  most ``B / (w_i * Z)`` packets, where ``Z = sum_j 1/w_j``. Thresholds are
  inversely proportional to required processing. Theorem 1 shows NHST is
  ``kZ + o(kZ)``-competitive.

* **NEST** (Non-Push-Out-Equal-Static-Threshold): every queue may hold at
  most ``B / n`` packets — complete partitioning. Theorem 2 shows NEST is
  ``n + o(n)``-competitive, which (perhaps surprisingly) beats NHST.

* **NHDT** (Non-Push-Out-Harmonic-Dynamic-Threshold, from Kesselman &
  Mansour): for every ``m``, the ``m`` fullest queues may jointly hold at
  most ``(B / H_n) * H_m`` packets. O(log n)-competitive under uniform
  processing; Theorem 3 shows it degrades to ``~ (1/2)sqrt(k ln k)`` under
  heterogeneous processing.

NEST and NHDT consult only queue *lengths*, so they apply unchanged to the
heterogeneous-value model (the paper reuses them in Fig. 5 panels 4-9).
NHST consults per-port required work; its value-model counterpart with
reversed thresholds (Section V-C) is :class:`NHSTValue`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro._math import harmonic_number
from repro.core.config import SwitchConfig
from repro.core.decisions import STAT_AT_LEAST
from repro.core.packet import Packet
from repro.policies.base import StaticThresholdPolicy, ThresholdPolicy

if TYPE_CHECKING:
    from repro.core.switch import SwitchView


class NHST(StaticThresholdPolicy):
    """Static thresholds inversely proportional to required processing.

    Accept an arriving packet for port ``i`` iff the buffer has space and
    ``|Q_i| < B / (w_i * Z)`` with ``Z = sum_j 1/w_j``.
    """

    name = "NHST"

    def cap(self, config: SwitchConfig, port: int) -> float:
        z = config.inverse_work_sum
        return config.buffer_size / (config.work_of(port) * z)


class NEST(StaticThresholdPolicy):
    """Equal static thresholds: complete buffer partitioning.

    Accept iff the buffer has space and ``|Q_i| < B / n``. Each queue
    behaves as an isolated queue with buffer ``B/n``, which is why NEST is
    ``n``-competitive (Theorem 2) regardless of processing heterogeneity.
    """

    name = "NEST"

    def cap(self, config: SwitchConfig, port: int) -> float:
        return config.buffer_size / config.n_ports


class NHDT(ThresholdPolicy):
    """Harmonic dynamic thresholds (Kesselman & Mansour).

    On arrival of a packet for port ``i``, let ``j_1, ..., j_m = i`` be the
    queues at least as full as ``Q_i``. Accept iff the buffer has space and

        ``sum_s |Q_{j_s}| < (B / H_n) * H_m``

    where ``H_m`` is the m-th harmonic number and ``n`` the number of
    output ports. Intuitively the m fullest queues may jointly use only a
    harmonically growing share of the buffer, which protects short queues.
    """

    name = "NHDT"
    statistic = STAT_AT_LEAST

    def admits(
        self,
        config: SwitchConfig,
        capacity: int,
        own: int,
        stat: Tuple[int, int],
    ) -> bool:
        m, joint = stat
        budget = (
            config.buffer_size / harmonic_number(config.n_ports)
        ) * harmonic_number(m)
        return joint < budget

    def within_threshold(self, view: SwitchView, packet: Packet) -> bool:
        own_len = view.queue_len(packet.port)
        lens_at_least = [
            view.queue_len(port)
            for port in range(view.n_ports)
            if view.queue_len(port) >= own_len or port == packet.port
        ]
        return self.admits(
            view.config,
            view.buffer_size,
            own_len,
            (len(lens_at_least), sum(lens_at_least)),
        )


class NHSTValue(StaticThresholdPolicy):
    """NHST with reversed thresholds for the port-determined value model.

    Section V-C: when a packet's value is uniquely determined by its output
    port, high-*value* queues should get the large thresholds (the original
    NHST would starve them). For the port with the ``r``-th smallest value
    the threshold is ``B / ((k - r + 1) * H_k)``, where ``k`` is the number
    of ports; the most valuable port gets the largest share ``B / H_k``.

    The rank formulation generalizes the paper's ``value = port label``
    special case (where the rank of port ``i`` is ``i``) to arbitrary
    per-port values.
    """

    name = "NHST-V"

    def cap(self, config: SwitchConfig, port: int) -> float:
        values = config.values
        k = config.n_ports
        # Rank r in 1..k of this port's value among all ports (ties broken
        # by port index so every port gets a distinct rank).
        me = (values[port], port)
        rank = sum(1 for j in range(k) if (values[j], j) <= me)
        return config.buffer_size / ((k - rank + 1) * harmonic_number(k))


class GreedyNonPushOut(StaticThresholdPolicy):
    """Accept whenever the buffer has space; never evict.

    Section IV-B's strawman: a greedy non-push-out policy is at least
    ``k``-competitive in the value model (fill the buffer with value-1
    packets, then send value-``k`` ones). Included as a baseline for the
    value-model experiments and as the simplest sanity-check policy.
    """

    name = "Greedy"

    def cap(self, config: SwitchConfig, port: int) -> float:
        return float("inf")
