"""Dynamic-threshold admission policies for the shared-buffer scenarios.

Two policies from the dynamic shared-buffer literature, both non-push-out
threshold policies implemented purely against the public
:class:`~repro.core.switch.SwitchView` API (they pass ``repro check``
RC301-303 by construction). Each states its rule once, as ``admits``
over one statistic; on the purely shared model with every port up the
vectorized engine's threshold kernel computes that statistic from its
columns and calls the same ``admits``, and split buffer models and port
churn run the policy's own ``within_threshold`` through generic
dispatch:

* :class:`DynamicThreshold` — the classic alpha-threshold ("Dynamic
  Threshold") scheme of Choudhury & Hahne: a packet for queue ``i`` is
  admitted while ``|Q_i|`` (its shared-slot share) is below ``alpha``
  times the *free* shared space. Self-tuning: thresholds fall as the
  buffer fills, deliberately holding back ``~1/(1 + alpha n)`` of the
  buffer as slack for newly active queues.

* :class:`Harmonic` — the rank-based harmonic threshold policy
  (PAPERS.md, arXiv:2511.06514): a queue whose length ranks ``r``-th
  largest may hold up to ``B / (r * H_n)`` packets. The policy is
  ``(2 + ln n)``-competitive against the optimal offline shared-buffer
  schedule; ``tests/test_harmonic_competitive.py`` pins the empirical
  ratio under that bound across seeded and adversarial workloads.

Both policies read only *shared-slot* quantities (``shared_queue_len``,
``shared_free``, ``shared_capacity``), so under a reserved + shared
:class:`~repro.core.config.BufferModel` split they govern the shared
pool while reservations stay unconditionally admissible — exactly the
SONiC buffer-model semantics. On the purely shared model the shared
quantities degenerate to plain queue lengths and free space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._math import harmonic_number
from repro.core.config import SwitchConfig
from repro.core.decisions import STAT_FREE, STAT_LONGER
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.policies.base import ThresholdPolicy

if TYPE_CHECKING:
    from repro.core.switch import SwitchView


class DynamicThreshold(ThresholdPolicy):
    """Alpha dynamic-threshold admission (Choudhury & Hahne).

    Accept a packet for queue ``i`` iff

    ``shared_queue_len(i) < alpha * shared_free``

    evaluated *before* the packet is placed. ``alpha`` trades utilization
    against fairness: large alpha approaches greedy sharing, small alpha
    approaches complete partitioning.
    """

    name = "DT"
    statistic = STAT_FREE

    def __init__(self, alpha: float = 1.0) -> None:
        if not alpha > 0:
            raise ConfigError(f"DT needs alpha > 0, got {alpha}")
        self.alpha = float(alpha)

    def admits(
        self, config: SwitchConfig, capacity: int, own: int, stat: int
    ) -> bool:
        return own < self.alpha * stat

    def within_threshold(self, view: SwitchView, packet: Packet) -> bool:
        return self.admits(
            view.config,
            view.shared_capacity,
            view.shared_queue_len(packet.port),
            view.shared_free,
        )

    def describe(self) -> str:
        return f"DT(alpha={self.alpha:g}) (non-push-out, dynamic threshold)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicThreshold(alpha={self.alpha!r})"


class Harmonic(ThresholdPolicy):
    """Rank-based harmonic thresholds, ``(2 + ln n)``-competitive.

    Order the queues by (shared) length, longest first. The queue holding
    the ``r``-th longest backlog may grow while

    ``(len + 1) * r * H_n <= shared_capacity``

    i.e. queue lengths are capped by the harmonic envelope
    ``B / (r * H_n)``, whose total over all ranks is exactly ``B``. The
    rank of the arriving packet's queue is computed against current
    lengths (ties resolve in the arrival's favour: only strictly longer
    queues outrank it), so the check is deterministic and engine-
    independent — both engines evaluate the same integers and one float
    product.
    """

    name = "Harmonic"
    statistic = STAT_LONGER

    def admits(
        self, config: SwitchConfig, capacity: int, own: int, stat: int
    ) -> bool:
        # Rank r = 1 + the number of strictly longer queues.
        rank = stat + 1
        return (own + 1) * rank * harmonic_number(config.n_ports) <= capacity

    def within_threshold(self, view: SwitchView, packet: Packet) -> bool:
        own = view.shared_queue_len(packet.port)
        # Empty queues never outrank (own >= 0), so scanning the
        # non-empty ports is exact and costs O(active), not O(n).
        longer = 0
        for port in view.nonempty_ports():
            if port != packet.port and view.shared_queue_len(port) > own:
                longer += 1
        return self.admits(view.config, view.shared_capacity, own, longer)

    def describe(self) -> str:
        return "Harmonic (non-push-out, rank-harmonic thresholds)"
