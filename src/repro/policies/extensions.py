"""Extension policies beyond the paper's line-up.

The paper leaves several threads hanging; this module picks them up:

* :class:`NHDTW` — the paper states *"it is unclear how to generalize
  NHDT to heterogeneous processing better; this remains an interesting
  problem for future research"* (Section III-B-1). NHDTW is our candidate
  generalization: it ranks queues by total residual *work* rather than by
  length, so the harmonic budget throttles queues hoarding processing
  time instead of queues hoarding packets.

* :class:`LWD1` / :class:`MRD1` — the paper introduces the "do not empty
  a queue" refinement for BPD (BPD₁) and MVD (MVD₁) because emptying a
  queue idles its port. Applying the same refinement to the *good*
  policies is the natural ablation: does protecting the last packet help
  LWD and MRD too, or is it only a crutch for policies that starve ports
  in the first place? (Benchmarks: it barely moves LWD/MRD — their victim
  choice already avoids short queues.)

* :class:`RandomPushOut` — a seeded uniformly-random-victim baseline.
  Any policy worth deploying should beat it; simulations that cannot
  separate a candidate from random eviction are not informative.

These are extensions, not reproductions: nothing here is claimed by the
paper. They are registered in the policy registry (tagged in their
summaries) so experiments can sweep them alongside the originals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro._math import harmonic_number
from repro.core.config import SwitchConfig
from repro.core.decisions import DROP, STAT_WORK_AT_LEAST, Decision, push_out
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.policies.base import PushOutPolicy, ThresholdPolicy
from repro.policies.processing import LWD
from repro.policies.value import MRD

if TYPE_CHECKING:
    from repro.core.switch import SwitchView


class NHDTW(ThresholdPolicy):
    """Work-weighted harmonic dynamic thresholds (NHDT generalization).

    NHDT's harmonic rule, restated in *work units*: rank queues by total
    residual work ``W_j``, and accept an arrival for port ``i`` iff the
    buffer has space and the queues at least as work-heavy as ``Q_i``
    jointly carry less than

        ``(B_w / H_n) * H_m``  work,  where  ``B_w = B * n / Z``

    is the buffer's *effective work capacity* (``Z = sum_j 1/w_j``).
    Mirroring NHDT, the comparison uses pre-arrival state (the arrival is
    not counted virtually). Under uniform works ``w`` with unprocessed
    packets ``W_j = |Q_j| w`` and ``B_w = B w``, so the rule coincides
    with NHDT exactly (a property test locks this for ``w = 1``; with
    ``w > 1`` partially processed heads shift the work totals — that
    deviation *is* the generalization). Under heterogeneous works a
    queue of ten work-10 packets is throttled like a queue of a hundred
    work-1 packets — both have claimed the same share of the switch's
    service time.
    """

    name = "NHDT-W"
    statistic = STAT_WORK_AT_LEAST

    def admits(
        self,
        config: SwitchConfig,
        capacity: int,
        own: int,
        stat: Tuple[int, int],
    ) -> bool:
        m, joint_work = stat
        work_capacity = (
            config.buffer_size * config.n_ports / config.inverse_work_sum
        )
        budget = (
            work_capacity / harmonic_number(config.n_ports)
        ) * harmonic_number(m)
        return joint_work < budget

    def within_threshold(self, view: SwitchView, packet: Packet) -> bool:
        own_work = view.total_work(packet.port)
        joint_work = 0
        m = 0
        for port in range(view.n_ports):
            if view.total_work(port) >= own_work or port == packet.port:
                joint_work += view.total_work(port)
                m += 1
        return self.admits(
            view.config, view.buffer_size, own_work, (m, joint_work)
        )


class LWD1(LWD):
    """LWD that never pushes out the last packet of a queue.

    Victim selection excludes singleton queues; if the max-virtual-work
    queue would be emptied, the next-heaviest multi-packet queue is
    targeted instead, and the arrival is dropped when none exists.
    """

    name = "LWD1"

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        own_virtual = view.total_work(packet.port) + view.work_of(packet.port)
        best_key = self._heaviest_multi_packet_queue(view, packet.port)
        if best_key is None:
            return DROP  # no multi-packet queue to raid
        if best_key[0] < own_virtual:
            # Every eligible victim carries less work than the arrival's
            # own queue would: plain LWD would drop here too (j* == i).
            return DROP
        return push_out(best_key[-1])

    @staticmethod
    def _heaviest_multi_packet_queue(
        view: SwitchView, own_port: int
    ) -> Optional[Tuple[int, int, int]]:
        """Max ``(W_j, w_j, j)`` over queues with ``j != own_port`` and
        at least two packets, or ``None`` when no queue qualifies."""
        best_key: Optional[Tuple[int, int, int]] = None
        for port in range(view.n_ports):
            if port == own_port or view.queue_len(port) < 2:
                continue
            key = (view.total_work(port), view.work_of(port), port)
            if best_key is None or key > best_key:
                best_key = key
        return best_key


class MRD1(MRD):
    """MRD that never pushes out the last packet of a queue.

    The max-ratio victim search is restricted to queues holding at least
    two packets, mirroring MVD₁'s refinement of MVD.
    """

    name = "MRD1"

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        buffer_min = view.buffer_min_value()
        if buffer_min is None or buffer_min >= packet.value:
            return DROP
        best_port = self._max_ratio_multi_packet_queue(view)
        if best_port is None:
            return DROP
        return push_out(best_port)

    @staticmethod
    def _max_ratio_multi_packet_queue(view: SwitchView) -> Optional[int]:
        best_key: Optional[Tuple[float, float, int]] = None
        best_port: Optional[int] = None
        for port in range(view.n_ports):
            if view.queue_len(port) < 2:
                continue
            ratio = view.queue_len(port) / view.avg_value(port)
            key = (ratio, -view.min_value(port), port)
            if best_key is None or key > best_key:
                best_key = key
                best_port = port
        return best_port


class RandomPushOut(PushOutPolicy):
    """Evict the tail of a uniformly random non-empty queue.

    A seeded control baseline: accepts greedily, and under congestion
    pushes out from a random non-empty queue other than the arrival's
    own (dropping when the arrival's queue is the only candidate). The
    instance owns its RNG, so runs are reproducible given the seed but
    the policy is *not* stateless — build a fresh instance per run when
    comparing traces.
    """

    name = "Random"

    def __init__(self, seed: int = 0) -> None:
        # Lazy import: this is the only numpy dependency in the policy
        # layer, and its decision stream is pinned to numpy's Generator
        # (a stdlib fallback would silently produce different victims
        # for the same seed). Without numpy the policy is unavailable
        # rather than subtly different.
        try:
            import numpy as np
        except ImportError:
            raise ConfigError(
                "the Random policy needs numpy (its victim stream is "
                "pinned to numpy.random.default_rng); install numpy or "
                "drop Random from the policy set"
            ) from None
        self._rng = np.random.default_rng(seed)

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        candidates = [
            port for port in view.nonempty_ports() if port != packet.port
        ]
        if not candidates:
            return DROP
        victim = int(self._rng.choice(candidates))
        return push_out(victim)
