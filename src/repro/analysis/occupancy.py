"""Buffer-sharing analysis: how policies partition the shared buffer.

The paper frames the shared-memory switch as interpolating between
*complete sharing* (one port may monopolize the buffer; maximal
utilization, no fairness) and *complete partitioning* (NEST; perfect
fairness, wasted space). This module measures where a policy actually
lands on that spectrum over a run:

* per-port occupancy time series (sampled every slot, summarized as mean
  shares);
* buffer utilization (mean occupancy over ``B``);
* a *sharing index*: the Jain index of the time-averaged per-port
  occupancies — 1.0 for a perfectly even split, ``1/n`` for a single
  monopolist.

The expected picture, asserted in tests: NEST shows maximal evenness but
the lowest utilization; greedy push-out policies push utilization to ~1
under overload; LWD's occupancy shares track ``1/w_i`` (equal *work* per
queue means packet counts proportional to ``1/w``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.competitive import PolicySystem, run_system
from repro.analysis.fairness import jain_index
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.core.switch import AdmissionPolicy, SharedMemorySwitch
from repro.obs.observer import SlotObserver
from repro.traffic.trace import Trace


@dataclass
class OccupancyProfile:
    """Time-averaged buffer-sharing statistics of one run."""

    policy_name: str
    buffer_size: int
    slots: int
    mean_occupancy_by_port: List[float]

    @property
    def mean_total_occupancy(self) -> float:
        return sum(self.mean_occupancy_by_port)

    @property
    def utilization(self) -> float:
        """Mean fraction of the shared buffer in use."""
        return self.mean_total_occupancy / self.buffer_size

    @property
    def shares(self) -> List[float]:
        """Per-port fraction of the occupied buffer (zeros when idle)."""
        total = self.mean_total_occupancy
        if total == 0:
            return [0.0] * len(self.mean_occupancy_by_port)
        return [x / total for x in self.mean_occupancy_by_port]

    @property
    def sharing_index(self) -> float:
        """Jain index of the occupancy shares (1.0 = complete
        partitioning's evenness, 1/n = single-port monopoly)."""
        return jain_index(self.mean_occupancy_by_port)

    def summary(self) -> str:
        return (
            f"{self.policy_name}: utilization {self.utilization:.3f}, "
            f"sharing index {self.sharing_index:.3f}"
        )


class _QueueLengthSums(SlotObserver):
    """Sums each queue's length at every slot end (idle slots add 0)."""

    def __init__(self, switch: SharedMemorySwitch) -> None:
        self.queues = switch.queues
        self.sums = [0.0] * len(switch.queues)

    def on_slot_end(self, slot: int, occupancy: int) -> None:
        sums = self.sums
        for port, queue in enumerate(self.queues):
            sums[port] += len(queue)


def occupancy_profile(
    policy: AdmissionPolicy,
    trace: Trace,
    config: SwitchConfig,
    *,
    flush_every: Optional[int] = None,
) -> OccupancyProfile:
    """Replay a trace, sampling per-port occupancy at every slot end.

    The replay is :func:`~repro.analysis.competitive.run_system` on a
    reference-engine switch, so flushouts and port churn apply exactly
    as in every other measurement.
    """
    if trace.n_slots == 0:
        raise ConfigError("occupancy profile of an empty trace")
    system = PolicySystem(config, policy)
    sums = _QueueLengthSums(system.switch)
    run_system(system, trace, flush_every=flush_every, observer=sums)
    return OccupancyProfile(
        policy_name=getattr(policy, "name", type(policy).__name__),
        buffer_size=config.buffer_size,
        slots=trace.n_slots,
        mean_occupancy_by_port=[s / trace.n_slots for s in sums.sums],
    )


def compare_sharing(
    policy_names: Sequence[str],
    trace: Trace,
    config: SwitchConfig,
    *,
    flush_every: Optional[int] = None,
) -> List[OccupancyProfile]:
    """Occupancy profiles of several policies on the same trace."""
    from repro.policies import make_policy  # local import to avoid cycles

    return [
        occupancy_profile(
            make_policy(name), trace, config, flush_every=flush_every
        )
        for name in policy_names
    ]
