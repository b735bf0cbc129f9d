"""Architecture comparison: single queue vs shared-memory switch (Fig. 1).

The paper's introduction motivates the shared-memory switch with two
claims about the classical single-queue design (one buffer, any core
processes any packet):

1. a single-queue PQ policy has **optimal throughput**, but
2. it **starves traffic with higher processing requirements** — "packets
   with higher processing requirements ... priorities ... rigged to the
   inverse of the processing requirements" — whereas per-type queues over
   a shared buffer serve every class.

This experiment makes both claims measurable on the same traffic: it runs
the single-queue PQ and FIFO systems and the shared-memory switch under
LWD, and reports total throughput plus per-class (per-work) throughput
shares and mean delays. Expected picture: single-queue PQ wins on raw
throughput, but its service of the heaviest classes collapses (high loss,
high delay), while LWD's per-class service stays roughly proportional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.config import SwitchConfig
from repro.core.metrics import SwitchMetrics
from repro.policies import make_policy
from repro.singlequeue import SingleQueueSystem
from repro.traffic.trace import Trace
from repro.traffic.workloads import processing_workload


@dataclass(frozen=True)
class ClassService:
    """Per-traffic-class service statistics for one system."""

    work: int
    offered: int
    transmitted: int
    mean_delay: float

    @property
    def acceptance(self) -> float:
        return self.transmitted / self.offered if self.offered else 0.0


@dataclass
class ArchitectureResult:
    """Side-by-side service profile of the compared systems."""

    config: SwitchConfig
    totals: Dict[str, int]
    per_class: Dict[str, List[ClassService]]

    def min_acceptance(self, system: str) -> float:
        """The worst-served class's acceptance rate. Zero means some
        traffic type receives no service at all — the paper's starvation
        complaint about the single-queue PQ."""
        return min(s.acceptance for s in self.per_class[system])

    def starvation_ratio(self, system: str) -> float:
        """Lightest class's acceptance rate over the heaviest class's —
        large values mean the heavy class is starved."""
        services = self.per_class[system]
        lightest = services[0]
        heaviest = services[-1]
        if heaviest.acceptance == 0:
            return float("inf") if lightest.acceptance > 0 else 1.0
        return lightest.acceptance / heaviest.acceptance

    def format_table(self) -> str:
        lines = []
        lines.append(
            "total transmitted: "
            + "  ".join(f"{k}={v}" for k, v in self.totals.items())
        )
        header = f"{'class':>6s}"
        systems = list(self.per_class)
        for system in systems:
            header += f"  {system + ' acc%':>12s}  {system + ' delay':>12s}"
        lines.append(header)
        n_classes = len(self.per_class[systems[0]])
        for idx in range(n_classes):
            row = f"{'w=' + str(self.per_class[systems[0]][idx].work):>6s}"
            for system in systems:
                service = self.per_class[system][idx]
                row += (
                    f"  {100 * service.acceptance:11.1f}%"
                    f"  {service.mean_delay:12.1f}"
                )
            lines.append(row)
        for system in systems:
            lines.append(
                f"starvation ratio ({system}): "
                f"{self.starvation_ratio(system):.2f}"
            )
        return "\n".join(lines)


def _class_profile(
    config: SwitchConfig, metrics: SwitchMetrics, offered: List[int]
) -> List[ClassService]:
    return [
        ClassService(
            work=config.work_of(port),
            offered=offered[port],
            transmitted=metrics.transmitted_by_port[port],
            mean_delay=metrics.mean_delay(port),
        )
        for port in range(config.n_ports)
    ]


def run_architecture_comparison(
    *,
    k: int = 8,
    buffer_size: int = 64,
    n_slots: int = 3000,
    load: float = 3.0,
    seed: int = 0,
    flush_every: Optional[int] = None,
    trace: Optional[Trace] = None,
) -> ArchitectureResult:
    """Compare single-queue PQ/FIFO against shared-memory LWD.

    All three systems consume the identical trace. Cores are matched:
    the single-queue systems get ``k`` cores, the shared-memory switch
    has ``k`` ports with one core each.
    """
    config = SwitchConfig.contiguous(k, buffer_size)
    if trace is None:
        trace = processing_workload(config, n_slots, load=load, seed=seed)
    offered = trace.per_port_counts(config.n_ports)

    systems = {
        "SQ-PQ": SingleQueueSystem(config, discipline="pq"),
        "SQ-FIFO": SingleQueueSystem(config, discipline="fifo"),
        "SM-LWD": PolicySystem(config, make_policy("LWD")),
    }
    totals: Dict[str, int] = {}
    per_class: Dict[str, List[ClassService]] = {}
    for name, system in systems.items():
        metrics = run_system(system, trace, flush_every=flush_every)
        totals[name] = metrics.transmitted_packets
        per_class[name] = _class_profile(config, metrics, offered)
    return ArchitectureResult(
        config=config, totals=totals, per_class=per_class
    )
