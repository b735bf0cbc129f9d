"""Robustness of the paper's policy ranking across traffic families.

Fig. 5's conclusions ("LWD best, BPD worst, non-push-out in between") are
measured under one traffic model. This experiment re-measures the
processing-model line-up under structurally different generators —
memoryless Poisson, deterministic rotating bursts, heavy-tailed Pareto
bursts, and the paper's MMPP — and reports the per-family ranking, so a
reader can see which conclusions are traffic-model artifacts and which
are robust.

Expected outcome (and what the benchmarks assert): LWD never loses its
top spot under bursty families; under smooth Poisson overload all
work-conserving policies collapse onto each other (the burstiness
ablation's point), so "ties" there are expected rather than a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.competitive import measure_policies
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.patterns import (
    heavy_tailed_workload,
    periodic_burst_workload,
    poisson_workload,
)
from repro.traffic.trace import Trace
from repro.traffic.workloads import processing_workload

#: Default policy line-up (the paper's processing-model policies).
DEFAULT_POLICIES: Tuple[str, ...] = (
    "NHST", "NEST", "NHDT", "LQD", "BPD", "BPD1", "LWD",
)


def _traffic_families(
    config: SwitchConfig, n_slots: int, load: float, seed: int
) -> Dict[str, Trace]:
    return {
        "mmpp": processing_workload(
            config, n_slots, load=load, seed=seed
        ),
        "poisson": poisson_workload(
            config, n_slots, load=load, seed=seed
        ),
        "periodic": periodic_burst_workload(
            config, n_slots,
            period=60,
            burst_per_port=int(load * 60 / config.n_ports *
                               config.inverse_work_sum) or 1,
            seed=seed,
        ),
        "pareto": heavy_tailed_workload(
            config, n_slots, load=load, seed=seed
        ),
    }


@dataclass
class RobustnessResult:
    """Per-family ratio tables and ranking helpers."""

    config: SwitchConfig
    ratios: Dict[str, Dict[str, float]]  # family -> policy -> ratio

    def ranking(self, family: str) -> List[str]:
        """Policies from best (lowest ratio) to worst for one family."""
        row = self.ratios[family]
        return sorted(row, key=lambda name: row[name])

    def best_policy(self, family: str) -> str:
        return self.ranking(family)[0]

    def format_table(self) -> str:
        policies = list(next(iter(self.ratios.values())))
        header = ["  family".ljust(10)] + [p.rjust(8) for p in policies]
        lines = ["  ".join(header)]
        for family, row in self.ratios.items():
            cells = [family.ljust(10)]
            cells.extend(f"{row[p]:8.3f}" for p in policies)
            lines.append("  ".join(cells))
        return "\n".join(lines)


def run_robustness_study(
    *,
    k: int = 8,
    buffer_size: int = 64,
    n_slots: int = 1500,
    load: float = 3.0,
    seed: int = 0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    flush_every: Optional[int] = 400,
) -> RobustnessResult:
    """Measure the policy line-up under each traffic family."""
    if not policies:
        raise ConfigError("robustness study needs at least one policy")
    config = SwitchConfig.contiguous(k, buffer_size)
    families = _traffic_families(config, n_slots, load, seed)
    ratios: Dict[str, Dict[str, float]] = {}
    for family, trace in families.items():
        outcomes = measure_policies(
            [make_policy(name) for name in policies], trace, config,
            by_value=False, flush_every=flush_every,
        )
        ratios[family] = {
            name: outcome.ratio for name, outcome in zip(policies, outcomes)
        }
    return RobustnessResult(config=config, ratios=ratios)
