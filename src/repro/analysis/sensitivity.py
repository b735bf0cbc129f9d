"""One-at-a-time sensitivity analysis of the competitive ratio.

The paper's Fig. 5 sweeps one parameter per panel. This module runs the
complementary analysis for any pair of policies: starting from a base
operating point, each knob (buffer size, maximal work, offered load,
source duty cycle) is moved down/up one step while everything else stays
fixed, and the effect on each policy's ratio — and on the *gap* between
the two — is tabulated. A tornado-style summary shows which knob
dominates, which is how we chose the calibration documented in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.competitive import measure_policies
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.workloads import processing_workload


@dataclass(frozen=True)
class OperatingPoint:
    """A full parameterization of one processing-model measurement."""

    k: int = 8
    buffer_size: int = 64
    load: float = 3.0
    duty_cycle: float = 0.01  # ON fraction of each source
    mean_on_slots: float = 20.0
    n_slots: int = 1200
    seed: int = 0
    flush_every: Optional[int] = 400

    def with_changes(self, **changes) -> "OperatingPoint":
        data = {
            "k": self.k,
            "buffer_size": self.buffer_size,
            "load": self.load,
            "duty_cycle": self.duty_cycle,
            "mean_on_slots": self.mean_on_slots,
            "n_slots": self.n_slots,
            "seed": self.seed,
            "flush_every": self.flush_every,
        }
        data.update(changes)
        return OperatingPoint(**data)

    @property
    def mean_off_slots(self) -> float:
        if not 0.0 < self.duty_cycle < 1.0:
            raise ConfigError(
                f"duty cycle must be in (0, 1), got {self.duty_cycle}"
            )
        return self.mean_on_slots * (1.0 - self.duty_cycle) / self.duty_cycle


#: Knob name -> (down multiplier, up multiplier) applied to the base.
DEFAULT_KNOBS: Dict[str, Tuple[float, float]] = {
    "buffer_size": (0.5, 2.0),
    "k": (0.5, 2.0),
    "load": (0.67, 1.5),
    "duty_cycle": (0.25, 4.0),
}


@dataclass(frozen=True)
class SensitivityRow:
    """Effect of one knob on both policies' ratios."""

    knob: str
    low_value: float
    high_value: float
    ratios_low: Dict[str, float]
    ratios_high: Dict[str, float]
    base_gap: float

    def gap(self, ratios: Dict[str, float]) -> float:
        names = list(ratios)
        return ratios[names[1]] - ratios[names[0]]

    @property
    def gap_swing(self) -> float:
        """Magnitude of the knob's effect on the inter-policy gap."""
        return abs(self.gap(self.ratios_high) - self.gap(self.ratios_low))


@dataclass
class SensitivityReport:
    policy_a: str
    policy_b: str
    base: OperatingPoint
    base_ratios: Dict[str, float]
    rows: List[SensitivityRow]

    def tornado(self) -> List[Tuple[str, float]]:
        """Knobs ordered by their effect on the A-vs-B gap."""
        return sorted(
            ((row.knob, row.gap_swing) for row in self.rows),
            key=lambda item: -item[1],
        )

    def format_table(self) -> str:
        a, b = self.policy_a, self.policy_b
        lines = [
            f"base: {a}={self.base_ratios[a]:.3f} "
            f"{b}={self.base_ratios[b]:.3f} "
            f"(gap {self.base_ratios[b] - self.base_ratios[a]:+.3f})"
        ]
        header = (
            f"{'knob':>12s} {'low':>8s} {'high':>8s} "
            f"{a + '@lo':>8s} {b + '@lo':>8s} "
            f"{a + '@hi':>8s} {b + '@hi':>8s} {'swing':>7s}"
        )
        lines.append(header)
        for row in self.rows:
            lines.append(
                f"{row.knob:>12s} {row.low_value:8.3g} "
                f"{row.high_value:8.3g} "
                f"{row.ratios_low[a]:8.3f} {row.ratios_low[b]:8.3f} "
                f"{row.ratios_high[a]:8.3f} {row.ratios_high[b]:8.3f} "
                f"{row.gap_swing:7.3f}"
            )
        return "\n".join(lines)


def _measure(point: OperatingPoint, policies: Tuple[str, str]) -> Dict[str, float]:
    config = SwitchConfig.contiguous(point.k, max(point.buffer_size, point.k))
    trace = processing_workload(
        config,
        point.n_slots,
        load=point.load,
        seed=point.seed,
        mean_on_slots=point.mean_on_slots,
        mean_off_slots=point.mean_off_slots,
    )
    outcomes = measure_policies(
        [make_policy(name) for name in policies], trace, config,
        by_value=False, flush_every=point.flush_every,
    )
    return {
        name: outcome.ratio for name, outcome in zip(policies, outcomes)
    }


def run_sensitivity(
    policy_a: str = "LWD",
    policy_b: str = "LQD",
    *,
    base: Optional[OperatingPoint] = None,
    knobs: Optional[Dict[str, Tuple[float, float]]] = None,
) -> SensitivityReport:
    """One-at-a-time sensitivity of two policies' ratios and their gap."""
    base = base or OperatingPoint()
    knobs = knobs or DEFAULT_KNOBS
    policies = (policy_a, policy_b)
    base_ratios = _measure(base, policies)
    base_gap = base_ratios[policy_b] - base_ratios[policy_a]

    rows: List[SensitivityRow] = []
    for knob, (down, up) in knobs.items():
        base_value = getattr(base, knob)
        low_value = base_value * down
        high_value = base_value * up
        if knob in ("buffer_size", "k"):
            low_value = max(2, int(round(low_value)))
            high_value = max(2, int(round(high_value)))
        low = base.with_changes(**{knob: low_value})
        high = base.with_changes(**{knob: high_value})
        rows.append(
            SensitivityRow(
                knob=knob,
                low_value=float(low_value),
                high_value=float(high_value),
                ratios_low=_measure(low, policies),
                ratios_high=_measure(high, policies),
                base_gap=base_gap,
            )
        )
    return SensitivityReport(
        policy_a=policy_a,
        policy_b=policy_b,
        base=base,
        base_ratios=base_ratios,
        rows=rows,
    )
