"""Dynamic shared-buffer scenario family: churn and oversubscription.

The Fig. 5 sweeps measure the paper's policies on a *static* switch.
This experiment family measures buffer sharing under operational
dynamics — admin-down/up port churn and oversubscription spikes — and
folds in the two dynamic-threshold policies the static figures do not
exercise:

* ``Harmonic`` — the (2 + ln n)-competitive harmonic allocation
  (arXiv:2511.06514);
* ``DT`` — the Choudhury–Hahne dynamic alpha-threshold.

Two layers:

1. The adversarial layer replays :data:`repro.traffic.dynamic
   .DYNAMIC_SCENARIOS` (churn collapse, oversubscription squeeze)
   against the scripted clairvoyant OPT and reports predicted vs
   measured ratios, exactly like the theorem experiments.
2. The stochastic layer sweeps the policy line-up over the spike and
   flap workloads against the OPT surrogate, one ratio per cell, on the
   vectorized engine where it serves the pair (the split buffer model
   falls back to the reference engine).
   ``benchmarks/test_engine_parity.py`` replays the same cells on the
   reference engine and requires equal objectives.

``repro run dynamic`` renders the result table; the CI smoke job runs a
scaled-down version of the same suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.analysis.competitive import measure_policies, run_scenario
from repro.core.config import BufferModel, SwitchConfig
from repro.core.errors import ConfigError, ExperimentError
from repro.policies import make_policy
from repro.traffic.dynamic import (
    DYNAMIC_SCENARIOS,
    oversubscription_spike_workload,
    port_flap_workload,
)
from repro.traffic.trace import Trace

#: Default line-up: the paper's strongest push-out policy plus the two
#: dynamic-threshold policies this family exists to exercise.
DEFAULT_POLICIES: Tuple[str, ...] = ("LQD", "Harmonic", "DT")


@dataclass(frozen=True)
class AdversarialRow:
    """One dynamic lower-bound construction, predicted vs measured."""

    scenario: str
    target_policy: str
    predicted_ratio: float
    measured_ratio: float


@dataclass(frozen=True)
class ScenarioCell:
    """One (workload, buffer model, policy) measurement.

    ``ratio`` is against the OPT surrogate; ``objective`` is the raw
    policy throughput.
    """

    workload: str
    buffer_model: str
    policy: str
    ratio: float
    objective: float


@dataclass
class DynamicScenarioResult:
    """Everything ``repro run dynamic`` reports."""

    adversarial: List[AdversarialRow] = field(default_factory=list)
    cells: List[ScenarioCell] = field(default_factory=list)

    def cell(
        self, workload: str, buffer_model: str, policy: str
    ) -> ScenarioCell:
        for item in self.cells:
            if (
                item.workload == workload
                and item.buffer_model == buffer_model
                and item.policy == policy
            ):
                return item
        raise ExperimentError(
            f"no cell ({workload}, {buffer_model}, {policy})"
        )

    def format_table(self) -> str:
        lines: List[str] = []
        if self.adversarial:
            lines.append("adversarial constructions (scripted OPT):")
            for row in self.adversarial:
                lines.append(
                    f"  {row.scenario:<28} target={row.target_policy:<5} "
                    f"predicted={row.predicted_ratio:7.4f} "
                    f"measured={row.measured_ratio:7.4f}"
                )
        if self.cells:
            lines.append("workload matrix (OPT surrogate):")
            header = f"  {'workload':<10} {'buffer':<8}"
            policies = sorted({c.policy for c in self.cells})
            for name in policies:
                header += f" {name:>9}"
            lines.append(header)
            seen: List[Tuple[str, str]] = []
            for item in self.cells:
                key = (item.workload, item.buffer_model)
                if key in seen:
                    continue
                seen.append(key)
                row_txt = f"  {item.workload:<10} {item.buffer_model:<8}"
                for name in policies:
                    row_txt += (
                        f" {self.cell(*key, name).ratio:9.4f}"
                    )
                lines.append(row_txt)
        return "\n".join(lines)


def _split_model(config: SwitchConfig, reserved_per_port: int) -> BufferModel:
    n = config.n_ports
    pool = config.buffer_size - reserved_per_port * n
    if pool < 0:
        raise ConfigError(
            f"{reserved_per_port} reserved slots x {n} ports exceed "
            f"B={config.buffer_size}"
        )
    return BufferModel.split((reserved_per_port,) * n, pool)


def workload_matrix(
    *,
    n_ports: int = 8,
    buffer_size: int = 64,
    n_slots: int = 600,
    load: float = 0.8,
    seed: int = 0,
    reserved_per_port: int = 2,
) -> List[Tuple[str, str, SwitchConfig, Trace]]:
    """The stochastic layer's ``(workload, buffer model, config,
    trace)`` rows: the spike and the flap trace, each replayed on a
    purely shared buffer and on one with ``reserved_per_port`` slots
    reserved per port."""
    if n_slots < 1:
        raise ConfigError(f"n_slots must be positive, got {n_slots}")
    shared_config = SwitchConfig.uniform(n_ports, buffer_size)
    split_config = SwitchConfig.uniform(
        n_ports,
        buffer_size,
        buffer_model=_split_model(shared_config, reserved_per_port),
    )
    workloads = {
        "spike": oversubscription_spike_workload(
            shared_config, n_slots, load=load, seed=seed
        ),
        "flap": port_flap_workload(
            shared_config, n_slots, load=load, seed=seed
        ),
    }
    models = {"shared": shared_config, "split": split_config}
    return [
        (wname, mname, config, trace)
        for wname, trace in workloads.items()
        for mname, config in models.items()
    ]


def run_dynamic_suite(
    *,
    n_ports: int = 8,
    buffer_size: int = 64,
    n_slots: int = 600,
    load: float = 0.8,
    seed: int = 0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    reserved_per_port: int = 2,
    include_adversarial: bool = True,
) -> DynamicScenarioResult:
    """Run the dynamic scenario family.

    Every row of :func:`workload_matrix` replays the OPT surrogate once
    and each policy once, on the vectorized engine where it serves the
    pair.
    """
    if not policies:
        raise ConfigError("dynamic suite needs at least one policy")
    result = DynamicScenarioResult()

    if include_adversarial:
        for label, builder in DYNAMIC_SCENARIOS.items():
            scenario = builder()  # type: ignore[operator]
            outcome = run_scenario(scenario)
            result.adversarial.append(
                AdversarialRow(
                    scenario=scenario.name,
                    target_policy=scenario.target_policy,
                    predicted_ratio=scenario.predicted_ratio,
                    measured_ratio=outcome.ratio,
                )
            )

    rows = workload_matrix(
        n_ports=n_ports,
        buffer_size=buffer_size,
        n_slots=n_slots,
        load=load,
        seed=seed,
        reserved_per_port=reserved_per_port,
    )
    for wname, mname, config, trace in rows:
        outcomes = measure_policies(
            [make_policy(name) for name in policies],
            trace,
            config,
            by_value=False,
            engine="vectorized",
        )
        for policy_name, measured in zip(policies, outcomes):
            result.cells.append(
                ScenarioCell(
                    workload=wname,
                    buffer_model=mname,
                    policy=policy_name,
                    ratio=measured.ratio,
                    objective=measured.alg_objective,
                )
            )
    return result
