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
   flap workloads on *both* engines against the OPT surrogate. The two
   engines are contract-equal (docs/PIPELINE.md), so the suite asserts
   their measured objectives agree to the byte and reports a single
   ratio per cell.

``repro run dynamic`` renders the result table; the CI smoke job runs a
scaled-down version of the same suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.competitive import (
    ENGINES,
    measure_competitive_ratio,
    run_scenario,
)
from repro.core.config import BufferModel, SwitchConfig
from repro.core.errors import ConfigError, ExperimentError
from repro.policies import make_policy
from repro.traffic.dynamic import (
    DYNAMIC_SCENARIOS,
    oversubscription_spike_workload,
    port_flap_workload,
)

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
    policy throughput, identical across engines by contract (the suite
    verifies this before building the cell).
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
    engines: Tuple[str, ...] = ENGINES

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
            lines.append(
                "workload matrix (OPT surrogate; engines "
                + "/".join(self.engines)
                + " agree byte-for-byte):"
            )
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


def run_dynamic_suite(
    *,
    n_ports: int = 8,
    buffer_size: int = 64,
    n_slots: int = 600,
    load: float = 0.8,
    seed: int = 0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    engines: Sequence[str] = ENGINES,
    reserved_per_port: int = 2,
    include_adversarial: bool = True,
) -> DynamicScenarioResult:
    """Run the dynamic scenario family and cross-check both engines.

    Every (workload, buffer model, policy) cell is measured once per
    engine in ``engines`` (the policy's switch and the OPT surrogate
    both on that engine); the runs must agree on the objective and the
    ratio exactly (they are decision-identical by contract) or the
    suite raises
    :class:`~repro.core.errors.ExperimentError`.
    """
    if n_slots < 1:
        raise ConfigError(f"n_slots must be positive, got {n_slots}")
    if not policies:
        raise ConfigError("dynamic suite needs at least one policy")
    if not engines:
        raise ConfigError("dynamic suite needs at least one engine")
    result = DynamicScenarioResult(engines=tuple(engines))

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

    shared_config = SwitchConfig.uniform(n_ports, buffer_size)
    split_config = SwitchConfig.uniform(
        n_ports,
        buffer_size,
        buffer_model=_split_model(
            SwitchConfig.uniform(n_ports, buffer_size), reserved_per_port
        ),
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
    for wname, trace in workloads.items():
        for mname, config in models.items():
            for policy_name in policies:
                ratios: Dict[str, float] = {}
                objectives: Dict[str, float] = {}
                for engine in engines:
                    measured = measure_competitive_ratio(
                        make_policy(policy_name),
                        trace,
                        config,
                        by_value=False,
                        opt="surrogate",
                        engine=engine,
                    )
                    ratios[engine] = measured.ratio
                    objectives[engine] = measured.alg_objective
                if (
                    len(set(objectives.values())) != 1
                    or len(set(ratios.values())) != 1
                ):
                    raise ExperimentError(
                        f"engines disagree on {wname}/{mname}/"
                        f"{policy_name}: objectives {objectives}, "
                        f"ratios {ratios}"
                    )
                first = next(iter(ratios))
                result.cells.append(
                    ScenarioCell(
                        workload=wname,
                        buffer_model=mname,
                        policy=policy_name,
                        ratio=ratios[first],
                        objective=objectives[first],
                    )
                )
    return result
