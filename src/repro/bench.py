"""Pinned workload panels and the panel timer.

Ten frozen panels. Eight exercise the simulation hot path from three
directions, in small-``n`` and large-``n`` flavors; two more cover
dynamic buffers:

* **uniform** — memoryless Poisson traffic at moderate overload: the
  generic regime, buffer mostly full, moderate congestion.
* **mmpp** — the paper's Section V-A bursty on/off traffic: long idle
  stretches punctuated by bursts.
* **adversarial** — saturating bursts of ~1.5n packets every slot
  against a small buffer, so *every* arrival lands on a full buffer and
  the push-out victim search dominates. This is the Fig. 5 large-``n``
  high-congestion regime where naive O(n)-per-arrival selectors turn
  quadratic.
* **dynamic** — port flaps on a shared buffer and an oversubscription
  spike on a split buffer (reserved slots per port).

The golden fixture (:mod:`repro.goldens`) pins every panel's decision
stream, and ``repro trace --scenario`` records one as a JSONL event
trace. :func:`run_panel_bench` times one panel's pinned policies on
one engine; the engine floors in ``benchmarks/test_fastpath_perf.py``
compare the vectorized engine against the reference engine measured
in the same process, so they gate the engine, not the host. Per-policy
*objectives* come with the timings: two engines that disagree on one
simulated different decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.patterns import poisson_workload, saturating_workload
from repro.traffic.trace import Trace
from repro.traffic.workloads import processing_workload, value_uniform_workload


@dataclass(frozen=True)
class BenchPanel:
    """One pinned benchmark workload: a config, a trace recipe, policies.

    Panels are frozen on purpose: goldens, engine floors and recorded
    traces are only comparable when they replay *the same computation*.
    Scale runs up or down with ``slots_scale`` rather than by editing
    panel definitions.
    """

    name: str
    model: str  # "processing" | "value"
    workload: str  # "uniform" | "mmpp" | "adversarial" | "spike" | "flap"
    n_ports: int
    buffer_size: int
    n_slots: int
    seed: int
    policies: Tuple[str, ...]
    load: float = 2.0
    #: Per-port reserved slots; 0 keeps the paper's purely shared model.
    reserved_per_port: int = 0

    def config(self) -> SwitchConfig:
        model = None
        if self.reserved_per_port:
            from repro.core.config import BufferModel

            model = BufferModel.split(
                (self.reserved_per_port,) * self.n_ports,
                self.buffer_size - self.reserved_per_port * self.n_ports,
            )
        if self.model == "processing":
            config = SwitchConfig.contiguous(
                self.n_ports, self.buffer_size
            )
        else:
            config = SwitchConfig.value_contiguous(
                self.n_ports, self.buffer_size
            )
        if model is None:
            return config
        return SwitchConfig(
            buffer_size=config.buffer_size,
            ports=config.ports,
            speedup=config.speedup,
            discipline=config.discipline,
            buffer_model=model,
        )

    def trace(self, slots_scale: float = 1.0) -> Trace:
        """The panel's pinned trace."""
        n_slots = max(1, int(round(self.n_slots * slots_scale)))
        config = self.config()
        if self.workload == "uniform":
            return poisson_workload(
                config, n_slots, load=self.load, seed=self.seed
            )
        if self.workload == "mmpp":
            if self.model == "processing":
                return processing_workload(
                    config, n_slots, load=self.load, seed=self.seed
                )
            return value_uniform_workload(
                config, n_slots, 16, load=self.load, seed=self.seed
            )
        if self.workload == "adversarial":
            return saturating_workload(config, n_slots, seed=self.seed)
        if self.workload == "spike":
            from repro.traffic.dynamic import oversubscription_spike_workload

            return oversubscription_spike_workload(
                config, n_slots, load=self.load, seed=self.seed
            )
        if self.workload == "flap":
            from repro.traffic.dynamic import port_flap_workload

            return port_flap_workload(
                config, n_slots, load=self.load, seed=self.seed
            )
        raise ConfigError(f"unknown bench workload {self.workload!r}")


_PROC_POLICIES = ("LQD", "LWD", "BPD")
_VALUE_POLICIES = ("LQD-V", "MVD", "MRD")
_DYNAMIC_POLICIES = ("LQD", "Harmonic", "DT")

#: The pinned panel set. Names are stable identifiers used by the golden
#: fixture, ``repro trace --scenario`` and the engine floors.
PANELS: Dict[str, BenchPanel] = {
    panel.name: panel
    for panel in (
        BenchPanel(
            name="uniform-proc-small",
            model="processing",
            workload="uniform",
            n_ports=8,
            buffer_size=64,
            n_slots=2000,
            seed=11,
            policies=_PROC_POLICIES,
            load=1.4,
        ),
        BenchPanel(
            name="uniform-proc-large",
            model="processing",
            workload="uniform",
            n_ports=96,
            buffer_size=384,
            n_slots=300,
            seed=11,
            policies=_PROC_POLICIES,
            load=1.4,
        ),
        BenchPanel(
            name="mmpp-proc-small",
            model="processing",
            workload="mmpp",
            n_ports=8,
            buffer_size=64,
            n_slots=2000,
            seed=12,
            policies=_PROC_POLICIES,
            load=2.0,
        ),
        BenchPanel(
            name="mmpp-proc-large",
            model="processing",
            workload="mmpp",
            n_ports=96,
            buffer_size=384,
            n_slots=300,
            seed=12,
            policies=_PROC_POLICIES,
            load=2.0,
        ),
        BenchPanel(
            name="adversarial-proc-small",
            model="processing",
            workload="adversarial",
            n_ports=8,
            buffer_size=32,
            n_slots=1500,
            seed=13,
            policies=_PROC_POLICIES,
        ),
        BenchPanel(
            name="adversarial-proc-large",
            model="processing",
            workload="adversarial",
            n_ports=96,
            buffer_size=192,
            n_slots=250,
            seed=13,
            policies=_PROC_POLICIES,
        ),
        BenchPanel(
            name="adversarial-value-small",
            model="value",
            workload="adversarial",
            n_ports=8,
            buffer_size=32,
            n_slots=1500,
            seed=14,
            policies=_VALUE_POLICIES,
        ),
        BenchPanel(
            name="adversarial-value-large",
            model="value",
            workload="adversarial",
            n_ports=96,
            buffer_size=192,
            n_slots=250,
            seed=14,
            policies=_VALUE_POLICIES,
        ),
        BenchPanel(
            name="dynamic-flap-small",
            model="processing",
            workload="flap",
            n_ports=8,
            buffer_size=64,
            n_slots=1500,
            seed=15,
            policies=_DYNAMIC_POLICIES,
            load=0.9,
        ),
        BenchPanel(
            name="dynamic-split-small",
            model="processing",
            workload="spike",
            n_ports=8,
            buffer_size=64,
            n_slots=1500,
            seed=16,
            policies=_DYNAMIC_POLICIES,
            load=0.9,
            reserved_per_port=2,
        ),
    )
}



@dataclass
class PolicyTiming:
    """Wall-clock of one policy over one panel's trace, and the engine
    that ran it (``PolicySystem.engine``: a vectorized pair with no
    kernel runs on the reference engine)."""

    policy: str
    engine: str
    elapsed_s: float
    n_slots: int
    objective: float


@dataclass
class PanelResult:
    """All policy timings of one panel plus aggregates."""

    panel: BenchPanel
    timings: List[PolicyTiming] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return sum(t.elapsed_s for t in self.timings)

    @property
    def slots_per_s(self) -> float:
        """Aggregate throughput: simulated slots over wall-clock, summed
        across policy runs (the engine floors' headline number)."""
        elapsed = self.elapsed_s
        total_slots = sum(t.n_slots for t in self.timings)
        return total_slots / elapsed if elapsed > 0 else 0.0

    def objectives(self) -> Dict[str, float]:
        return {t.policy: t.objective for t in self.timings}


def run_panel_bench(
    panel: BenchPanel,
    engine: str = "vectorized",
    *,
    slots_scale: float = 1.0,
) -> PanelResult:
    """Time every pinned policy of one panel over its pinned trace.

    ``engine`` is one of :data:`repro.analysis.competitive.ENGINES`.
    Trace generation is excluded from the timed region, and so is, on
    the reference engine, building the packet view it reads; the timer
    wraps exactly the slot loop
    (:func:`repro.analysis.competitive.run_system`). On the vectorized
    engine every replay reads the trace's columns, and the first one
    also validates them; the other policies reuse that check.
    """
    trace = panel.trace(slots_scale)
    if engine == "reference":
        _ = trace.slots
    config = panel.config()
    by_value = config.discipline is QueueDiscipline.PRIORITY
    result = PanelResult(panel=panel)
    for policy_name in panel.policies:
        system = PolicySystem(config, make_policy(policy_name), engine=engine)
        started = time.perf_counter()
        metrics = run_system(system, trace)
        elapsed = time.perf_counter() - started
        result.timings.append(
            PolicyTiming(
                policy=policy_name,
                engine=system.engine,
                elapsed_s=elapsed,
                n_slots=trace.n_slots,
                objective=metrics.objective(by_value),
            )
        )
    return result
