"""Name -> experiment lookup shared by the CLI, benches, and docs.

Two experiment families exist:

* ``fig5-1`` .. ``fig5-9`` — MMPP sweeps against the OPT surrogate
  (:mod:`repro.experiments.fig5`);
* ``thm1``, ``thm3``, ``thm4``, ``thm5``, ``thm6``, ``thm9``, ``thm10``,
  ``thm11`` — adversarial lower-bound constructions replayed against the
  scripted clairvoyant OPT (:mod:`repro.traffic.adversarial`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.analysis.competitive import CompetitiveResult, run_scenario
from repro.core.errors import ExperimentError
from repro.experiments.fig5 import PANELS, run_panel

if TYPE_CHECKING:
    from repro.traffic.adversarial import AdversarialScenario


def _adversarial():
    """:mod:`repro.traffic.adversarial`, imported when a theorem scenario
    is built rather than with the registry."""
    from repro.traffic import adversarial

    return adversarial


@dataclass(frozen=True)
class TheoremExperiment:
    """A lower-bound validation experiment with sensible default sizes."""

    experiment_id: str
    title: str
    build: Callable[[], AdversarialScenario]

    def run(self) -> tuple[AdversarialScenario, CompetitiveResult]:
        scenario = self.build()
        return scenario, run_scenario(scenario)


THEOREM_EXPERIMENTS: Dict[str, TheoremExperiment] = {
    "thm1": TheoremExperiment(
        "thm1",
        "Theorem 1: NHST >= kZ (contiguous: k*H_k)",
        lambda: _adversarial().thm1_nhst(k=8, buffer_size=240),
    ),
    "thm3": TheoremExperiment(
        "thm3",
        "Theorem 3: NHDT >= ~(1/2) sqrt(k ln k)",
        lambda: _adversarial().thm3_nhdt(k=16, buffer_size=480),
    ),
    "thm4": TheoremExperiment(
        "thm4",
        "Theorem 4: LQD >= ~sqrt(k)",
        lambda: _adversarial().thm4_lqd(k=16, buffer_size=480),
    ),
    "thm5": TheoremExperiment(
        "thm5",
        "Theorem 5: BPD >= H_k >= ln k + gamma",
        lambda: _adversarial().thm5_bpd(k=8, buffer_size=120, n_slots=400),
    ),
    "thm6": TheoremExperiment(
        "thm6",
        "Theorem 6: LWD >= 4/3 - 6/B (contiguous case)",
        lambda: _adversarial().thm6_lwd(buffer_size=240),
    ),
    "thm9": TheoremExperiment(
        "thm9",
        "Theorem 9: value-model LQD >= ~cbrt(k)",
        lambda: _adversarial().thm9_lqd_value(k=27, buffer_size=300),
    ),
    "thm10": TheoremExperiment(
        "thm10",
        "Theorem 10: MVD >= (m-1)/2",
        lambda: _adversarial().thm10_mvd(k=12, buffer_size=120, n_slots=300),
    ),
    "thm11": TheoremExperiment(
        "thm11",
        "Theorem 11: MRD >= ~4/3 (value = port)",
        lambda: _adversarial().thm11_mrd(buffer_size=240),
    ),
}


#: Extra experiments beyond the paper's figures and theorems.
EXTRA_EXPERIMENTS = {
    "skew": (
        "skewed port-value distributions: MRD-vs-LQD gap across traffic "
        "skews (Section V-C's closing observation)"
    ),
    "arch": (
        "architecture comparison: single-queue PQ/FIFO vs shared-memory "
        "LWD — throughput vs per-class starvation (Fig. 1 / Section I)"
    ),
    "robust": (
        "ranking robustness: the processing-model line-up across MMPP, "
        "Poisson, periodic-burst, and Pareto traffic families"
    ),
    "dynamic": (
        "dynamic shared-buffer scenarios: churn/oversubscription "
        "adversaries plus the Harmonic and DT policies across spike "
        "and port-flap workloads on shared and split buffers"
    ),
}


def list_experiments() -> List[str]:
    """All experiment ids in presentation order."""
    panel_ids = [spec.experiment_id for spec in PANELS.values()]
    return panel_ids + list(THEOREM_EXPERIMENTS) + list(EXTRA_EXPERIMENTS)


def describe_experiment(experiment_id: str) -> str:
    if experiment_id.startswith("fig5-"):
        panel = _panel_number(experiment_id)
        return PANELS[panel].title
    if experiment_id in EXTRA_EXPERIMENTS:
        return EXTRA_EXPERIMENTS[experiment_id]
    theorem = THEOREM_EXPERIMENTS.get(experiment_id)
    if theorem is None:
        raise ExperimentError(f"unknown experiment {experiment_id!r}")
    return theorem.title


def _panel_number(experiment_id: str) -> int:
    try:
        panel = int(experiment_id.split("-", 1)[1])
    except (IndexError, ValueError) as exc:
        raise ExperimentError(f"bad panel id {experiment_id!r}") from exc
    if panel not in PANELS:
        raise ExperimentError(f"Fig. 5 has panels 1-9, not {panel}")
    return panel


def run_experiment(
    experiment_id: str,
    *,
    n_slots: Optional[int] = None,
    seeds: Optional[List[int]] = None,
    jobs: Optional[int] = None,
    cache_dir=None,
    progress=None,
    resilience=None,
    fault_injector=None,
):
    """Run an experiment by id.

    Returns a :class:`~repro.analysis.sweep.SweepResult` for Fig. 5 panels
    or an ``(scenario, CompetitiveResult)`` pair for theorem experiments.
    ``jobs``, ``cache_dir``, and ``progress`` configure the parallel sweep
    engine, and ``cache_dir`` is also what an interrupted panel resumes
    from; ``resilience`` and ``fault_injector`` configure its
    supervision layer (see :mod:`repro.resilience`). All of these apply
    to Fig. 5 panels only (theorem replays are single deterministic
    traces — there is nothing to fan out, memoize, or resume).
    """
    if experiment_id.startswith("fig5-"):
        panel = _panel_number(experiment_id)
        kwargs = {}
        if n_slots is not None:
            kwargs["n_slots"] = n_slots
        if seeds is not None:
            kwargs["seeds"] = seeds
        if jobs is not None:
            kwargs["jobs"] = jobs
        if cache_dir is not None:
            kwargs["cache_dir"] = cache_dir
        if progress is not None:
            kwargs["progress"] = progress
        if resilience is not None:
            kwargs["resilience"] = resilience
        if fault_injector is not None:
            kwargs["fault_injector"] = fault_injector
        return run_panel(panel, **kwargs)
    if experiment_id == "skew":
        from repro.experiments.skewed import run_skew_sweep

        kwargs = {}
        if n_slots is not None:
            kwargs["n_slots"] = n_slots
        if seeds:
            kwargs["seed"] = seeds[0]
        return run_skew_sweep(**kwargs)
    if experiment_id == "arch":
        from repro.experiments.architecture import (
            run_architecture_comparison,
        )

        kwargs = {}
        if n_slots is not None:
            kwargs["n_slots"] = n_slots
        if seeds:
            kwargs["seed"] = seeds[0]
        return run_architecture_comparison(**kwargs)
    if experiment_id == "robust":
        from repro.experiments.robustness import run_robustness_study

        kwargs = {}
        if n_slots is not None:
            kwargs["n_slots"] = n_slots
        if seeds:
            kwargs["seed"] = seeds[0]
        return run_robustness_study(**kwargs)
    if experiment_id == "dynamic":
        from repro.experiments.scenarios import run_dynamic_suite

        kwargs = {}
        if n_slots is not None:
            kwargs["n_slots"] = n_slots
        if seeds:
            kwargs["seed"] = seeds[0]
        return run_dynamic_suite(**kwargs)
    theorem = THEOREM_EXPERIMENTS.get(experiment_id)
    if theorem is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            + ", ".join(list_experiments())
        )
    return theorem.run()
