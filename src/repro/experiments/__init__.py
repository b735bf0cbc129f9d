"""Experiment registry: Fig. 5 panels and theorem validations.

:mod:`repro.experiments.fig5` is imported with the package; the other
experiment families are imported when one of their names is first read.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.experiments.fig5 import (
    PANELS,
    PROCESSING_POLICIES,
    VALUE_PORT_POLICIES,
    VALUE_UNIFORM_POLICIES,
    PanelSpec,
    run_panel,
)

if TYPE_CHECKING:
    from repro.experiments.architecture import (
        ArchitectureResult,
        ClassService,
        run_architecture_comparison,
    )
    from repro.experiments.registry import (
        THEOREM_EXPERIMENTS,
        TheoremExperiment,
        describe_experiment,
        list_experiments,
        run_experiment,
    )
    from repro.experiments.report import (
        ReportOptions,
        generate_report,
        write_report,
    )
    from repro.experiments.robustness import (
        DEFAULT_POLICIES,
        RobustnessResult,
        run_robustness_study,
    )
    from repro.experiments.skewed import (
        DEFAULT_SKEWS,
        SkewPoint,
        SkewSweepResult,
        run_skew_sweep,
        skew_weights,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "architecture": (
            "ArchitectureResult",
            "ClassService",
            "run_architecture_comparison",
        ),
        "fig5": (
            "PANELS",
            "PROCESSING_POLICIES",
            "VALUE_PORT_POLICIES",
            "VALUE_UNIFORM_POLICIES",
            "PanelSpec",
            "run_panel",
        ),
        "registry": (
            "THEOREM_EXPERIMENTS",
            "TheoremExperiment",
            "describe_experiment",
            "list_experiments",
            "run_experiment",
        ),
        "report": ("ReportOptions", "generate_report", "write_report"),
        "robustness": (
            "DEFAULT_POLICIES",
            "RobustnessResult",
            "run_robustness_study",
        ),
        "skewed": (
            "DEFAULT_SKEWS",
            "SkewPoint",
            "SkewSweepResult",
            "run_skew_sweep",
            "skew_weights",
        ),
    },
)
