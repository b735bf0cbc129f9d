"""Analysis layer: competitive measurement, sweeps, statistics, theory."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.cache import (
        SweepCache,
        config_payload,
        default_cache_dir,
    )
    from repro.analysis.competitive import (
        CompetitiveResult,
        PolicySystem,
        measure_competitive_ratio,
        measure_policies,
        run_scenario,
        run_system,
    )
    from repro.analysis.conjecture import (
        ConjectureReport,
        ProbeResult,
        adversarial_search,
        evaluate_instance,
        evaluate_processing_instance,
        probe_policy,
        probe_processing_policy,
        processing_adversarial_search,
    )
    from repro.analysis.convergence import (
        ConvergencePoint,
        ConvergenceProfile,
        convergence_profile,
    )
    from repro.analysis.fairness import (
        FairnessReport,
        jain_index,
        service_profile,
        work_normalized_shares,
    )
    from repro.analysis.mapping import (
        MappingChecker,
        MappingReport,
        MappingViolation,
        certify_lwd,
    )
    from repro.analysis.occupancy import (
        OccupancyProfile,
        compare_sharing,
        occupancy_profile,
    )
    from repro.analysis.sensitivity import (
        OperatingPoint,
        SensitivityReport,
        run_sensitivity,
    )
    from repro.analysis.stats import Summary, geometric_mean, summarize
    from repro.analysis.sweep import (
        SweepPoint,
        SweepResult,
        SweepStats,
        resolve_jobs,
        run_sweep,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cache": ("SweepCache", "config_payload", "default_cache_dir"),
        "competitive": (
            "CompetitiveResult",
            "PolicySystem",
            "measure_competitive_ratio",
            "measure_policies",
            "run_scenario",
            "run_system",
        ),
        "conjecture": (
            "ConjectureReport",
            "ProbeResult",
            "adversarial_search",
            "evaluate_instance",
            "evaluate_processing_instance",
            "probe_policy",
            "probe_processing_policy",
            "processing_adversarial_search",
        ),
        "convergence": (
            "ConvergencePoint",
            "ConvergenceProfile",
            "convergence_profile",
        ),
        "fairness": (
            "FairnessReport",
            "jain_index",
            "service_profile",
            "work_normalized_shares",
        ),
        "mapping": (
            "MappingChecker",
            "MappingReport",
            "MappingViolation",
            "certify_lwd",
        ),
        "occupancy": ("OccupancyProfile", "compare_sharing", "occupancy_profile"),
        "sensitivity": ("OperatingPoint", "SensitivityReport", "run_sensitivity"),
        "stats": ("Summary", "geometric_mean", "summarize"),
        "sweep": (
            "SweepPoint",
            "SweepResult",
            "SweepStats",
            "resolve_jobs",
            "run_sweep",
        ),
    },
)
