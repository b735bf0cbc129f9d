"""Analysis layer: competitive measurement, sweeps, statistics, theory."""

import importlib

from repro.analysis.competitive import (
    CompetitiveResult,
    PolicySystem,
    measure_competitive_ratio,
    measure_policies,
    run_scenario,
    run_system,
)
from repro.analysis.cache import SweepCache, config_payload, default_cache_dir
from repro.analysis.stats import Summary, geometric_mean, summarize
from repro.analysis.sweep import (
    SweepPoint,
    SweepResult,
    SweepStats,
    resolve_jobs,
    run_sweep,
)

#: Submodules whose names are served on first access (PEP 562): every
#: ``repro`` command imports this package, and the sweep path never
#: calls these, so they are not compiled until something asks.
_LAZY_MODULES = {
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
}
_LAZY = {
    name: module
    for module, names in _LAZY_MODULES.items()
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "CompetitiveResult",
    "ConjectureReport",
    "ConvergencePoint",
    "ConvergenceProfile",
    "FairnessReport",
    "MappingChecker",
    "MappingReport",
    "MappingViolation",
    "OccupancyProfile",
    "OperatingPoint",
    "PolicySystem",
    "SensitivityReport",
    "ProbeResult",
    "certify_lwd",
    "compare_sharing",
    "jain_index",
    "occupancy_profile",
    "service_profile",
    "work_normalized_shares",
    "Summary",
    "SweepCache",
    "SweepPoint",
    "SweepResult",
    "SweepStats",
    "adversarial_search",
    "config_payload",
    "default_cache_dir",
    "resolve_jobs",
    "convergence_profile",
    "evaluate_instance",
    "evaluate_processing_instance",
    "geometric_mean",
    "measure_competitive_ratio",
    "measure_policies",
    "probe_policy",
    "probe_processing_policy",
    "processing_adversarial_search",
    "run_scenario",
    "run_sensitivity",
    "run_sweep",
    "run_system",
    "summarize",
]
