"""Resilient execution layer: faults, supervision, atomic publication.

Paper-scale sweeps run unattended for hours; this package is what lets
them survive crashes, hangs, preemption, and Ctrl-C without losing
completed work — while preserving the engine's byte-identical
determinism contract. See ``docs/RESILIENCE.md`` for the operator's
view.

* :mod:`repro.resilience.atomic` — temp-file + ``os.replace`` atomic
  publication, shared by every durable artifact the repo writes;
* :mod:`repro.resilience.faults` — the deterministic, seeded
  :class:`FaultInjector` (``REPRO_FAULTS`` / ``--inject-faults``);
* :mod:`repro.resilience.supervisor` — the
  :class:`SupervisedExecutor`: retries with deterministic backoff,
  per-cell timeouts, transparent pool rebuilds, quarantine, and
  graceful degradation to serial execution.

An interrupted sweep resumes from the content-addressed sweep cache
(:mod:`repro.analysis.cache`): rerunning the same command reuses every
cell that completed before the interrupt.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.resilience.atomic import (
        atomic_write_json,
        atomic_write_text,
        tmp_path_for,
    )
    from repro.resilience.faults import (
        FAULT_MODES,
        FAULTS_ENV,
        FaultClause,
        FaultInjector,
        InjectedFault,
    )
    from repro.resilience.supervisor import (
        CellFailure,
        CellTask,
        ResilienceStats,
        SupervisedExecutor,
        SupervisorOptions,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "atomic": ("atomic_write_json", "atomic_write_text", "tmp_path_for"),
        "faults": (
            "FAULT_MODES",
            "FAULTS_ENV",
            "FaultClause",
            "FaultInjector",
            "InjectedFault",
        ),
        "supervisor": (
            "CellFailure",
            "CellTask",
            "ResilienceStats",
            "SupervisedExecutor",
            "SupervisorOptions",
        ),
    },
)
