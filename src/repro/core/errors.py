"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base class at an API boundary.
Programming errors (violated internal invariants) raise plain
:class:`AssertionError` and are never part of the public contract.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """An invalid switch, traffic, or experiment configuration.

    Raised eagerly at construction time so that simulations never start
    from an inconsistent state (e.g. a buffer smaller than the number of
    output ports, or a packet work requirement outside ``[1, k]``).
    """


class PolicyError(ReproError):
    """A buffer-management policy returned an inadmissible decision.

    Examples: pushing out from an empty queue, accepting a packet when the
    buffer is full without naming a push-out victim, or naming a victim
    queue that does not exist.
    """


class TraceError(ReproError):
    """A malformed arrival trace (bad port label, bad work/value, bad slot)."""


class ExperimentError(ReproError):
    """An experiment specification could not be resolved or executed."""


class ResilienceError(ReproError):
    """A malformed fault-injection spec."""


class SweepInterrupted(ReproError):
    """A sweep was stopped by SIGINT/SIGTERM (or an injected interrupt).

    Completed cells were stored in the sweep cache (when the run has
    one) before this was raised, so rerunning the same sweep resumes;
    ``completed``/``total`` report how far it got (over the cells that
    actually needed executing).
    """

    def __init__(self, message: str, *, completed: int = 0,
                 total: int = 0) -> None:
        super().__init__(message)
        self.completed = completed
        self.total = total


class SweepExecutionError(ReproError):
    """One or more sweep cells exhausted their retry budget.

    Unlike a raw worker exception, this error reaches the caller only
    *after* every other cell finished and all completed measurements
    were stored in the sweep cache. ``failures`` lists the
    quarantined cells; ``result`` carries the partial
    :class:`~repro.analysis.sweep.SweepResult` (quarantined cells'
    points are missing from it).
    """

    def __init__(
        self,
        message: str,
        *,
        failures: Iterable[Any] = (),
        result: Optional[Any] = None,
    ) -> None:
        super().__init__(message)
        self.failures = tuple(failures)
        self.result = result
