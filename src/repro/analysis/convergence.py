"""Horizon-convergence analysis: how long must a simulation run?

The paper simulates 2*10^6 time slots; this repository defaults to a few
thousand. This module justifies that substitution empirically: it replays
a run's consecutive trace windows through one ALG and one OPT system,
sampling the cumulative competitive ratio at the end of each window, so
the knee of the convergence curve is visible. With periodic flushouts the
ratio typically stabilizes within a couple of flush periods — far below
the paper's horizon. Windows cut from a recipe's chunk iterator
(:meth:`~repro.traffic.trace.Trace.from_chunks`) keep one window in
memory at a time, which is how paper-scale horizons run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.core.switch import AdmissionPolicy
from repro.opt.surrogate import System, make_surrogate
from repro.traffic.trace import Trace


@dataclass(frozen=True)
class ConvergencePoint:
    """Cumulative ratio after a prefix of the trace."""

    slots: int
    alg_objective: float
    opt_objective: float

    @property
    def ratio(self) -> float:
        if self.alg_objective <= 0:
            return float("inf") if self.opt_objective > 0 else 1.0
        return self.opt_objective / self.alg_objective


@dataclass
class ConvergenceProfile:
    """The full checkpoint series, with convergence diagnostics."""

    policy_name: str
    points: List[ConvergencePoint]

    @property
    def final_ratio(self) -> float:
        return self.points[-1].ratio if self.points else 1.0

    @property
    def prefix_supremum(self) -> float:
        """The maximal *cumulative* ratio over all checkpoints.

        Stronger than the final ratio: any charging argument in the style
        of Theorem 7 must cover every prefix of the run, so its constant
        is lower-bounded by this supremum. (Finite-prefix suprema can
        exceed the asymptotic competitive ratio — early slots are noisy —
        which is why convergence profiles sample many checkpoints.)
        """
        finite = [
            p.ratio for p in self.points if p.ratio != float("inf")
        ]
        return max(finite) if finite else 1.0

    def settled_after(self, tolerance: float = 0.02) -> Optional[int]:
        """First checkpoint from which every later cumulative ratio stays
        within ``tolerance`` (relative) of the final ratio; ``None`` if
        the series never settles."""
        final = self.final_ratio
        if final in (0.0, float("inf")):
            return None
        for idx, point in enumerate(self.points):
            tail = self.points[idx:]
            if all(
                abs(p.ratio - final) <= tolerance * final for p in tail
            ):
                return point.slots
        return None

    def format_table(self) -> str:
        lines = [f"{'slots':>8s} {'ratio':>8s}"]
        for point in self.points:
            lines.append(f"{point.slots:8d} {point.ratio:8.4f}")
        return "\n".join(lines)


def convergence_profile(
    policy: AdmissionPolicy,
    windows: Iterable[Trace],
    config: SwitchConfig,
    *,
    by_value: Optional[bool] = None,
    flush_every: Optional[int] = None,
    opt: str = "surrogate",
) -> ConvergenceProfile:
    """Cumulative competitive ratio vs an OPT reference, per window.

    ``windows`` are consecutive slices of one run (:meth:`Trace.window`
    of a built trace, or :meth:`Trace.from_chunks` over a recipe's
    chunk iterator); each is replayed through one ALG and one OPT
    system with :func:`~repro.analysis.competitive.run_system` on the
    vectorized engine where it serves the pair, and a point is recorded
    at its end, the exact ratio a run truncated there would have
    reported. ``opt`` is
    ``"surrogate"`` (the paper's single PQ) or ``"scripted"`` (replay
    the trace's ``opt_accept`` tags — for adversarial scenarios, where
    the prefix supremum lower-bounds any charging constant).
    """
    if by_value is None:
        by_value = config.discipline is QueueDiscipline.PRIORITY
    alg: System = PolicySystem(config, policy, engine="vectorized")
    if opt == "surrogate":
        opt_system: System = make_surrogate(
            config, by_value, engine="vectorized"
        )
    elif opt == "scripted":
        from repro.opt.scripted import ScriptedPolicy

        opt_system = PolicySystem(
            config, ScriptedPolicy(), engine="vectorized"
        )
    else:
        raise ConfigError(f"unknown OPT reference {opt!r}")
    points: List[ConvergencePoint] = []
    for window in windows:
        if not window.n_slots:
            raise ConfigError("convergence windows need >= 1 slot each")
        run_system(alg, window, flush_every=flush_every)
        run_system(opt_system, window, flush_every=flush_every)
        points.append(
            ConvergencePoint(
                slots=alg.metrics.slots_elapsed,
                alg_objective=alg.metrics.objective(by_value),
                opt_objective=opt_system.metrics.objective(by_value),
            )
        )
    return ConvergenceProfile(
        policy_name=getattr(policy, "name", type(policy).__name__),
        points=points,
    )
