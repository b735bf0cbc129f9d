"""Probing the paper's open conjecture: is MRD O(1)-competitive?

Section IV leaves the competitiveness of Maximal-Ratio-Drop open ("It
remains an interesting open problem to show whether MRD has a constant
competitive ratio in the worst case"). This module attacks the question
empirically with machinery the paper did not have: the exhaustive *true*
offline optimum of :mod:`repro.opt.exhaustive` is exact on tiny instances,
so the worst ratio over a large randomized sample of tiny instances — plus
an adversarial hill-climb that mutates the worst instances found — gives a
computational lower-bound profile for any policy.

Nothing here proves the conjecture; but a hill-climb that plateaus around
a small constant for MRD while blowing up for MVD on the same instance
family is evidence in the conjectured direction, and any instance found
with a big ratio is a ready-made counterexample candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

try:  # pure-stdlib installs can still import the module
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.opt.exhaustive import TinyInstance, exhaustive_opt
from repro.policies import make_policy
from repro.traffic.trace import Trace

#: Arrival lists as stored in TinyInstance: per slot, (port, value) pairs.
Arrivals = Tuple[Tuple[Tuple[int, float], ...], ...]



def _require_numpy() -> None:
    if np is None:
        raise ConfigError(
            "the adversarial search needs numpy (its draws are pinned to "
            "numpy.random.default_rng); install numpy to use it"
        )

@dataclass(frozen=True)
class ProbeResult:
    """One instance's exact competitive measurement."""

    arrivals: Arrivals
    alg_objective: float
    opt_objective: float

    @property
    def ratio(self) -> float:
        if self.alg_objective <= 0:
            return float("inf") if self.opt_objective > 0 else 1.0
        return self.opt_objective / self.alg_objective


@dataclass
class ConjectureReport:
    """Outcome of a randomized probe of one policy."""

    policy_name: str
    config: SwitchConfig
    trials: int
    worst: Optional[ProbeResult] = None
    ratios: List[float] = field(default_factory=list)

    @property
    def worst_ratio(self) -> float:
        return self.worst.ratio if self.worst else 1.0

    @property
    def mean_ratio(self) -> float:
        return sum(self.ratios) / len(self.ratios) if self.ratios else 1.0

    def summary(self) -> str:
        return (
            f"{self.policy_name}: worst ratio {self.worst_ratio:.4f}, "
            f"mean {self.mean_ratio:.4f} over {self.trials} instances "
            f"(n={self.config.n_ports}, B={self.config.buffer_size})"
        )


def _value_config(n_ports: int, buffer_size: int) -> SwitchConfig:
    return SwitchConfig.uniform(
        n_ports, buffer_size, work=1,
        discipline=QueueDiscipline.PRIORITY,
    )


# ---------------------------------------------------------------------------
# Processing-model variant: empirical worst cases for LWD & friends
# ---------------------------------------------------------------------------


def evaluate_processing_instance(
    policy_name: str,
    config: SwitchConfig,
    arrivals: Arrivals,
) -> ProbeResult:
    """Exact throughput ratio of a processing-model policy vs true OPT.

    The value in each (port, value) arrival pair is ignored — works come
    from the port, the objective is the packet count. Both sides drain.
    """
    instance = TinyInstance(config=config, arrivals=arrivals)
    opt = exhaustive_opt(instance, by_value=False)

    trace = Trace(
        [
            Packet(port=port, work=config.work_of(port), arrival_slot=slot)
            for port, _value in burst
        ]
        for slot, burst in enumerate(arrivals)
    )
    metrics = run_system(
        PolicySystem(config, make_policy(policy_name)),
        trace,
        drain_slots=config.buffer_size * config.max_work + 1,
    )
    return ProbeResult(
        arrivals=arrivals,
        alg_objective=float(metrics.transmitted_packets),
        opt_objective=opt,
    )


def probe_processing_policy(
    policy_name: str,
    *,
    works: Tuple[int, ...] = (1, 2, 3),
    buffer_size: int = 4,
    n_slots: int = 4,
    max_burst: int = 4,
    total_budget: int = 10,
    trials: int = 200,
    seed: int = 0,
) -> ConjectureReport:
    """Randomized sample of exact throughput ratios (processing model).

    For LWD this probes Theorem 7 from below: over many exact tiny
    instances the worst observed ratio approaches the policy's true
    competitive ratio from inside the guaranteed [1, 2] window.
    """
    if trials < 1:
        raise ConfigError("probe needs at least one trial")
    _require_numpy()
    rng = np.random.default_rng(seed)
    config = SwitchConfig.from_works(works, buffer_size)
    report = ConjectureReport(
        policy_name=policy_name, config=config, trials=trials
    )
    for _ in range(trials):
        arrivals = random_arrivals(
            rng, config.n_ports, n_slots, max_burst, 1, total_budget
        )
        result = evaluate_processing_instance(
            policy_name, config, arrivals
        )
        report.ratios.append(result.ratio)
        if report.worst is None or result.ratio > report.worst.ratio:
            report.worst = result
    return report


def processing_adversarial_search(
    policy_name: str,
    *,
    works: Tuple[int, ...] = (1, 2, 3),
    buffer_size: int = 4,
    n_slots: int = 4,
    max_burst: int = 4,
    total_budget: int = 10,
    restarts: int = 5,
    steps_per_restart: int = 60,
    seed: int = 0,
) -> ProbeResult:
    """Hill-climb for a bad processing-model instance (exact ratios)."""
    _require_numpy()
    rng = np.random.default_rng(seed)
    config = SwitchConfig.from_works(works, buffer_size)
    best: Optional[ProbeResult] = None
    for _ in range(restarts):
        current = evaluate_processing_instance(
            policy_name,
            config,
            random_arrivals(
                rng, config.n_ports, n_slots, max_burst, 1, total_budget
            ),
        )
        for _ in range(steps_per_restart):
            candidate_arrivals = _mutate(
                rng, current.arrivals, config.n_ports, 1, max_burst,
                total_budget,
            )
            candidate = evaluate_processing_instance(
                policy_name, config, candidate_arrivals
            )
            if candidate.ratio > current.ratio:
                current = candidate
        if best is None or current.ratio > best.ratio:
            best = current
    assert best is not None
    return best


def evaluate_instance(
    policy_name: str,
    config: SwitchConfig,
    arrivals: Arrivals,
) -> ProbeResult:
    """Exact ratio of a policy vs the true OPT on one tiny instance.

    Both sides are fully drained after the final arrival slot so the
    measurement matches the offline objective (total value eventually
    transmitted by an infinite-horizon run of this finite input).
    """
    instance = TinyInstance(config=config, arrivals=arrivals)
    opt = exhaustive_opt(instance, by_value=True)

    trace = Trace(
        [
            Packet(port=port, work=1, value=value, arrival_slot=slot)
            for port, value in burst
        ]
        for slot, burst in enumerate(arrivals)
    )
    metrics = run_system(
        PolicySystem(config, make_policy(policy_name)),
        trace,
        drain_slots=config.buffer_size + 1,
    )
    return ProbeResult(
        arrivals=arrivals,
        alg_objective=metrics.transmitted_value,
        opt_objective=opt,
    )


def random_arrivals(
    rng: np.random.Generator,
    n_ports: int,
    n_slots: int,
    max_burst: int,
    max_value: int,
    total_budget: int,
) -> Arrivals:
    """A random tiny value-model arrival pattern within a packet budget."""
    slots: List[Tuple[Tuple[int, float], ...]] = []
    remaining = total_budget
    for _ in range(n_slots):
        size = min(int(rng.integers(0, max_burst + 1)), remaining)
        remaining -= size
        slots.append(
            tuple(
                (int(rng.integers(0, n_ports)),
                 float(rng.integers(1, max_value + 1)))
                for _ in range(size)
            )
        )
    return tuple(slots)


def probe_policy(
    policy_name: str,
    *,
    n_ports: int = 3,
    buffer_size: int = 4,
    n_slots: int = 4,
    max_burst: int = 4,
    max_value: int = 8,
    total_budget: int = 12,
    trials: int = 200,
    seed: int = 0,
) -> ConjectureReport:
    """Randomized sample of exact ratios for a value-model policy."""
    if trials < 1:
        raise ConfigError("probe needs at least one trial")
    _require_numpy()
    rng = np.random.default_rng(seed)
    config = _value_config(n_ports, buffer_size)
    report = ConjectureReport(
        policy_name=policy_name, config=config, trials=trials
    )
    for _ in range(trials):
        arrivals = random_arrivals(
            rng, n_ports, n_slots, max_burst, max_value, total_budget
        )
        result = evaluate_instance(policy_name, config, arrivals)
        report.ratios.append(result.ratio)
        if report.worst is None or result.ratio > report.worst.ratio:
            report.worst = result
    return report


def _mutate(
    rng: np.random.Generator,
    arrivals: Arrivals,
    n_ports: int,
    max_value: int,
    max_burst: int,
    total_budget: int,
) -> Arrivals:
    """One local edit: add, delete, or relabel a packet."""
    slots = [list(burst) for burst in arrivals]
    move = rng.integers(0, 3)
    slot = int(rng.integers(0, len(slots)))
    if move == 0 and sum(len(s) for s in slots) < total_budget and (
        len(slots[slot]) < max_burst
    ):
        slots[slot].append(
            (int(rng.integers(0, n_ports)),
             float(rng.integers(1, max_value + 1)))
        )
    elif move == 1 and slots[slot]:
        slots[slot].pop(int(rng.integers(0, len(slots[slot]))))
    elif slots[slot]:
        idx = int(rng.integers(0, len(slots[slot])))
        slots[slot][idx] = (
            int(rng.integers(0, n_ports)),
            float(rng.integers(1, max_value + 1)),
        )
    return tuple(tuple(s) for s in slots)


def adversarial_search(
    policy_name: str,
    *,
    n_ports: int = 3,
    buffer_size: int = 4,
    n_slots: int = 4,
    max_burst: int = 4,
    max_value: int = 8,
    total_budget: int = 12,
    restarts: int = 5,
    steps_per_restart: int = 60,
    seed: int = 0,
) -> ProbeResult:
    """Hill-climb for a bad instance: mutate, keep strict improvements.

    Returns the worst (highest-ratio) instance found over all restarts.
    Ratios are exact (true OPT), so the result is a certified lower bound
    on the policy's competitive ratio over this instance family.
    """
    _require_numpy()
    rng = np.random.default_rng(seed)
    config = _value_config(n_ports, buffer_size)
    best: Optional[ProbeResult] = None
    for _ in range(restarts):
        current = evaluate_instance(
            policy_name,
            config,
            random_arrivals(
                rng, n_ports, n_slots, max_burst, max_value, total_budget
            ),
        )
        for _ in range(steps_per_restart):
            candidate_arrivals = _mutate(
                rng, current.arrivals, n_ports, max_value, max_burst,
                total_budget,
            )
            candidate = evaluate_instance(
                policy_name, config, candidate_arrivals
            )
            if candidate.ratio > current.ratio:
                current = candidate
        if best is None or current.ratio > best.ratio:
            best = current
    assert best is not None
    return best
