"""Alternative traffic patterns for robustness studies.

Fig. 5 uses one traffic family (interleaved MMPP on-off sources); a
reproduction should show its conclusions are not artifacts of that
choice. This module provides structurally different generators with the
same interface contract as :mod:`repro.traffic.workloads` (a trace of
per-slot bursts, per-port work constraints respected), plus
trace-shaping utilities:

* :func:`poisson_workload` — memoryless per-slot Poisson arrivals, the
  smoothest possible traffic at a given rate (a *negative control*: under
  smooth overload all work-conserving policies tie, see the burstiness
  ablation);
* :func:`saturating_workload` — ~1.5n uniformly addressed packets every
  slot, the every-arrival-congested regime of the adversarial bench
  panels;
* :func:`periodic_burst_workload` — deterministic bursts every ``period``
  slots, the most regular bursty pattern (isolates burstiness from
  randomness);
* :func:`heavy_tailed_workload` — Pareto-distributed burst sizes on
  exponential gaps, heavier-tailed than MMPP's geometric on-periods;
* :func:`mixed_trace` / :func:`thin_trace` — combine or subsample traces
  (e.g. overlay an adversarial burst onto background traffic).
"""

from __future__ import annotations

from typing import Iterator, Sequence

try:  # pure-stdlib installs can still import the module
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError, TraceError
from repro.core.packet import Packet
from repro.traffic.trace import Chunk, Trace
from repro.traffic.workloads import (
    _recipe_rng,
    _require_numpy,
    processing_capacity,
)


def poisson_workload(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    seed: int = 0,
) -> Trace:
    """Memoryless arrivals: each slot each port draws an independent
    Poisson count; total mean rate = ``load x`` service capacity."""
    rng = _recipe_rng(n_slots, seed)
    per_port_rate = load * processing_capacity(config) / config.n_ports
    works = np.asarray(config.works, dtype=np.int64)
    ones = np.ones(config.n_ports)
    port_ix = np.arange(config.n_ports)

    def chunks() -> Iterator[Chunk]:
        for _slot in range(n_slots):
            counts = rng.poisson(per_port_rate, size=config.n_ports)
            yield (
                port_ix.repeat(counts),
                works.repeat(counts),
                ones.repeat(counts),
            )

    return Trace.from_chunks(chunks())


def saturating_workload(
    config: SwitchConfig, n_slots: int, *, seed: int = 0
) -> Trace:
    """Adversarial congestion: ~1.5n uniformly-addressed packets per slot.

    Offered load is far above any service rate, so after a couple of
    slots the buffer is permanently full and every single arrival goes
    through the policy's congested-path victim search. Value-model
    (priority-queue) packets draw small integer values so exact value
    ties (the hard tie-breaking cases) occur constantly; processing-model
    packets take their port's work and value.
    """
    rng = _recipe_rng(n_slots, seed)
    n = config.n_ports
    per_slot = max(2, (3 * n) // 2)
    by_value = config.discipline is QueueDiscipline.PRIORITY
    works = np.asarray(config.works, dtype=np.int64)
    values = np.asarray(config.values, dtype=np.float64)
    unit_works = np.ones(per_slot, dtype=np.int64)

    def chunks() -> Iterator[Chunk]:
        for _slot in range(n_slots):
            ports = rng.integers(0, n, size=per_slot)
            if by_value:
                drawn = rng.integers(1, 17, size=per_slot)
                yield ports, unit_works, drawn.astype(np.float64)
            else:
                yield ports, works[ports], values[ports]

    return Trace.from_chunks(chunks())


def periodic_burst_workload(
    config: SwitchConfig,
    n_slots: int,
    *,
    period: int = 50,
    burst_per_port: int = 10,
    phase_offset: bool = True,
    seed: int = 0,
) -> Trace:
    """Deterministic bursts: every ``period`` slots each port receives a
    burst of ``burst_per_port`` packets. With ``phase_offset`` ports fire
    at staggered phases (drawn once from ``seed``), so the buffer sees a
    steady rotation of single-port floods — the cleanest possible
    port-starvation stress."""
    if period < 1 or burst_per_port < 0:
        raise ConfigError("period must be >= 1 and burst size >= 0")
    _require_numpy()
    rng = np.random.default_rng(seed)
    if phase_offset:
        phases = rng.integers(0, period, size=config.n_ports)
    else:
        phases = np.zeros(config.n_ports, dtype=np.int64)
    trace = Trace()
    works = config.works
    for slot in range(n_slots):
        burst = []
        for port in range(config.n_ports):
            if slot % period == int(phases[port]):
                burst.extend(
                    Packet(port=port, work=works[port], arrival_slot=slot)
                    for _ in range(burst_per_port)
                )
        trace.append_slot(burst)
    return trace


def heavy_tailed_workload(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    tail_index: float = 1.5,
    mean_gap_slots: float = 40.0,
    seed: int = 0,
) -> Trace:
    """Pareto burst sizes on geometric gaps.

    Each port independently fires bursts whose sizes follow a Pareto
    distribution with the given tail index (``1 < alpha <= 2`` gives the
    bursty, high-variance regime); the scale is calibrated so the mean
    offered rate equals ``load x`` capacity.
    """
    if tail_index <= 1.0:
        raise ConfigError(
            f"tail index must exceed 1 for a finite mean, got {tail_index}"
        )
    if mean_gap_slots < 1:
        raise ConfigError("mean gap must be >= 1 slot")
    _require_numpy()
    rng = np.random.default_rng(seed)
    rate_target = load * processing_capacity(config) / config.n_ports
    # Mean burst size for a Pareto(alpha, x_m) is x_m * alpha/(alpha-1);
    # each port fires every mean_gap_slots on average.
    mean_burst = rate_target * mean_gap_slots
    x_m = mean_burst * (tail_index - 1.0) / tail_index
    x_m = max(x_m, 0.5)
    fire_probability = 1.0 / mean_gap_slots

    trace = Trace()
    works = config.works
    for slot in range(n_slots):
        burst = []
        fires = rng.random(config.n_ports) < fire_probability
        for port in np.nonzero(fires)[0]:
            size = int(round(x_m * (1.0 - rng.random()) ** (-1.0 / tail_index)))
            burst.extend(
                Packet(
                    port=int(port),
                    work=works[port],
                    arrival_slot=slot,
                )
                for _ in range(min(size, 10 * config.buffer_size))
            )
        trace.append_slot(burst)
    return trace


def mixed_trace(traces: Sequence[Trace]) -> Trace:
    """Superimpose traces slot-wise: bursts, and each slot's churn
    events, concatenate in list order.

    Useful for overlaying an adversarial construction onto background
    traffic, or combining traffic classes generated separately.
    """
    if not traces:
        raise TraceError("nothing to mix")
    n_slots = max(t.n_slots for t in traces)
    result = Trace()
    for slot in range(n_slots):
        burst = []
        for trace in traces:
            if slot < trace.n_slots:
                burst.extend(trace.slots[slot])
        result.append_slot(burst)
    for trace in traces:
        _copy_port_events(trace, result)
    return result


def _copy_port_events(source: Trace, target: Trace) -> None:
    """Append ``source``'s churn events to ``target``, slot for slot."""
    for slot, events in source.port_events.items():
        for event in events:
            target.add_port_event(slot, event.port, event.up)


def thin_trace(
    trace: Trace, keep_probability: float, seed: int = 0
) -> Trace:
    """Drop each packet independently with ``1 - keep_probability`` —
    a quick way to derive lighter-load variants of one trace while
    preserving its burst structure and its churn events."""
    if not 0.0 <= keep_probability <= 1.0:
        raise TraceError(
            f"keep probability must be in [0, 1], got {keep_probability}"
        )
    _require_numpy()
    rng = np.random.default_rng(seed)
    result = Trace()
    for burst in trace:
        kept = [p for p in burst if rng.random() < keep_probability]
        result.append_slot(kept)
    _copy_port_events(trace, result)
    return result
