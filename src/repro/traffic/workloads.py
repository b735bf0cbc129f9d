"""Synthetic workloads reproducing the paper's simulation traffic.

Section V-A: traffic is the interleaving of 500 independent MMPP on-off
sources. Three regimes cover the three rows of Fig. 5:

* :func:`processing_workload` — heterogeneous-processing model: each source
  is bound to one output port; packets inherit the port's required work.
* :func:`value_uniform_workload` — value model with output port and value
  both uniform at random (Fig. 5 panels 4-6).
* :func:`value_port_workload` — value model where a packet's value is
  uniquely determined by its output port (Fig. 5 panels 7-9; all of the
  paper's value-model lower bounds live in this special case).

Load calibration: the paper gives intensities only implicitly ("in case of
congestion..."), so generators accept a dimensionless ``load`` — the ratio
of mean offered packets per slot to the switch's maximal service rate
(``C * sum_i 1/w_i`` for the processing model, ``n * C`` for the value
model). ``load > 1`` produces sustained congestion, which is where the
policies differ.

Burstiness calibration: buffer-management policies only separate when
per-port traffic is *intermittent* — under smooth sustained overload every
work-conserving policy keeps all ports busy and throughputs coincide. The
default duty cycle (ON 20 slots of every ~2000) concentrates each source's
traffic into rare intense bursts, so queues drain between bursts and the
policies' buffer-allocation choices decide which ports starve. This regime
reproduces the orderings of the paper's Fig. 5; smoother settings compress
all curves towards 1.

One recipe, one chunk iterator: each recipe is written once, as a
chunk iterator (:func:`processing_chunks`, :func:`value_uniform_chunks`,
:func:`value_port_chunks`) that validates its inputs, builds the fleet,
makes the recipe's pinned sequence of RNG calls and yields one slot's
``(ports, works, values)`` column chunk at a time.

Per slot, every recipe draws in the same order: the fleet's Poisson
counts for the ON sources, one uniform per source for the on/off flip
(:meth:`MmppFleet.step`), then the recipe's own draws. Ports come from
the ON sources' indices: ascending within a slot for the processing
and value-port recipes, in source order for port-bound value-uniform
(whose value ``integers`` draw follows), and drawn per packet without
port binding. The ``*_workload``
functions concatenate all the chunks into a
:class:`~repro.traffic.trace.Trace`; a paper-scale run instead cuts the
iterator into windows (``Trace.from_chunks(islice(chunks, n), s0)``)
and replays them one after another through one system, so its memory
is one window, not the whole horizon.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

try:  # pure-stdlib installs can still import the module
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.traffic.trace import Chunk, Trace
from repro.traffic.mmpp import MmppFleet, MmppParams

#: The paper's source count (Section V-A).
DEFAULT_SOURCES = 500


def _require_numpy() -> None:
    if np is None:
        raise ConfigError(
            "the synthetic traffic generators need numpy (their draws are "
            "pinned to numpy.random.default_rng); install numpy to use them"
        )


def _recipe_rng(n_slots: int, seed: int) -> np.random.Generator:
    """Validate a recipe's slot count and seed its one RNG stream.

    Every generator in :mod:`repro.traffic` with a chunk iterator starts
    here, eagerly: a bad slot count raises when the iterator is made,
    not when it is first read.
    """
    if n_slots < 1:
        raise ConfigError(f"need >= 1 slot, got {n_slots}")
    _require_numpy()
    return np.random.default_rng(seed)


def _fleet(
    rng: np.random.Generator,
    n_sources: int,
    absolute_rate: Optional[float],
    capacity_rate: float,
    mean_on_slots: float,
    mean_off_slots: float,
) -> MmppFleet:
    """Build a fleet whose aggregate mean rate is ``absolute_rate``, or
    ``capacity_rate`` (``load`` times the switch capacity) without it."""
    mean_per_slot = (
        absolute_rate if absolute_rate is not None else capacity_rate
    )
    params_probe = MmppParams(
        rate_on=1.0,
        mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots,
    )
    stationary_on = params_probe.stationary_on
    rate_on = mean_per_slot / (n_sources * stationary_on)
    params = MmppParams(
        rate_on=rate_on,
        mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots,
    )
    return MmppFleet(n_sources, params, rng)


def _port_chunks(
    fleet: MmppFleet,
    ports_of_source: Any,
    n_slots: int,
    works_by_port: Any,
    values_by_port: Any,
) -> Iterator[Chunk]:
    """Per-slot chunks of port-bound sources whose port fixes work and
    value: the ON sources' ports, each repeated by its emissions, in
    ascending order."""
    for _slot in range(n_slots):
        on_idx, emitted = fleet.step()
        ports = ports_of_source[on_idx].repeat(emitted)
        ports.sort()
        yield ports, works_by_port[ports], values_by_port[ports]


def processing_capacity(config: SwitchConfig) -> float:
    """Maximal sustained service rate of the processing-model switch:
    every port busy forever transmits ``C / w_i`` packets per slot."""
    return config.speedup * config.inverse_work_sum


def value_capacity(config: SwitchConfig) -> float:
    """Maximal sustained service rate of the value-model switch: each of
    the ``n`` ports transmits up to ``C`` unit-work packets per slot."""
    return float(config.n_ports * config.speedup)


def processing_chunks(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 1980.0,
    seed: int = 0,
) -> Iterator[Chunk]:
    """The per-slot chunks of :func:`processing_workload`."""
    rng = _recipe_rng(n_slots, seed)
    ports_of_source = rng.integers(0, config.n_ports, size=n_sources)
    fleet = _fleet(
        rng, n_sources, absolute_rate, load * processing_capacity(config),
        mean_on_slots, mean_off_slots,
    )
    return _port_chunks(
        fleet,
        ports_of_source,
        n_slots,
        np.asarray(config.works, dtype=np.int64),
        np.ones(config.n_ports),
    )


def processing_workload(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 1980.0,
    seed: int = 0,
) -> Trace:
    """MMPP workload for the heterogeneous-processing model.

    Each source is bound to a destination port chosen uniformly at
    construction time; while ON it emits Poisson packets for that port,
    each requiring the port's configured work. Within a slot, packets
    arrive in ascending port order.
    """
    return Trace.from_chunks(processing_chunks(
        config, n_slots, load=load, absolute_rate=absolute_rate,
        n_sources=n_sources, mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots, seed=seed,
    ))


def value_uniform_chunks(
    config: SwitchConfig,
    n_slots: int,
    max_value: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 380.0,
    seed: int = 0,
    port_bound_sources: bool = True,
) -> Iterator[Chunk]:
    """The per-slot chunks of :func:`value_uniform_workload`."""
    if max_value < 1:
        raise ConfigError(f"max_value must be >= 1, got {max_value}")
    rng = _recipe_rng(n_slots, seed)
    ports_of_source = rng.integers(0, config.n_ports, size=n_sources)
    fleet = _fleet(
        rng, n_sources, absolute_rate, load * value_capacity(config),
        mean_on_slots, mean_off_slots,
    )

    def chunks() -> Iterator[Chunk]:
        for _slot in range(n_slots):
            on_idx, emitted = fleet.step()
            if port_bound_sources:
                # One value draw for the whole slot, in source order.
                # numpy's bounded-integer draws consume the bit stream
                # element by element, so this equals one draw per ON
                # source concatenated (pinned against that loop in
                # tests/test_workloads.py).
                ports = ports_of_source[on_idx].repeat(emitted)
                drawn = rng.integers(1, max_value + 1, size=len(ports))
            else:
                total = int(emitted.sum())
                if total:
                    ports = rng.integers(0, config.n_ports, size=total)
                    drawn = rng.integers(1, max_value + 1, size=total)
                else:
                    ports = drawn = np.empty(0, np.int64)
            yield (
                ports,
                np.ones(len(ports), np.int64),
                drawn.astype(np.float64),
            )

    return chunks()


def value_uniform_workload(
    config: SwitchConfig,
    n_slots: int,
    max_value: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 380.0,
    seed: int = 0,
    port_bound_sources: bool = True,
) -> Trace:
    """Value-model workload with uniform port and uniform integer value.

    Matches Fig. 5 panels 4-6: "both output port and value chosen uniformly
    at random, so the distribution of values in each queue is also
    uniform". ``max_value`` is the paper's ``k``. Every packet's value is
    uniform on ``1..max_value`` independent of its port.

    With ``port_bound_sources`` (default) each MMPP source is bound to a
    uniformly chosen destination port, so a source's on-burst floods one
    port — the interleaving-of-sources structure of Section V-A. With
    ``port_bound_sources=False`` each *packet* picks a port independently,
    which spreads bursts across all queues and (because no port can then
    starve) compresses the differences between policies.
    """
    return Trace.from_chunks(value_uniform_chunks(
        config, n_slots, max_value, load=load, absolute_rate=absolute_rate,
        n_sources=n_sources, mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots, seed=seed,
        port_bound_sources=port_bound_sources,
    ))


def value_port_chunks(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 1980.0,
    seed: int = 0,
    port_weights: Optional[Any] = None,
) -> Iterator[Chunk]:
    """The per-slot chunks of :func:`value_port_workload`."""
    rng = _recipe_rng(n_slots, seed)
    if port_weights is None:
        ports_of_source = rng.integers(0, config.n_ports, size=n_sources)
    else:
        weights = np.asarray(port_weights, dtype=float)
        if weights.shape != (config.n_ports,) or weights.sum() <= 0:
            raise ConfigError("port_weights must be positive, one per port")
        probs = weights / weights.sum()
        ports_of_source = rng.choice(config.n_ports, size=n_sources, p=probs)
    fleet = _fleet(
        rng, n_sources, absolute_rate, load * value_capacity(config),
        mean_on_slots, mean_off_slots,
    )
    return _port_chunks(
        fleet,
        ports_of_source,
        n_slots,
        np.ones(config.n_ports, dtype=np.int64),
        np.asarray(config.values, dtype=np.float64),
    )


def value_port_workload(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 1980.0,
    seed: int = 0,
    port_weights: Optional[Any] = None,
) -> Trace:
    """Value-model workload where value is determined by the output port.

    Matches Fig. 5 panels 7-9. Each source is bound to a port; a packet's
    value is the port's configured value (e.g. value = port label for
    :meth:`repro.core.SwitchConfig.value_contiguous`). ``port_weights``
    optionally skews how sources are assigned to ports, for studying
    "distributions that prioritize certain values at specific queues"
    (Section V-C).
    """
    return Trace.from_chunks(value_port_chunks(
        config, n_slots, load=load, absolute_rate=absolute_rate,
        n_sources=n_sources, mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots, seed=seed, port_weights=port_weights,
    ))
