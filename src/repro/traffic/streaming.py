"""Streaming workload generation for paper-scale runs.

The paper simulates 2*10^6 time slots. Materializing such a trace costs
tens of millions of packets; the streaming generators below yield one
slot's burst at a time instead, so a run's memory footprint is the
switch state, not the trace. Paired with
:func:`repro.analysis.streaming.stream_competitive` (which feeds ALG and
the OPT surrogate lock-step from a single pass), full paper-scale
replications fit comfortably in memory.

Determinism contract: a streaming generator and its materializing
counterpart in :mod:`repro.traffic.workloads` are two views of the same
private column core, so with the same seed and parameters they produce
the same arrival sequence and reject the same inputs. The stream maps
each slot's column chunk to a burst of packets; the materializing
function concatenates the chunks into a
:class:`~repro.traffic.trace.Trace`. Both forms are pinned to
the same absolute trace digests (``tests/test_trace_columnar.py``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.config import SwitchConfig
from repro.core.packet import Packet
from repro.traffic.trace import Chunk
from repro.traffic.workloads import (
    DEFAULT_SOURCES,
    _processing_chunks,
    _value_port_chunks,
    _value_uniform_chunks,
)


def _bursts(chunks: Iterator[Chunk]) -> Iterator[List[Packet]]:
    """Map each slot's column chunk to that slot's packet burst."""
    for slot, (ports, works, values) in enumerate(chunks):
        yield [
            Packet(port=port, work=work, value=value, arrival_slot=slot)
            for port, work, value in zip(
                ports.tolist(), works.tolist(), values.tolist()
            )
        ]


def stream_processing_workload(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 1980.0,
    seed: int = 0,
) -> Iterator[List[Packet]]:
    """Stream form of :func:`repro.traffic.workloads.
    processing_workload`: yields each slot's burst."""
    return _bursts(_processing_chunks(
        config, n_slots, load=load, absolute_rate=absolute_rate,
        n_sources=n_sources, mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots, seed=seed,
    ))


def stream_value_uniform_workload(
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
) -> Iterator[List[Packet]]:
    """Stream form of :func:`repro.traffic.workloads.
    value_uniform_workload` (port-bound sources regime)."""
    return _bursts(_value_uniform_chunks(
        config, n_slots, max_value, load=load, absolute_rate=absolute_rate,
        n_sources=n_sources, mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots, seed=seed, port_bound_sources=True,
    ))


def stream_value_port_workload(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 1980.0,
    seed: int = 0,
) -> Iterator[List[Packet]]:
    """Stream form of :func:`repro.traffic.workloads.
    value_port_workload` (uniform source-to-port assignment)."""
    return _bursts(_value_port_chunks(
        config, n_slots, load=load, absolute_rate=absolute_rate,
        n_sources=n_sources, mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots, seed=seed, port_weights=None,
    ))
