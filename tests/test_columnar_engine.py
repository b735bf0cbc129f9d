"""Columnar-engine state audits: self-checks, backends, wide switches.

The vectorized engine keeps two representations of the same buffer —
flat per-port columns for the hot path and per-packet record stores as
the object view. ``check_invariants`` cross-validates them (plus the
derived kernel structures and the transmission calendar), and
``REPRO_CHECK_INVARIANTS`` runs that audit periodically through
:func:`repro.analysis.competitive.run_system`. These tests prove the
audit has teeth: a deliberately corrupted column must be caught, from a
direct call and from the periodic driver alike.

The suite also pins the engine at the edges of its environment: under
``REPRO_VECTOR_BACKEND=python`` it must still match the reference, and
a switch far wider than any Fig. 5 panel must too, on the same
expiry-tick transmission calendar every width uses.
"""

from __future__ import annotations

import gc
import random
import sys

import pytest

from repro.analysis.competitive import PolicySystem, run_system
from repro.core import columns as columns_mod
from repro.core.columnar import (
    K_GENERIC,
    K_LQDV,
    K_MRD,
    K_MVD,
    VectorizedSwitch,
)
from repro.core.config import SwitchConfig
from repro.core.errors import TraceError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.experiments.fig5 import PANELS, _panel_factories
from repro.policies import make_policy
from repro.traffic.columnar import ColumnarTrace
from repro.traffic.trace import Trace


def _congested_trace(
    config: SwitchConfig, n_slots: int, seed: int, per_slot: int
) -> Trace:
    """A seeded random trace hot enough to exercise push-outs."""
    rng = random.Random(seed)
    n = config.n_ports
    trace = Trace()
    for slot in range(n_slots):
        burst = [
            Packet(
                port=(p := rng.randrange(n)),
                work=config.work_of(p),
                value=config.value_of(p),
                arrival_slot=slot,
            )
            for _ in range(rng.randint(0, per_slot))
        ]
        trace.append_slot(burst)
    return trace


def _warm_switch(policy_name: str = "LQD") -> VectorizedSwitch:
    """A small switch after a few congested slots."""
    config = SwitchConfig.contiguous(4, 8)
    switch = VectorizedSwitch(config)
    policy = make_policy(policy_name)
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    for burst in trace.slots:
        switch.run_slot(burst, policy)
    assert switch.occupancy > 0
    switch.check_invariants()
    return switch


# ----------------------------------------------------------------------
# Deliberate corruption must be caught
# ----------------------------------------------------------------------


def test_clean_state_passes():
    _warm_switch().check_invariants()


def test_corrupt_length_column_caught():
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._lens[port] += 1
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_value_total_caught():
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._tv[port] += 0.5
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_store_caught():
    # Dropping a record desynchronizes the object view from the length
    # column — the column/object-view consistency check must fire.
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._stores[port].pop()
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_active_set_caught():
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._is_act[port] = False
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_transmission_calendar_caught():
    # Narrow switches track head completion on an expiry-tick calendar;
    # moving a head's expiry off its scheduled bucket must be caught.
    switch = _warm_switch()
    assert switch._sched is not None, "narrow switch should use calendar"
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._hexp[port] += 1
    with pytest.raises(AssertionError):
        switch.check_invariants()


#: How a warm-up trace reaches the switch: as trace column spans, or
#: as packet bursts through the ``run_slot`` adapter.
FEEDS = ("columns", "run_slot")


def _warm_value_switch(
    policy_name: str, feed: str = "columns"
) -> VectorizedSwitch:
    """A small priority-queue switch after a few congested slots, with
    its value kernel bound and in sync."""
    config = SwitchConfig.value_contiguous(4, 8)
    switch = VectorizedSwitch(config)
    policy = make_policy(policy_name)
    objects = _congested_trace(config, 12, seed=5, per_slot=10)
    if feed == "run_slot":
        for burst in objects.slots:
            switch.run_slot(burst, policy)
    else:
        trace = ColumnarTrace.from_trace(objects)
        for slot in range(trace.n_slots):
            lo, hi = trace.slot_bounds(slot)
            switch.run_slot_columns(
                policy, trace.ports, trace.works, trace.values, None, lo, hi
            )
    assert switch.occupancy > 0 and switch._kclean and switch._vkeys
    switch.check_invariants()
    return switch


@pytest.mark.parametrize(
    "policy_name",
    ["LQD", "LWD", "BPD", "BPD1", "NHST", "LQD-V", "MVD", "MVD1", "MRD"],
)
def test_corrupt_kernel_structures_caught(policy_name):
    if policy_name in ("LQD", "LWD", "BPD", "BPD1", "NHST"):
        switches = [_warm_switch(policy_name)]
    else:
        switches = [_warm_value_switch(policy_name, feed) for feed in FEEDS]
    for switch in switches:
        if policy_name == "LQD":
            switch._maxl += 1
        elif policy_name == "LWD":
            switch._ncode[switch._active[0]] += 1
        elif policy_name in ("BPD", "BPD1"):
            switch._nm ^= 1
        elif policy_name == "NHST":
            switch._tcaps[0] += 1.0
        elif policy_name == "MVD":
            # The victim's filed key goes missing from the per-port column.
            switch._vkey[switch._vkeys[-1][2]] = None
        elif policy_name == "MRD":
            switch._vmins[0] += 0.5
        else:
            switch._vkeys.pop()
        with pytest.raises(AssertionError):
            switch.check_invariants()


@pytest.mark.parametrize(
    "policy_name, kind",
    [("LQD-V", K_LQDV), ("MVD", K_MVD), ("MRD", K_MRD)],
    ids=["LQD-V", "MVD", "MRD"],
)
def test_object_bursts_bind_value_kernel(policy_name, kind):
    # run_slot is an adapter over the column path, so packet bursts
    # reach the value kernels too (no generic-dispatch fallback).
    switch = _warm_value_switch(policy_name, "run_slot")
    assert switch._kkind == kind


@pytest.mark.parametrize("panel", [1, 4, 7], ids=["proc", "vu", "vp"])
def test_every_fig5_policy_binds_a_kernel(panel):
    # Each Fig. 5 line-up on its panels' fixed configuration (C = 1):
    # no policy of the figure runs on generic per-packet dispatch.
    spec = PANELS[panel]
    config_factory, _, _ = _panel_factories(spec, n_slots=10, load=1.0)
    fixed = {"k": spec.fixed_k, "B": spec.fixed_b, "C": spec.fixed_c}
    config = config_factory(fixed[spec.param_name])
    generic = []
    for name in spec.policies:
        switch = VectorizedSwitch(config)
        if switch._kernel_for(make_policy(name)) == K_GENERIC:
            generic.append(name)
    assert generic == []


def test_corrupt_occupancy_caught():
    switch = _warm_switch()
    switch.occupancy -= 1
    with pytest.raises(AssertionError):
        switch.check_invariants()


# ----------------------------------------------------------------------
# The periodic driver must run the audit
# ----------------------------------------------------------------------


def test_periodic_check_catches_corruption(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "3")
    config = SwitchConfig.contiguous(4, 8)
    system = PolicySystem(config, make_policy("LQD"), engine="vectorized")
    trace = _congested_trace(config, 20, seed=9, per_slot=8)
    # Pre-corrupt a column: the run itself proceeds (fast kernels do not
    # audit per slot) until the periodic check fires at slot 3.
    system.switch._tv[0] += 1.0
    with pytest.raises(AssertionError):
        run_system(system, trace)


@pytest.mark.parametrize("policy_name", ["LWD", "BPD1", "NHDT"])
def test_periodic_check_passes_clean_vectorized_run(monkeypatch, policy_name):
    # LWD's code list, BPD1's min-length-2 candidate mask and the
    # threshold kernel's binding all go through the periodic audit.
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "3")
    config = SwitchConfig.contiguous(4, 8)
    trace = _congested_trace(config, 30, seed=10, per_slot=8)
    vec = PolicySystem(config, make_policy(policy_name), engine="vectorized")
    ref = PolicySystem(config, make_policy(policy_name), engine="reference")
    vec_metrics = run_system(vec, trace, flush_every=11)
    ref_metrics = run_system(ref, trace, flush_every=11)
    assert vec_metrics.snapshot() == ref_metrics.snapshot()


# ----------------------------------------------------------------------
# Column validation: once per (trace, config), pinned by nothing else
# ----------------------------------------------------------------------


def test_column_validation_runs_once_per_trace_and_config(monkeypatch):
    calls = []
    original = VectorizedSwitch._validate_columns

    def counting(self, ports, works, values):
        calls.append(len(ports))
        return original(self, ports, works, values)

    monkeypatch.setattr(VectorizedSwitch, "_validate_columns", counting)
    config = SwitchConfig.value_contiguous(4, 8)
    objects = _congested_trace(config, 12, seed=5, per_slot=10)
    # An object trace is validated through its cached columnar view.
    for trace in (ColumnarTrace.from_trace(objects), objects):
        calls.clear()
        for name in ("LQD-V", "MVD", "MRD", "NEST"):
            system = PolicySystem(
                config, make_policy(name), engine="vectorized"
            )
            run_system(system, trace)
        assert calls == [trace.total_packets]
        wider = SwitchConfig.value_contiguous(5, 8)
        run_system(
            PolicySystem(wider, make_policy("MVD"), engine="vectorized"),
            trace,
        )
        assert len(calls) == 2


def test_column_validation_pins_nothing_past_the_replay():
    config = SwitchConfig.value_contiguous(4, 8)
    trace = ColumnarTrace.from_trace(
        _congested_trace(config, 12, seed=5, per_slot=10)
    )
    before = sys.getrefcount(trace.ports)
    run_system(
        PolicySystem(config, make_policy("MRD"), engine="vectorized"), trace
    )
    # The switch (a reference cycle with its view) trusted the column
    # for its own lifetime only; once collected, nothing else holds it.
    gc.collect()
    after = sys.getrefcount(trace.ports)
    assert after == before
    assert trace.validated


def test_invalid_columns_still_rejected():
    config = SwitchConfig.value_contiguous(2, 4)
    trace = ColumnarTrace([0, 2], [0, 2], [1, 1], [1.0, 1.0])
    system = PolicySystem(config, make_policy("MVD"), engine="vectorized")
    with pytest.raises(TraceError):
        run_system(system, trace)
    assert not trace.validated
    switch = VectorizedSwitch(config)
    with pytest.raises(TraceError):
        switch.run_slot_columns(
            make_policy("MVD"), trace.ports, trace.works, trace.values,
            None, 0, 2,
        )


# ----------------------------------------------------------------------
# Object traces replay through a cached columnar view
# ----------------------------------------------------------------------


def _replay_both(config: SwitchConfig, trace: Trace, policy_name: str):
    """Fresh vectorized and reference replays of ``trace``; the
    vectorized one goes through the trace's columnar view."""
    vec = PolicySystem(config, make_policy(policy_name), engine="vectorized")
    ref = PolicySystem(config, make_policy(policy_name), engine="reference")
    return run_system(vec, trace), run_system(ref, trace)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda trace, more: trace.append_slot(more.slots[0]),
        lambda trace, more: trace.add_packet(2, more.slots[0][0]),
        lambda trace, more: trace.add_port_event(3, 1, False),
        lambda trace, more: trace.extend(more),
    ],
    ids=["append_slot", "add_packet", "add_port_event", "extend"],
)
def test_replay_after_mutation_sees_new_content(mutate):
    config = SwitchConfig.contiguous(4, 8)
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    more = _congested_trace(config, 6, seed=6, per_slot=10)
    vec_before, _ = _replay_both(config, trace, "LQD")
    view = trace.to_columnar()
    mutate(trace, more)
    assert trace.to_columnar() is not view
    assert trace.to_columnar() == ColumnarTrace.from_trace(trace)
    vec_after, ref_after = _replay_both(config, trace, "LQD")
    assert vec_after.snapshot() == ref_after.snapshot()
    assert vec_after.snapshot() != vec_before.snapshot()


def test_cached_view_is_reused_and_invisible():
    config = SwitchConfig.contiguous(4, 8)
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    twin = Trace([list(burst) for burst in trace.slots])
    before = repr(trace)
    _replay_both(config, trace, "LWD")
    view = trace.to_columnar()
    assert trace.to_columnar() is view and view.validated
    assert trace == twin and twin == trace
    assert repr(trace) == before == repr(twin)


# ----------------------------------------------------------------------
# Backend forcing: REPRO_VECTOR_BACKEND=python
# ----------------------------------------------------------------------


def _drive_both(config: SwitchConfig, trace: Trace, policy_name: str):
    vec = VectorizedSwitch(config)
    ref = SharedMemorySwitch(config)
    vec_policy = make_policy(policy_name)
    ref_policy = make_policy(policy_name)
    for burst in trace.slots:
        vec.run_slot(burst, vec_policy)
        ref.run_slot(burst, ref_policy)
    vec.check_invariants()
    return vec, ref


def _assert_matches_reference(
    vec: VectorizedSwitch, ref: SharedMemorySwitch
) -> None:
    for port in range(ref.config.n_ports):
        ref_state = [(p.port, p.value, p.residual) for p in ref.queues[port]]
        assert vec.queue_state(port) == ref_state
    assert vec.metrics.snapshot() == ref.metrics.snapshot()


def test_python_backend_forced(monkeypatch):
    monkeypatch.setenv(columns_mod.BACKEND_ENV, "python")
    columns_mod.reset_backend_cache()
    try:
        assert columns_mod.backend() == "python"
        assert columns_mod.numpy_module() is None
        config = SwitchConfig.contiguous(5, 12)
        trace = _congested_trace(config, 40, seed=21, per_slot=12)
        vec, ref = _drive_both(config, trace, "LWD")
        _assert_matches_reference(vec, ref)
    finally:
        monkeypatch.delenv(columns_mod.BACKEND_ENV, raising=False)
        columns_mod.reset_backend_cache()


def test_backend_env_validation(monkeypatch):
    from repro.core.errors import ConfigError

    monkeypatch.setenv(columns_mod.BACKEND_ENV, "cupy")
    columns_mod.reset_backend_cache()
    try:
        with pytest.raises(ConfigError):
            columns_mod.backend()
    finally:
        monkeypatch.delenv(columns_mod.BACKEND_ENV, raising=False)
        columns_mod.reset_backend_cache()


# ----------------------------------------------------------------------
# Every width transmits on the expiry-tick calendar
# ----------------------------------------------------------------------


def test_wide_switch_runs_calendar_and_matches_reference():
    # 130 ports, twice the widest Fig. 5 panel, under dense bursts of
    # up to 3n arrivals a slot.
    n = 130
    config = SwitchConfig.from_works(
        [1 + (p % 3) for p in range(n)], buffer_size=2 * n
    )
    trace = _congested_trace(config, 30, seed=31, per_slot=3 * n)
    vec, ref = _drive_both(config, trace, "LQD")
    assert vec.metrics.pushed_out > 0, "trace should congest the buffer"
    _assert_matches_reference(vec, ref)


def test_narrow_switch_uses_calendar():
    config = SwitchConfig.contiguous(8, 32)
    switch = VectorizedSwitch(config)
    switch.run_slot([Packet(port=3, work=4)], make_policy("LQD"))
    # Work 4, one phase done: the head is armed three ticks ahead.
    assert switch._head_residual(3) == 3
    assert 3 in switch._sched[switch._hexp[3]]
