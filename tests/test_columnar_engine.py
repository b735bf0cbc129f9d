"""Columnar-engine state audits: self-checks, backends, wide switches.

The vectorized engine keeps two representations of the same buffer —
flat per-port columns for the hot path and per-packet record stores as
the object view. ``check_invariants`` cross-validates them (plus the
derived kernel structures and the transmission calendar), and
``REPRO_CHECK_INVARIANTS`` runs that audit periodically through
:func:`repro.analysis.competitive.run_system`. These tests prove the
audit has teeth: a deliberately corrupted column must be caught, from a
direct call and from the periodic driver alike.

The suite also pins the engine at the edge of its shape: a switch far
wider than any Fig. 5 panel must match the reference, on the same
expiry-tick transmission calendar every width uses. Last, it pins which
engine runs what: every Fig. 5 cell binds a kernel, port churn keeps
the kernel bound, and every pair with no kernel is built on the
reference engine, visibly.
"""

from __future__ import annotations

import gc
import math
import random
import sys

import pytest

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.columnar import (
    K_BPD,
    K_LQD,
    K_LQDV,
    K_LWD,
    K_MRD,
    K_MVD,
    K_THRESHOLD,
    VectorizedSwitch,
)
from repro.core.config import BufferModel, SwitchConfig
from repro.core.errors import ConfigError, TraceError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.experiments.fig5 import PANELS, _panel_factories
from repro.opt.scripted import ScriptedPolicy
from repro.policies import make_policy
from repro.policies.dynamic import DynamicThreshold
from repro.policies.processing import LQD
from repro.traffic.trace import Trace, np

needs_numpy = pytest.mark.skipif(np is None, reason="requires numpy")


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


def _warm_switch(
    policy_name: str = "LQD", speedup: int = 1
) -> VectorizedSwitch:
    """A small switch after a few congested slots; at ``C > 1`` the
    works start at 2, so queues still hold armed packets at the end."""
    config = SwitchConfig.from_works(
        [p + (1 if speedup == 1 else 2) for p in range(4)],
        buffer_size=8,
        speedup=speedup,
    )
    system = PolicySystem(
        config, make_policy(policy_name), engine="vectorized"
    )
    run_system(system, _congested_trace(config, 12, seed=5, per_slot=10))
    switch = system.switch
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
    # Only priority queues keep value totals (MRD's keys read them).
    switch = _warm_value_switch("MRD")
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


#: How a warm-up trace reaches the switch: as one replay of the
#: trace's columns, or as packet bursts, each a one-slot trace.
FEEDS = ("columns", "bursts")


def _warm_value_switch(
    policy_name: str, feed: str = "columns"
) -> VectorizedSwitch:
    """A small priority-queue switch after a few congested slots, with
    its value kernel bound and its keys brought in sync."""
    config = SwitchConfig.value_contiguous(4, 8)
    system = PolicySystem(
        config, make_policy(policy_name), engine="vectorized"
    )
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    if feed == "bursts":
        for burst in trace.slots:
            run_system(system, Trace([burst]))
    else:
        run_system(system, trace)
    switch = system.switch
    # A transmission phase that completes a packet leaves the keys
    # stale until the next congested arrival: bring them in sync, as
    # that arrival would.
    switch._kernel_for(switch._kpolicy)
    assert switch.occupancy > 0 and switch._kclean and switch._vkeys
    switch.check_invariants()
    return switch


def _armed_switch() -> VectorizedSwitch:
    """C = 3, work 4: one packet a slot to port 0 for three slots, so
    the head and two packets behind it are armed at distinct ticks."""
    config = SwitchConfig.from_works([4, 1], buffer_size=8, speedup=3)
    system = PolicySystem(config, make_policy("LWD"), engine="vectorized")
    run_system(
        system,
        Trace(
            [[Packet(port=0, work=4, arrival_slot=s)] for s in range(3)]
        ),
    )
    switch = system.switch
    assert switch._hexp[0] == 4 and switch._wins[0] == [5, 6]
    switch.check_invariants()
    return switch


@pytest.mark.parametrize(
    "policy_name",
    [
        "LQD", "LWD", "BPD", "BPD1", "NHST", "LQD-V", "MVD", "MVD1", "MRD",
        "C3-LQD", "C3-LWD", "C3-BPD", "C3-window-off-calendar",
        "C3-window-unsorted", "threshold-memo",
    ],
)
def test_corrupt_kernel_structures_caught(policy_name):
    if policy_name.startswith("C3-window"):
        switches = [_armed_switch()]
    elif policy_name.startswith("C3-"):
        policy_name = policy_name[3:]
        switch = _warm_switch(policy_name, speedup=3)
        assert any(switch._wins), "C = 3 should arm packets behind heads"
        # At C > 1 LWD rebuilds its codes before each arrival phase:
        # bring them in sync, as the next slot would.
        switch._kernel_for(switch._kpolicy)
        switches = [switch]
    elif policy_name in ("LQD", "LWD", "BPD", "BPD1", "NHST"):
        switches = [_warm_switch(policy_name)]
    elif policy_name == "threshold-memo":
        switches = [_warm_switch("NHDT")]
    else:
        switches = [_warm_value_switch(policy_name, feed) for feed in FEEDS]
    for switch in switches:
        if policy_name == "C3-window-off-calendar":
            # An armed packet behind the head loses its calendar entry.
            switch._sched[switch._wins[0][0]].remove(0)
        elif policy_name == "C3-window-unsorted":
            win = switch._wins[0]
            win[0], win[1] = win[1], win[0]
        elif policy_name == "LQD":
            switch._maxl += 1
        elif policy_name == "LWD":
            switch._ncode[switch._active[0]] += 1
        elif policy_name in ("BPD", "BPD1"):
            switch._nm ^= 1
        elif policy_name == "NHST":
            switch._tcaps[0] += 1.0
        elif policy_name == "threshold-memo":
            # One remembered NHDT decision is flipped.
            memo = switch._tmemo
            key = next(iter(memo))
            memo[key] = not memo[key]
        elif policy_name == "MVD":
            # The victim's filed key goes missing from the per-port column.
            switch._vkey[switch._vkeys[-1][2]] = None
        elif policy_name == "MRD":
            switch._vmins[0] += 0.5
        else:
            switch._vkeys.pop()
        with pytest.raises(AssertionError):
            switch.check_invariants()


def test_threshold_memo_dies_with_its_binding():
    # One switch replays five threshold policies in turn, each as one
    # span of the trace's columns, so each replay starts from the last
    # one's buffer, and each must match the reference. DT and NHDT-W
    # call their rules directly, so their memo must be empty; NHDT and
    # Harmonic pack (own, statistic) into int keys of one key space,
    # which their rules read differently, so an NHDT entry that
    # outlived its binding fails the audit of check_invariants after
    # the Harmonic replay.
    config = SwitchConfig.from_works([2] * 8, buffer_size=16)
    trace = _congested_trace(config, 40, seed=9, per_slot=12)
    # Each replay stamps the trace's own arrival slots, as the
    # reference's packets carry them.
    arrivals = [pk.arrival_slot for pk in trace.packets()]
    columns = (trace.ports, trace.works, trace.values, arrivals, trace.offsets)
    vec = VectorizedSwitch(config)
    ref = SharedMemorySwitch(config)
    for make, memoized in (
        (lambda: DynamicThreshold(alpha=0.5), False),
        (lambda: DynamicThreshold(alpha=2.0), False),
        (lambda: make_policy("NHDT"), True),
        (lambda: make_policy("NHDT-W"), False),
        (lambda: make_policy("Harmonic"), True),
    ):
        vec_policy = make()
        ref_policy = make()
        # No slot of the trace finds the buffer empty and idle, so the
        # span runs to its end.
        assert vec.run_span(vec_policy, *columns, 0, trace.n_slots) == (
            trace.n_slots
        )
        for burst in trace.slots:
            ref.run_slot(burst, ref_policy)
        assert vec._kpolicy is vec_policy
        assert bool(vec._tmemo) == memoized
        vec.check_invariants()
        _assert_matches_reference(vec, ref)


@pytest.mark.parametrize(
    "policy_name, kind",
    [("LQD-V", K_LQDV), ("MVD", K_MVD), ("MRD", K_MRD)],
    ids=["LQD-V", "MVD", "MRD"],
)
def test_object_bursts_bind_value_kernel(policy_name, kind):
    # Packet bursts replayed as one-slot traces reach the value kernels
    # too (no generic-dispatch fallback).
    switch = _warm_value_switch(policy_name, "bursts")
    assert switch._kkind == kind


KERNELS = (K_LQD, K_LWD, K_BPD, K_THRESHOLD, K_LQDV, K_MVD, K_MRD)


@pytest.mark.parametrize(
    "panels", [(1, 2, 3), (4, 5, 6), (7, 8, 9)], ids=["proc", "vu", "vp"]
)
def test_every_fig5_policy_binds_a_kernel(panels):
    # Every (panel, grid value, policy) cell of Fig. 5, the speedup
    # sweeps included, runs a kernel on the vectorized engine.
    unserved = []
    for panel in panels:
        spec = PANELS[panel]
        config_factory, _, _ = _panel_factories(spec, n_slots=10, load=1.0)
        for value in spec.param_values:
            config = config_factory(value)
            for name in spec.policies:
                policy = make_policy(name)
                system = PolicySystem(config, policy, engine="vectorized")
                if (
                    system.engine != "vectorized"
                    or system.switch._kernel_for(policy) not in KERNELS
                ):
                    unserved.append((panel, value, name))
    assert unserved == []


def test_corrupt_occupancy_caught():
    switch = _warm_switch()
    switch.occupancy -= 1
    with pytest.raises(AssertionError):
        switch.check_invariants()


def _bump(counter: str):
    """Corrupt one metrics counter by one."""

    def corrupt(switch: VectorizedSwitch) -> None:
        setattr(switch.metrics, counter, getattr(switch.metrics, counter) + 1)

    return corrupt


def _miscount_port_flush(switch: VectorizedSwitch) -> None:
    switch._flushed_by_port[0] += 1


@pytest.mark.parametrize(
    "corrupt",
    [
        _bump("accepted"),
        _bump("pushed_out"),
        _bump("flushed"),
        _miscount_port_flush,
    ],
    ids=["accepted", "pushed_out", "flushed", "flushed_by_port"],
)
def test_corrupt_packet_ledger_caught(corrupt):
    """A miscounted term of the packet ledger fails the conservation
    audit, at once or after the next span derives the drops from it."""
    switch = _warm_switch()
    corrupt(switch)
    more = _congested_trace(switch.config, 1, seed=6, per_slot=10)
    switch.run_span(
        make_policy("LQD"), more.ports, more.works, more.values,
        [switch.current_slot] * more.total_packets, more.offsets, 0, 1,
    )
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
    system.switch._lens[0] += 1
    with pytest.raises(AssertionError, match="length column"):
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
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    for name in ("LQD-V", "MVD", "MRD", "NEST"):
        system = PolicySystem(config, make_policy(name), engine="vectorized")
        run_system(system, trace)
    assert calls == [trace.total_packets]
    wider = SwitchConfig.value_contiguous(5, 8)
    run_system(
        PolicySystem(wider, make_policy("MVD"), engine="vectorized"), trace
    )
    assert len(calls) == 2


def test_column_validation_pins_nothing_past_the_replay():
    config = SwitchConfig.value_contiguous(4, 8)
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    before = sys.getrefcount(trace.ports)
    run_system(
        PolicySystem(config, make_policy("MRD"), engine="vectorized"), trace
    )
    # The switch trusted the column for its own lifetime only; once
    # collected, nothing else holds it.
    gc.collect()
    after = sys.getrefcount(trace.ports)
    assert after == before
    assert trace.validated


def test_invalid_columns_still_rejected():
    config = SwitchConfig.value_contiguous(2, 4)
    trace = Trace.from_columns([0, 2], [0, 2], [1, 1], [1.0, 1.0])
    system = PolicySystem(config, make_policy("MVD"), engine="vectorized")
    with pytest.raises(TraceError):
        run_system(system, trace)
    assert not trace.validated
    # run_span checks columns it was not bound to on first sight.
    switch = VectorizedSwitch(config)
    with pytest.raises(TraceError):
        switch.run_span(
            make_policy("MVD"), trace.ports, trace.works, trace.values,
            None, trace.offsets, 0, 1,
        )


# ----------------------------------------------------------------------
# Bad columns are rejected with the scan's text, however the trace was built
# ----------------------------------------------------------------------


def _from_chunks(slots) -> Trace:
    """``slots`` of ``(port, work, value)`` packets, built the way the
    generators build a trace: one numpy chunk per slot."""
    return Trace.from_chunks(
        (
            np.array([p for p, _, _ in slot], np.int64),
            np.array([w for _, w, _ in slot], np.int64),
            np.array([v for _, _, v in slot], np.float64),
        )
        for slot in slots
    )


def _from_columns(slots) -> Trace:
    """The same packets adopted as list columns."""
    offsets = [0]
    for slot in slots:
        offsets.append(offsets[-1] + len(slot))
    packets = [packet for slot in slots for packet in slot]
    return Trace.from_columns(
        offsets,
        [p for p, _, _ in packets],
        [w for _, w, _ in packets],
        [float(v) for _, _, v in packets],
    )


_BUILDERS = [
    pytest.param(_from_chunks, id="chunks", marks=needs_numpy),
    pytest.param(_from_columns, id="columns"),
]

_PRIORITY = SwitchConfig.value_contiguous(4, 8)
# Works 1..4. Valid packets go to ports 1 and 2 only, so a port 0 or
# port 3 packet with a wrong work is the only packet of its port.
_FIFO = SwitchConfig.contiguous(4, 8)
_PORTS = "packet destined to port {}, switch has 4 ports"
_VALUE = "packet value must be > 0, got {}"
_WORK = (
    "packet work {} violates per-port requirement w_{}={} "
    "(Section III model constraint)"
)

_BAD_PACKETS = [
    (_PRIORITY, (-1, 1, 2.0), _PORTS.format(-1)),
    (_PRIORITY, (4, 1, 2.0), _PORTS.format(4)),
    (_PRIORITY, (1, 0, 2.0), "packet work must be >= 1, got 0"),
    (_PRIORITY, (1, 1, 0.0), _VALUE.format(0.0)),
    (_PRIORITY, (1, 1, -1.5), _VALUE.format(-1.5)),
    (_PRIORITY, (1, 1, math.nan), _VALUE.format(math.nan)),
    (_FIFO, (-1, 1, 1.0), _PORTS.format(-1)),
    (_FIFO, (4, 4, 1.0), _PORTS.format(4)),
    (_FIFO, (0, 2, 1.0), _WORK.format(2, 0, 1)),
    (_FIFO, (3, 1, 1.0), _WORK.format(1, 3, 4)),
    (_FIFO, (2, 3, 0.0), _VALUE.format(0.0)),
    (_FIFO, (2, 3, -1.5), _VALUE.format(-1.5)),
    (_FIFO, (2, 3, math.nan), _VALUE.format(math.nan)),
]


def _slots_around(config: SwitchConfig, bad):
    """Valid packets to ports 1 and 2 with ``bad`` in the middle of the
    second slot, then an empty slot."""
    a = (1, config.work_of(1), 2.0)
    b = (2, config.work_of(2), 3.0)
    return [[a, b], [a, bad, b], [], [b]]


@pytest.mark.parametrize("build", _BUILDERS)
@pytest.mark.parametrize(
    "config, bad, message",
    _BAD_PACKETS,
    ids=[
        f"{'fifo' if c is _FIFO else 'priority'}-{bad}"
        for c, bad, _ in _BAD_PACKETS
    ],
)
def test_bad_columns_rejected_with_the_scan_text(build, config, bad, message):
    trace = build(_slots_around(config, bad))
    policy = "LQD-V" if config is _PRIORITY else "LQD"
    system = PolicySystem(config, make_policy(policy), engine="vectorized")
    with pytest.raises(TraceError) as caught:
        run_system(system, trace)
    assert str(caught.value) == message
    assert not trace.validated


# ----------------------------------------------------------------------
# Builder methods drop what was derived from the columns
# ----------------------------------------------------------------------


def _replay_both(config: SwitchConfig, trace: Trace, policy_name: str):
    """Fresh vectorized and reference replays of ``trace``: the first
    reads its columns, the second its packet view."""
    vec = PolicySystem(config, make_policy(policy_name), engine="vectorized")
    ref = PolicySystem(config, make_policy(policy_name), engine="reference")
    return run_system(vec, trace), run_system(ref, trace)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda trace, more: trace.append_slot(more.slots[0]),
        lambda trace, more: trace.add_port_event(3, 1, False),
        lambda trace, more: trace.extend(more),
    ],
    ids=["append_slot", "add_port_event", "extend"],
)
def test_replay_after_mutation_sees_new_content(monkeypatch, mutate):
    config = SwitchConfig.contiguous(4, 8)
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    more = _congested_trace(config, 6, seed=6, per_slot=10)
    twin = Trace(trace.slots)
    vec_before, ref_before = _replay_both(config, trace, "LQD")
    assert vec_before.snapshot() == ref_before.snapshot()
    # Both replays left their caches behind, and neither shows.
    view = trace.slots
    index = trace.run_index
    assert trace.slots is view and trace.validated
    assert trace.run_index is index
    assert trace == twin and repr(trace) == repr(twin)
    mutate(trace, more)
    assert trace.slots is not view and not trace.validated
    assert trace.run_index is not index
    assert trace != twin
    assert Trace(trace.slots, trace.port_events) == trace
    # The mutated trace is checked again.
    scans = []
    scan = VectorizedSwitch._validate_columns
    monkeypatch.setattr(
        VectorizedSwitch,
        "_validate_columns",
        lambda self, *columns: scans.append(1) or scan(self, *columns),
    )
    vec_after, ref_after = _replay_both(config, trace, "LQD")
    assert len(scans) == 1
    assert vec_after.snapshot() == ref_after.snapshot()
    assert vec_after.snapshot() != vec_before.snapshot()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda trace, bad: trace.append_slot([bad]),
        lambda trace, bad: trace.extend(Trace([[bad]])),
    ],
    ids=["append_slot", "extend"],
)
def test_mutation_into_a_bad_trace_is_rejected(mutate):
    config = SwitchConfig.contiguous(4, 8)
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    system = PolicySystem(config, make_policy("LQD"), engine="vectorized")
    run_system(system, trace)
    assert trace.validated
    # Port 3 carries work 4 everywhere else: a work-1 packet there
    # breaks the FIFO model, and the memo of the earlier check may not
    # hide it.
    mutate(trace, Packet(port=3, work=1))
    system = PolicySystem(config, make_policy("LQD"), engine="vectorized")
    with pytest.raises(TraceError, match="w_3=4"):
        run_system(system, trace)


# ----------------------------------------------------------------------
# Every width transmits on the expiry-tick calendar
# ----------------------------------------------------------------------


def _drive_both(config: SwitchConfig, trace: Trace, policy_name: str):
    vec = PolicySystem(config, make_policy(policy_name), engine="vectorized")
    ref = PolicySystem(config, make_policy(policy_name))
    run_system(vec, trace)
    run_system(ref, trace)
    vec.check_invariants()
    return vec.switch, ref.switch


def _assert_matches_reference(
    vec: VectorizedSwitch, ref: SharedMemorySwitch
) -> None:
    for port in range(ref.config.n_ports):
        ref_state = [(p.port, p.value, p.residual) for p in ref.queues[port]]
        assert vec.queue_state(port) == ref_state
    assert vec.metrics.snapshot() == ref.metrics.snapshot()


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
    system = PolicySystem(config, make_policy("LQD"), engine="vectorized")
    run_system(system, Trace([[Packet(port=3, work=4)]]))
    switch = system.switch
    # Work 4, one phase done: the head is armed three ticks ahead.
    assert switch._head_residual(3) == 3
    assert 3 in switch._sched[switch._hexp[3]]


# ----------------------------------------------------------------------
# Which engine runs what
# ----------------------------------------------------------------------


class _LQDVariant(LQD):
    """A subclass the kernel table does not know."""


def _split_config() -> SwitchConfig:
    return SwitchConfig.uniform(
        4, 8, buffer_model=BufferModel.split((1, 1, 1, 1), 4)
    )


def _proc_config() -> SwitchConfig:
    return SwitchConfig.contiguous(4, 8)


def _value_config() -> SwitchConfig:
    return SwitchConfig.value_contiguous(4, 8)


def _random_available() -> bool:
    try:
        make_policy("Random")
    except ConfigError:
        return False
    return True


_NEEDS_NUMPY = pytest.mark.skipif(
    not _random_available(), reason="the Random policy needs numpy"
)

#: (config, policy) pairs with no kernel: a split buffer model, the
#: extensions LWD1, MRD1 and Random, scripted OPT, a policy subclass
#: the kernel table does not know, and a processing kernel's policy on
#: priority queues.
UNSERVED = [
    pytest.param(
        _value_config, lambda: make_policy("LQD"), id="LQD-priority-queues"
    ),
    pytest.param(_split_config, lambda: make_policy("LQD"), id="split-LQD"),
    pytest.param(_proc_config, lambda: make_policy("LWD1"), id="LWD1"),
    pytest.param(_value_config, lambda: make_policy("MRD1"), id="MRD1"),
    pytest.param(
        _proc_config, lambda: make_policy("Random"), id="Random",
        marks=_NEEDS_NUMPY,
    ),
    pytest.param(
        _value_config, lambda: make_policy("Random"), id="Random-value",
        marks=_NEEDS_NUMPY,
    ),
    pytest.param(
        _proc_config, lambda: ScriptedPolicy(strict=False), id="Scripted"
    ),
    pytest.param(_proc_config, _LQDVariant, id="LQD-subclass"),
]


def _tagged_trace(config: SwitchConfig) -> Trace:
    """A congested trace whose packets carry alternating OPT tags."""
    trace = _congested_trace(config, 30, seed=12, per_slot=8)
    return Trace(
        [
            [
                Packet(
                    port=pk.port,
                    work=pk.work,
                    value=pk.value,
                    arrival_slot=pk.arrival_slot,
                    opt_accept=i % 2 == 0,
                )
                for i, pk in enumerate(burst)
            ]
            for burst in trace.slots
        ]
    )


@pytest.mark.parametrize("config_factory, policy_factory", UNSERVED)
def test_unserved_pair_runs_on_reference(config_factory, policy_factory):
    config = config_factory()
    policy = policy_factory()
    assert not VectorizedSwitch.serves(config, policy)
    system = PolicySystem(config, policy, engine="vectorized")
    assert system.engine == "reference"
    assert isinstance(system.switch, SharedMemorySwitch)
    assert not hasattr(system, "run_span")
    trace = _tagged_trace(config)
    reference = PolicySystem(config, policy_factory(), engine="reference")
    assert (
        run_system(system, trace).snapshot()
        == run_system(reference, trace).snapshot()
    )
    # A bare vectorized switch refuses the pair instead of running a
    # slow path: at construction for a split model, else at binding,
    # before any of the span's packets is counted.
    with pytest.raises(ConfigError, match="reference"):
        switch = VectorizedSwitch(config)
        try:
            switch.run_span(
                policy_factory(), trace.ports, trace.works, trace.values,
                None, trace.offsets, 0, trace.n_slots,
            )
        finally:
            assert switch.metrics.arrived == 0


@pytest.mark.parametrize(
    "policy_name, kind", [("LQD", K_LQD), ("Harmonic", K_THRESHOLD)]
)
def test_port_down_keeps_kernel_bound(policy_name, kind):
    config = SwitchConfig.contiguous(4, 8)
    trace = _congested_trace(config, 24, seed=14, per_slot=10)
    vec_policy = make_policy(policy_name)
    system = PolicySystem(config, vec_policy, engine="vectorized")
    vec = system.switch
    ref = SharedMemorySwitch(config)
    ref_policy = make_policy(policy_name)
    for slot, burst in enumerate(trace.slots):
        if slot in (4, 12):
            assert vec.set_port_state(3, False) == ref.set_port_state(3, False)
        elif slot in (8, 16):
            assert vec.set_port_state(3, True) == ref.set_port_state(3, True)
        run_system(system, trace.window(slot, slot + 1))
        ref.run_slot(burst, ref_policy)
        assert vec._kkind == kind and vec._kpolicy is vec_policy
        vec.check_invariants()
    assert vec.metrics.flushed > 0
    _assert_matches_reference(vec, ref)


@pytest.mark.parametrize("policy_name", ["MRD", "LQD-V"])
def test_idle_stretch_skips_flushouts_exactly(policy_name):
    """An idle stretch is fast-forwarded over its flushout boundaries on
    both engines alike.

    Two queues of 0.1, 0.2 and 0.7 drain to a float residue in their
    value totals. A flush would zero it, but ``run_system`` skips the
    flushout at slot 10 because the buffer is empty and nothing
    arrives, and the residue carries into the value totals (which
    MRD's key reads) when traffic returns. The vectorized span path
    must keep the reference object path's totals bit for bit.
    """
    config = SwitchConfig.value_contiguous(2, 6)
    slots = [
        [
            Packet(port=port, work=1, value=value, arrival_slot=0)
            for port, values in ((0, (0.1, 0.2, 0.7)), (1, (0.2, 0.7, 0.1)))
            for value in values
        ]
    ]
    slots += [[] for _ in range(12)]
    for slot, burst in (
        (13, ((0, 0.1), (1, 0.1), (0, 0.2), (1, 0.2), (0, 0.7), (1, 0.7))),
        (14, ((0, 0.2), (1, 0.1), (0, 0.7), (1, 0.2))),
    ):
        slots.append(
            [
                Packet(port=port, work=1, value=value, arrival_slot=slot)
                for port, value in burst
            ]
        )
    trace = Trace(slots)
    reference = PolicySystem(config, make_policy(policy_name))
    vectorized = PolicySystem(
        config, make_policy(policy_name), engine="vectorized"
    )
    assert vectorized.engine == "vectorized"
    expect = run_system(reference, trace, flush_every=10)
    got = run_system(vectorized, trace, flush_every=10)
    assert expect.flushed == 0
    # The residue survived: a total summed afresh differs.
    queues = reference.switch.queues
    fresh = [sum(pk.value for pk in queue) for queue in queues]
    totals = [queue.total_value for queue in queues]
    assert fresh != totals
    assert vectorized.switch._tv == totals
    assert got.snapshot() == expect.snapshot()
