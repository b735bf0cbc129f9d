"""Differential suite: the naive reference engine vs. the vectorized engine.

The reference :class:`~repro.core.switch.SharedMemorySwitch`, whose
policies select victims with the naive O(n) scans of their
definitions, is the oracle. The columnar batch-slot engine of
:mod:`repro.core.columnar` must make the same decisions (the vectorized
oracle contract, see docs/VECTORIZED.md). It runs whole slots only and
emits no per-decision stream, so it is fed each slot as a one-slot
window of the trace and compared to the reference after *every* slot
on its queue contents and the full metrics snapshot: a single
divergent decision changes a queue or a counter in the slot it is
made. A second instance replays the whole trace in multi-slot spans
and must end in the same state.

This suite drives the engines in lock-step over hypothesis-generated
traces for every registered policy the vectorized engine serves, in
both disciplines and at speedups C from 1 to 4: the push-out policies'
victim kernels and the threshold policies' admission kernel. Those
traces are narrow and short, so a seeded lock-step on 16 and 64 ports
adds long congested on/off runs: many queues of equal length at once,
and threshold rules decided again and again for the same statistic.
Policies with no kernel run on the reference engine only (see the
engine selection tests in ``tests/test_columnar_engine.py``).
Values are drawn from a tiny set so exact-value ties occur constantly,
and processing-model configs flip between distinct and *uniform* works
— under uniform works aggregate keys (queue length, queue work) tie on
every congested arrival, which is exactly where victim tie-breaking
order is the whole behavior. Dedicated regression tests additionally
pin the engineered tie cases from the paper's definitions: the
reference's decision against the expected one, and the vectorized
engine against the reference's resulting state.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.columnar import K_THRESHOLD, VectorizedSwitch
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.decisions import DROP, Decision, push_out
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.opt.surrogate import make_surrogate
from repro.policies import available_policies, make_policy
from repro.traffic.trace import Trace


def _policy_names(model: str) -> List[str]:
    """The registered policies of ``model`` that bind a kernel on its
    purely shared configuration."""
    config = (
        SwitchConfig.contiguous(2, 4)
        if model == "processing"
        else SwitchConfig.value_contiguous(2, 4)
    )
    names = []
    for entry in available_policies(model):
        try:
            policy = make_policy(entry.name)
        except ConfigError:
            # Policies gated on optional deps (Random without numpy)
            # simply drop out of the differential matrix.
            continue
        if VectorizedSwitch.serves(config, policy):
            names.append(entry.name)
    return names


PROC_POLICIES = _policy_names("processing")
VALUE_POLICIES = _policy_names("value")

#: Small tie-prone value alphabet for the value-model traces.
TIE_VALUES = (1.0, 2.0, 3.0)


def _assert_fast_legs_match(
    naive: SharedMemorySwitch, fast: Sequence[VectorizedSwitch], where: str
) -> None:
    """Every vectorized leg holds the reference's queues and metrics."""
    # Sequence numbers differ (the vectorized engine draws none), so
    # compare the observable packet state instead.
    for port, queue in enumerate(naive.queues):
        state = [(p.port, p.value, p.residual) for p in queue]
        for vec in fast:
            assert vec.queue_state(port) == state, (
                f"port {port} diverged {where}"
            )
    reference_snapshot = naive.metrics.snapshot()
    for vec in fast:
        assert vec.metrics.snapshot() == reference_snapshot, (
            f"metrics diverged {where}"
        )


def _vectorized(config: SwitchConfig, policy_name: str) -> PolicySystem:
    """A fresh vectorized-engine system for ``policy_name``."""
    system = PolicySystem(
        config, make_policy(policy_name), engine="vectorized"
    )
    assert system.engine == "vectorized"
    return system


def _drive_lockstep(
    policy_name: str,
    config: SwitchConfig,
    slot_bursts: Sequence[Sequence[Packet]],
    flush_every: int | None = None,
) -> Tuple[SharedMemorySwitch, VectorizedSwitch, VectorizedSwitch]:
    """Run the engines in lock-step, comparing them after every slot.

    The naive reference runs each slot packet by packet. A vectorized
    system runs the same slot as a one-slot window of the trace through
    ``run_system``. A second one replays the whole trace through
    ``run_system`` in multi-slot spans; it is returned for the caller
    to compare at the end.
    """
    naive = SharedMemorySwitch(config)
    naive_policy = make_policy(policy_name)
    stepped = _vectorized(config, policy_name)
    trace = Trace(slot_bursts)
    assert trace.arrivals is None
    for slot, burst in enumerate(slot_bursts):
        naive.run_slot(burst, naive_policy)
        run_system(stepped, trace.window(slot, slot + 1))
        _assert_fast_legs_match(
            naive, (stepped.switch,), f"under {policy_name} at slot {slot}"
        )
        if flush_every is not None and (slot + 1) % flush_every == 0:
            naive.flush()
            stepped.flush()
    whole = _vectorized(config, policy_name)
    run_system(whole, trace, flush_every=flush_every)
    return naive, stepped.switch, whole.switch


def _lockstep_audited(
    policy_name: str, config: SwitchConfig, bursts: Sequence[Sequence[Packet]]
) -> Tuple[SharedMemorySwitch, List[List[List[Packet]]]]:
    """Lock-step with the reference, auditing both engines and
    comparing ``queue_state``, the metrics snapshot and every queue's
    ``queue_work`` after each slot; returns the reference switch and
    its queues as they stood after each slot."""
    naive = SharedMemorySwitch(config)
    naive_policy = make_policy(policy_name)
    system = _vectorized(config, policy_name)
    vec = system.switch
    trace = Trace(bursts)
    seen = []
    for slot, burst in enumerate(bursts):
        naive.run_slot(burst, naive_policy)
        run_system(system, trace.window(slot, slot + 1))
        naive.check_invariants()
        vec.check_invariants()
        _assert_fast_legs_match(naive, (vec,), f"at slot {slot}")
        for port, queue in enumerate(naive.queues):
            assert vec.queue_work(port) == sum(p.residual for p in queue)
        seen.append([list(queue) for queue in naive.queues])
    return naive, seen


def _assert_same_outcome(
    naive: SharedMemorySwitch, *vectorized: VectorizedSwitch
) -> None:
    naive.check_invariants()
    for vec in vectorized:
        vec.check_invariants()
    _assert_fast_legs_match(naive, vectorized, "at the end of the run")


@st.composite
def fifo_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    buffer_size = draw(st.integers(min_value=n, max_value=3 * n))
    n_slots = draw(st.integers(min_value=1, max_value=8))
    bursts = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=2 * buffer_size,
            ),
            min_size=n_slots,
            max_size=n_slots,
        )
    )
    flush_every = draw(st.sampled_from([None, 3]))
    # Uniform works force exact aggregate-key ties (equal lengths tie
    # LQD, equal queue works tie LWD, equal static works tie BPD) on
    # essentially every congested arrival; distinct works exercise the
    # weighted orderings instead. Both shapes must agree across all
    # engines.
    uniform_work = draw(st.sampled_from([None, 1, 2]))
    # Speedup > 1 arms up to C packets per queue on the calendar:
    # same-tick completions, and push-outs of partly served tails.
    speedup = draw(st.sampled_from([1, 2, 3, 4]))
    return n, buffer_size, bursts, flush_every, uniform_work, speedup


@st.composite
def value_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    buffer_size = draw(st.integers(min_value=n, max_value=3 * n))
    n_slots = draw(st.integers(min_value=1, max_value=8))
    bursts = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.sampled_from(TIE_VALUES),
                ),
                min_size=0,
                max_size=2 * buffer_size,
            ),
            min_size=n_slots,
            max_size=n_slots,
        )
    )
    flush_every = draw(st.sampled_from([None, 3]))
    speedup = draw(st.sampled_from([1, 2, 3, 4]))
    return n, buffer_size, bursts, flush_every, speedup


@pytest.mark.parametrize("policy_name", PROC_POLICIES)
@settings(max_examples=25, deadline=None)
@given(scenario=fifo_scenario())
# C = 3, work 3: port 1's three packets are all armed and one cycle in
# when port 0's arrival meets a full buffer, so LWD pushes out an armed,
# partly served tail (its code drops by the residual 2, not by w = 3).
@example(scenario=(2, 3, [[1, 1, 1], [0, 0], [1], []], None, 3, 3))
# C = 2, work 2: both packets of port 0 are armed on admission and
# complete in the same transmission phase.
@example(scenario=(2, 4, [[0, 0], [], [0, 0, 0]], None, 2, 2))
def test_processing_policies_decision_identical(policy_name, scenario):
    n, buffer_size, bursts, flush_every, uniform_work, speedup = scenario
    if uniform_work is None:
        config = SwitchConfig.contiguous(n, buffer_size, speedup=speedup)
    else:
        config = SwitchConfig.from_works(
            [uniform_work] * n, buffer_size=buffer_size, speedup=speedup
        )
    slot_bursts = [
        [
            Packet(port=p, work=config.work_of(p), arrival_slot=slot)
            for p in burst
        ]
        for slot, burst in enumerate(bursts)
    ]
    _assert_same_outcome(
        *_drive_lockstep(policy_name, config, slot_bursts, flush_every)
    )


@pytest.mark.parametrize("policy_name", VALUE_POLICIES)
@settings(max_examples=25, deadline=None)
@given(scenario=value_scenario())
def test_value_policies_decision_identical(policy_name, scenario):
    n, buffer_size, bursts, flush_every, speedup = scenario
    config = SwitchConfig.value_contiguous(n, buffer_size, speedup=speedup)
    slot_bursts = [
        [
            Packet(port=p, work=1, value=v, arrival_slot=slot)
            for p, v in burst
        ]
        for slot, burst in enumerate(bursts)
    ]
    _assert_same_outcome(
        *_drive_lockstep(policy_name, config, slot_bursts, flush_every)
    )


# ----------------------------------------------------------------------
# Engineered exact-tie regressions (the paper's tie-breaking orders)
# ----------------------------------------------------------------------


def _fill(
    switch: SharedMemorySwitch, policy, packets: Sequence[Packet]
) -> None:
    """Offer setup packets (buffer has room, so they are all accepted)."""
    for packet in packets:
        decision = switch.offer(packet, policy)
        assert decision.victim_port is None


def _tie_case(
    policy_name: str,
    config: SwitchConfig,
    setup: Sequence[Packet],
    arrival: Packet,
    expected: Decision,
) -> None:
    """The engineered tie must resolve to ``expected`` on the naive
    reference, and the vectorized engine, given the whole scenario as
    one slot, must end that slot in the reference's state."""
    naive = SharedMemorySwitch(config)
    policy = make_policy(policy_name)
    _fill(naive, policy, setup)
    assert naive.view.is_full
    assert naive.offer(arrival, policy) == expected
    naive.check_invariants()
    # Close the slot by hand, as ``run_slot`` does.
    naive.transmission_phase()
    naive.metrics.record_slot(naive.occupancy)
    naive.current_slot += 1

    vec = _vectorized(config, policy_name)
    run_system(vec, Trace([list(setup) + [arrival]]))
    vec.check_invariants()
    _assert_fast_legs_match(
        naive, (vec.switch,), f"in the {policy_name} tie case"
    )


def test_lqd_length_tie_prefers_heavier_then_higher_port():
    # Queues 0 and 2 tied at length 2 (work 1 vs 3): victim is port 2.
    config = SwitchConfig.contiguous(3, 4)
    setup = [
        Packet(port=0, work=1), Packet(port=0, work=1),
        Packet(port=2, work=3), Packet(port=2, work=3),
    ]
    _tie_case(
        "LQD", config, setup,
        Packet(port=1, work=2), push_out(2),
    )


def test_lwd_work_tie_prefers_heavier_packets():
    # W_0 = 6 via six work-1 packets, W_2 = 6 via two work-3 packets:
    # tied total work, tie broken by per-packet work -> port 2.
    config = SwitchConfig.contiguous(3, 8)
    setup = [Packet(port=0, work=1) for _ in range(6)] + [
        Packet(port=2, work=3), Packet(port=2, work=3),
    ]
    _tie_case(
        "LWD", config, setup,
        Packet(port=1, work=2), push_out(2),
    )


def test_mvd_min_value_tie_prefers_longer_queue():
    # Both queues hold min value 1.0; queue 0 is longer -> victim 0.
    config = SwitchConfig.value_contiguous(3, 4)
    setup = [
        Packet(port=0, work=1, value=1.0),
        Packet(port=0, work=1, value=2.0),
        Packet(port=0, work=1, value=3.0),
        Packet(port=2, work=1, value=1.0),
    ]
    _tie_case(
        "MVD", config, setup,
        Packet(port=1, work=1, value=2.0), push_out(0),
    )


def test_lqdv_length_tie_prefers_cheapest_tail():
    # Queues 0 and 2 tied at length 2; queue 0's tail (1.0) is cheaper
    # than queue 2's (2.0) -> victim 0, although 2 is the higher port.
    config = SwitchConfig.value_contiguous(3, 4)
    setup = [
        Packet(port=0, work=1, value=1.0),
        Packet(port=0, work=1, value=3.0),
        Packet(port=2, work=1, value=2.0),
        Packet(port=2, work=1, value=3.0),
    ]
    _tie_case(
        "LQD-V", config, setup,
        Packet(port=1, work=1, value=2.0), push_out(0),
    )


def test_lqdv_equal_tails_prefer_higher_port():
    # Equal lengths and equal tails: the higher port is the victim.
    config = SwitchConfig.value_contiguous(3, 4)
    setup = [
        Packet(port=0, work=1, value=1.0),
        Packet(port=0, work=1, value=3.0),
        Packet(port=2, work=1, value=1.0),
        Packet(port=2, work=1, value=2.0),
    ]
    _tie_case(
        "LQD-V", config, setup,
        Packet(port=1, work=1, value=2.0), push_out(2),
    )


def test_mrd_ratio_tie_prefers_higher_port():
    # Identical queues at ports 0 and 2: ratio and min value tie, so the
    # higher port wins.
    config = SwitchConfig.value_contiguous(3, 4)
    setup = [
        Packet(port=0, work=1, value=1.0),
        Packet(port=0, work=1, value=3.0),
        Packet(port=2, work=1, value=1.0),
        Packet(port=2, work=1, value=3.0),
    ]
    _tie_case(
        "MRD", config, setup,
        Packet(port=1, work=1, value=2.0), push_out(2),
    )


def test_lqd_arrival_queue_wins_tie_and_drops():
    # The arrival's own queue (virtually one longer) is the unique
    # argmax -> DROP.
    config = SwitchConfig.contiguous(2, 2)
    setup = [Packet(port=1, work=2), Packet(port=1, work=2)]
    _tie_case("LQD", config, setup, Packet(port=1, work=2), DROP)


# ----------------------------------------------------------------------
# Dynamic scenarios: churn events and alpha admission on the purely
# shared model — the same lock-step contract while ports go down and up
# (split buffer models run on the reference engine only)
# ----------------------------------------------------------------------


from repro.policies.dynamic import DynamicThreshold, Harmonic  # noqa: E402


def _drive_dynamic(
    policy_factory: Callable[[], object],
    config: SwitchConfig,
    slot_bursts: Sequence[Sequence[Packet]],
    events_by_slot: Sequence[Sequence[Tuple[int, bool]]],
) -> Tuple[SharedMemorySwitch, VectorizedSwitch]:
    """Lock-step drive with mid-run ``set_port_state`` churn.

    Port events apply at slot start on both instances, and the reclaim
    counts must agree — a down event flushes the same queue on every
    engine or the buffer accounting has already diverged. The engines
    are compared after every slot.
    """
    naive = SharedMemorySwitch(config)
    naive_policy = policy_factory()
    system = PolicySystem(config, policy_factory(), engine="vectorized")
    batch = system.switch
    assert isinstance(batch, VectorizedSwitch)
    for slot, burst in enumerate(slot_bursts):
        for port, up in events_by_slot[slot]:
            r_naive = naive.set_port_state(port, up)
            r_batch = batch.set_port_state(port, up)
            assert r_naive == r_batch, (
                f"reclaim mismatch at slot {slot} port {port}: "
                f"{r_naive}/{r_batch}"
            )
        naive.run_slot(burst, naive_policy)
        run_system(system, Trace([burst]))
        _assert_fast_legs_match(naive, (batch,), f"at slot {slot}")
    return naive, batch


@st.composite
def dynamic_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    buffer_size = draw(st.integers(min_value=max(n, 4), max_value=3 * n + 4))
    n_slots = draw(st.integers(min_value=2, max_value=8))
    bursts = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=2 * buffer_size,
            ),
            min_size=n_slots,
            max_size=n_slots,
        )
    )
    # Churn plan: per slot, up to two valid toggles (validity is
    # tracked, so redundant-transition errors cannot occur).
    toggles = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=2,
            ),
            min_size=n_slots,
            max_size=n_slots,
        )
    )
    return n, buffer_size, bursts, toggles


def _dynamic_events(n, toggles):
    port_up = [True] * n
    events_by_slot = []
    for slot_toggles in toggles:
        events = []
        for port in slot_toggles:
            port_up[port] = not port_up[port]
            events.append((port, port_up[port]))
        events_by_slot.append(events)
    return events_by_slot


DYNAMIC_FACTORIES = [
    ("LQD", lambda: make_policy("LQD")),
    ("Harmonic", Harmonic),
    ("DT-0.5", lambda: DynamicThreshold(alpha=0.5)),
    ("DT-1", lambda: DynamicThreshold(alpha=1.0)),
    ("DT-2", lambda: DynamicThreshold(alpha=2.0)),
]


@pytest.mark.parametrize(
    "factory", [f for _, f in DYNAMIC_FACTORIES],
    ids=[name for name, _ in DYNAMIC_FACTORIES],
)
@settings(max_examples=25, deadline=None)
@given(scenario=dynamic_scenario())
# Port 1 goes down with a full queue while port 0 keeps arriving: its
# arrivals drop before the kernel runs, and the reclaimed slots free
# room for port 0 without re-binding the kernel.
@example(
    scenario=(2, 4, [[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0]], [[], [1], [1]])
)
def test_dynamic_policies_decision_identical(factory, scenario):
    n, buffer_size, bursts, toggles = scenario
    config = SwitchConfig.uniform(n, buffer_size)
    slot_bursts = [
        [Packet(port=p, work=1, arrival_slot=slot) for p in burst]
        for slot, burst in enumerate(bursts)
    ]
    _assert_same_outcome(
        *_drive_dynamic(
            factory, config, slot_bursts, _dynamic_events(n, toggles)
        )
    )


# ----------------------------------------------------------------------
# Wide switches under long congested on/off runs
# ----------------------------------------------------------------------

#: The value-model policies with a kernel whose cost grows with the
#: port count, and the threshold policies on the processing model too.
WIDE_POLICIES = [
    ("value", name)
    for name in ("NHDT", "Harmonic", "DT", "LQD-V", "MVD", "MVD1", "MRD")
] + [("processing", name) for name in ("NHDT", "Harmonic", "DT")]
WIDE_SLOTS = 400
#: One periodic flushout, at the end of slot 249.
WIDE_FLUSH_EVERY = 250
#: Port 1 goes down at slot 120 and comes back up at slot 150.
WIDE_PORT_EVENTS = {120: False, 150: True}


def _wide_case(
    model: str, n: int, speedup: int
) -> Tuple[SwitchConfig, Trace]:
    """An ``n``-port switch and a congested on/off trace from seeded
    ``random`` (no numpy, so the case runs where numpy is absent).

    Each slot offers a uniform number of arrivals, three in four of
    them to a pair of hot ports redrawn every 20 slots. The value model
    runs Fig. 5 panel 4's regime (``B = 96``, 48 arrivals a slot on
    average, values uniform on ``1..8``); the processing model has
    ``B = n``, works ``1..n`` and three times the switch's processing
    capacity.
    """
    rng = random.Random(n + speedup)
    if model == "value":
        config = SwitchConfig.uniform(
            n, 96, speedup=speedup, discipline=QueueDiscipline.PRIORITY
        )
        rate = 48.0
    else:
        config = SwitchConfig.contiguous(n, n, speedup=speedup)
        rate = 3.0 * sum(speedup / work for work in config.works)
    by_value = model == "value"
    trace = Trace()
    hot: List[int] = []
    for slot in range(WIDE_SLOTS):
        if slot % 20 == 0:
            hot = rng.sample(range(n), 2)
        burst: List[Packet] = []
        for _ in range(rng.randint(0, round(2 * rate))):
            port = rng.choice(hot) if rng.random() < 0.75 else rng.randrange(n)
            burst.append(
                Packet(
                    port=port,
                    work=1 if by_value else config.work_of(port),
                    value=float(rng.randint(1, 8)) if by_value else 1.0,
                    arrival_slot=slot,
                )
            )
        trace.append_slot(burst)
    return config, trace


@pytest.mark.parametrize("speedup", [1, 2])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize(
    "model, policy_name", WIDE_POLICIES,
    ids=[f"{model}-{name}" for model, name in WIDE_POLICIES],
)
def test_wide_switch_lockstep(model, policy_name, n, speedup):
    config, trace = _wide_case(model, n, speedup)
    naive = SharedMemorySwitch(config)
    naive_policy = make_policy(policy_name)
    system = _vectorized(config, policy_name)
    vec = system.switch
    congested = 0
    for slot, burst in enumerate(trace.slots):
        up = WIDE_PORT_EVENTS.get(slot)
        if up is not None:
            assert vec.set_port_state(1, up) == naive.set_port_state(1, up)
        before = naive.metrics.dropped + naive.metrics.pushed_out
        naive.run_slot(burst, naive_policy)
        run_system(system, trace.window(slot, slot + 1))
        vec.check_invariants()
        _assert_fast_legs_match(naive, (vec,), f"at slot {slot}")
        if naive.metrics.dropped + naive.metrics.pushed_out > before:
            congested += 1
        if (slot + 1) % WIDE_FLUSH_EVERY == 0:
            assert vec.flush() == naive.flush() > 0
    naive.check_invariants()
    assert congested >= 300, f"only {congested} congested slots"
    if policy_name in ("NHDT", "Harmonic"):
        # The threshold rule was read from the memo far more often than
        # it was evaluated.
        assert 0 < len(vec._tmemo) < vec.metrics.arrived // 4


# ----------------------------------------------------------------------
# Span replay: the vectorized engine runs whole slot spans between the
# cuts of ``run_system`` (flushouts, invariant checks, churn events)
# ----------------------------------------------------------------------

SPAN_SLOTS = 260
#: Coprime cadences, so spans end on either grid and on neither.
SPAN_FLUSH_EVERY = 50
SPAN_CHECK_EVERY = 7
#: Idle stretches: the first crosses the flushout at slot 150 and
#: holds a churn event; the second crosses only invariant checks.
SPAN_IDLE = (range(140, 166), range(230, 246))
#: (slot, port, up) churn, none on a flushout or check boundary.
SPAN_EVENTS = (
    (23, 1, False), (61, 1, True), (88, 2, False), (131, 2, True),
    (155, 3, False), (172, 3, True),
)


def _span_trace(config: SwitchConfig, by_value: bool, seed: int) -> Trace:
    """A congested trace of same-port runs with idle stretches and
    churn events. Values come from the tie-prone alphabet."""
    rng = random.Random(seed)
    n = config.n_ports
    trace = Trace()
    for slot in range(SPAN_SLOTS):
        burst: List[Packet] = []
        if not any(slot in idle for idle in SPAN_IDLE) and rng.random() > 0.1:
            for _ in range(rng.randint(1, 4)):
                port = rng.randrange(n)
                for _ in range(rng.randint(1, 4)):
                    burst.append(
                        Packet(
                            port=port,
                            work=1 if by_value else config.work_of(port),
                            value=rng.choice(TIE_VALUES),
                            arrival_slot=slot,
                        )
                    )
        trace.append_slot(burst)
    for slot, port, up in SPAN_EVENTS:
        trace.add_port_event(slot, port, up)
    return trace


SPAN_CASES = [("processing", name) for name in PROC_POLICIES] + [
    ("value", name) for name in VALUE_POLICIES
]


@pytest.mark.parametrize("speedup", [1, 2])
@pytest.mark.parametrize(
    "model, policy_name", SPAN_CASES,
    ids=[f"{model}-{name}" for model, name in SPAN_CASES],
)
def test_span_replay_matches_reference(
    monkeypatch, model, policy_name, speedup
):
    """``run_system`` over the span path equals the reference's object
    loop: same metrics and final queues, with the periodic audit
    (``REPRO_CHECK_INVARIANTS``) running on both, and each replay on a
    fresh switch, so a kernel parameter read before the first binding
    (BPD₁'s and MVD₁'s minimum victim length) is caught."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", str(SPAN_CHECK_EVERY))
    by_value = model == "value"
    if by_value:
        config = SwitchConfig.value_contiguous(4, 8, speedup=speedup)
    else:
        config = SwitchConfig.contiguous(4, 8, speedup=speedup)
    trace = _span_trace(config, by_value, seed=speedup)
    reference = PolicySystem(config, make_policy(policy_name))
    vectorized = PolicySystem(
        config, make_policy(policy_name), engine="vectorized"
    )
    assert vectorized.engine == "vectorized"
    expect = run_system(reference, trace, flush_every=SPAN_FLUSH_EVERY)
    got = run_system(vectorized, trace, flush_every=SPAN_FLUSH_EVERY)
    assert got.snapshot() == expect.snapshot()
    assert expect.dropped + expect.pushed_out > 0
    naive = reference.switch
    assert isinstance(naive, SharedMemorySwitch)
    _assert_fast_legs_match(naive, (vectorized.switch,), "after the replay")


# ----------------------------------------------------------------------
# Drain: spans of empty slots, cut at the invariant-check cadence
# ----------------------------------------------------------------------

#: A cadence short enough to cut every drain below more than once.
DRAIN_CHECK_EVERY = 3


def _drain_case(by_value: bool) -> Tuple[SwitchConfig, Trace, int]:
    """A congested trace that ends on six arrivals to every port, so
    the buffer is loaded, and a drain budget long enough to empty it."""
    if by_value:
        config = SwitchConfig.value_contiguous(4, 24)
    else:
        config = SwitchConfig.contiguous(4, 24)
    trace = _span_trace(config, by_value, seed=7).window(0, 100)
    trace.append_slot(
        [
            Packet(
                port=port,
                work=config.work_of(port),
                value=config.value_of(port),
                arrival_slot=100,
            )
            for port in range(4)
            for _ in range(6)
        ]
    )
    return config, trace, config.buffer_size * config.max_work


@pytest.mark.parametrize(
    "model, policy_name", SPAN_CASES,
    ids=[f"{model}-{name}" for model, name in SPAN_CASES],
)
def test_drained_replay_matches_reference(monkeypatch, model, policy_name):
    """A drained vectorized replay ends in the reference's state, with
    ``REPRO_CHECK_INVARIANTS`` cutting the drain into spans."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", str(DRAIN_CHECK_EVERY))
    config, trace, drain = _drain_case(model == "value")
    reference = PolicySystem(config, make_policy(policy_name))
    vectorized = _vectorized(config, policy_name)
    expect = run_system(reference, trace, drain_slots=drain)
    got = run_system(vectorized, trace, drain_slots=drain)
    assert expect.slots_elapsed > trace.n_slots + DRAIN_CHECK_EVERY
    assert reference.backlog == vectorized.backlog == 0
    assert got.snapshot() == expect.snapshot()


@pytest.mark.parametrize("by_value", [False, True])
def test_drained_surrogate_replay_matches_reference(monkeypatch, by_value):
    """Both vectorized surrogates drain like the bisect oracle, their
    drain cut into spans at the self-check cadence."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", str(DRAIN_CHECK_EVERY))
    config, trace, drain = _drain_case(by_value)
    reference = make_surrogate(config, by_value)
    vectorized = make_surrogate(config, by_value, engine="vectorized")
    expect = run_system(reference, trace, drain_slots=drain).snapshot()
    got = run_system(vectorized, trace, drain_slots=drain).snapshot()
    assert expect["slots_elapsed"] > trace.n_slots + 1
    assert reference.backlog == vectorized.backlog == 0
    # The vectorized surrogates keep no per-packet delays.
    assert {k: v for k, v in got.items() if "delay" not in k} == {
        k: v for k, v in expect.items() if "delay" not in k
    }


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize(
    "check_every, checked_at", [(2, [3]), (3, [4])],
    ids=["mid-drain", "on-boundary"],
)
def test_drain_checks_count_from_its_start(
    monkeypatch, engine, check_every, checked_at
):
    """One work-4 packet leaves three drain slots after the trace's one
    slot. The drain's checks count from its own first slot: at cadence
    2 one falls mid-drain; at cadence 3 the buffer empties exactly on
    the boundary, which is checked, and the drain ends there."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", str(check_every))
    config = SwitchConfig.from_works([4, 1], buffer_size=4)
    system = PolicySystem(config, make_policy("LQD"), engine=engine)
    assert system.engine == engine
    checked: List[int] = []
    check = system.check_invariants

    def spy() -> None:
        checked.append(system.metrics.slots_elapsed)
        check()

    system.check_invariants = spy  # type: ignore[method-assign]
    metrics = run_system(
        system, Trace([[Packet(port=0, work=4)]]), drain_slots=10
    )
    assert checked == checked_at
    assert metrics.slots_elapsed == 4
    assert metrics.transmitted_packets == 1 and system.backlog == 0


# ----------------------------------------------------------------------
# The derived drop ledger: no kernel counts a drop, and each span
# derives the per-port drops from conservation (see
# VectorizedSwitch.run_span)
# ----------------------------------------------------------------------

#: (queue layout, policy): every kernel kind, and the threshold
#: kernel's five statistics (cap, free space, longer queues, queues at
#: least as long, and their work) on both layouts.
LEDGER_CASES = [
    ("fifo", name)
    for name in (
        "LQD", "LWD", "BPD", "BPD1",
        "NHST", "DT", "Harmonic", "NHDT", "NHDT-W",
    )
] + [
    ("priority", name)
    for name in (
        "LQD-V", "MVD", "MVD1", "MRD",
        "Greedy", "DT", "Harmonic", "NHDT", "NHDT-W",
    )
]
LEDGER_FLUSH_EVERY = 40
LEDGER_CHECK_EVERY = 3
#: A same-port run longer than two run-index entries can record.
LONG_RUN = 600


def _ledger_trace(config: SwitchConfig, by_value: bool) -> Trace:
    """:func:`_span_trace`'s churned, congested trace with idle
    stretches; then a down event that reclaims port 3's queue, with
    arrivals to it while down; a slot holding a :data:`LONG_RUN`-packet
    run to port 0 between two other ports' packets; and a burst to
    port 3 for the drain."""
    trace = _span_trace(config, by_value, seed=config.speedup)

    def packets(port: int, count: int) -> List[Packet]:
        slot = trace.n_slots
        return [
            Packet(
                port=port,
                work=config.work_of(port),
                value=TIE_VALUES[port % len(TIE_VALUES)],
                arrival_slot=slot,
            )
            for _ in range(count)
        ]

    # After a lull, port 3's queue fills, is reclaimed by a down
    # event, and takes arrivals while down.
    for _ in range(8):
        trace.append_slot()
    trace.append_slot(packets(3, 12))
    trace.add_port_event(trace.n_slots, 3, False)
    trace.append_slot(packets(3, 2) + packets(1, 2) + packets(3, 2))
    trace.add_port_event(trace.n_slots + 1, 3, True)
    trace.append_slot(packets(1, 2) + packets(0, LONG_RUN) + packets(2, 3))
    trace.append_slot(packets(3, 12))
    return trace


@pytest.mark.parametrize("speedup", [1, 2])
@pytest.mark.parametrize(
    "layout, policy_name", LEDGER_CASES,
    ids=[f"{layout}-{name}" for layout, name in LEDGER_CASES],
)
def test_derived_ledger_matches_reference_span_by_span(
    monkeypatch, layout, policy_name, speedup
):
    """After every span, the vectorized metrics snapshot, whose drops
    are derived, equals the reference's counted one at the same slot.

    The trace is replayed as consecutive windows of one to five slots
    on one system per engine, so every window but the first carries an
    explicit ``arrivals`` column; the replay runs through flushouts,
    ``REPRO_CHECK_INVARIANTS`` audits (the conservation audit
    included), churn with arrivals to down ports and queues reclaimed
    by a down event, a run longer than the run index records, and a
    drain. The reference's snapshot is taken after each of its slots;
    each vectorized span that runs a slot is compared at its end,
    before the flushout that may follow."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", str(LEDGER_CHECK_EVERY))
    by_value = layout == "priority"
    if by_value:
        config = SwitchConfig.value_contiguous(4, 8, speedup=speedup)
    else:
        config = SwitchConfig.contiguous(4, 8, speedup=speedup)
    trace = _ledger_trace(config, by_value)
    reference = PolicySystem(config, make_policy(policy_name))
    vectorized = _vectorized(config, policy_name)

    after_slot = {}
    reference_slot = reference.run_slot

    def record_slot(arrivals):
        reference_slot(arrivals)
        metrics = reference.metrics
        after_slot[metrics.slots_elapsed] = metrics.snapshot()

    reclaimed = []
    reference_event = reference.set_port_state

    def record_event(port, up):
        count = reference_event(port, up)
        reclaimed.append(count)
        return count

    vectorized_span = vectorized.run_span
    compared = []

    def compare_span(*args):
        stop = vectorized_span(*args)
        if stop > args[-2]:
            metrics = vectorized.metrics
            clock = metrics.slots_elapsed
            assert metrics.snapshot() == after_slot[clock], (
                f"{policy_name}: ledger diverged at slot {clock}"
            )
            compared.append(clock)
        return stop

    reference.run_slot = record_slot
    reference.set_port_state = record_event
    vectorized.run_span = compare_span
    rng = random.Random(speedup)
    s0 = 0
    while s0 < trace.n_slots:
        s1 = min(trace.n_slots, s0 + rng.randint(1, 5))
        window = trace.window(s0, s1)
        assert (window.arrivals is None) == (s0 == 0)
        drain = 4 * config.buffer_size if s1 == trace.n_slots else 0
        expect = run_system(
            reference, window, flush_every=LEDGER_FLUSH_EVERY,
            drain_slots=drain,
        )
        got = run_system(
            vectorized, window, flush_every=LEDGER_FLUSH_EVERY,
            drain_slots=drain,
        )
        assert got.snapshot() == expect.snapshot()
        s0 = s1
    vectorized.check_invariants()
    assert reference.backlog == vectorized.backlog == 0
    assert expect.slots_elapsed > trace.n_slots
    assert len(compared) > trace.n_slots // 3
    # The down event after the lull reclaimed port 3's queue, and the
    # flushouts flushed packets too.
    assert reclaimed[-2] > 0
    assert expect.flushed > sum(reclaimed)
    assert expect.dropped_by_port[0] > LONG_RUN - config.buffer_size
    if vectorized.switch._kkind != K_THRESHOLD:
        assert expect.pushed_out > 0


#: Threshold policies on each statistic a full buffer can cut short.
FULL_BUFFER_POLICIES = ("Greedy", "NHST-V", "DT", "Harmonic", "NHDT")


@pytest.mark.parametrize("policy_name", FULL_BUFFER_POLICIES)
def test_threshold_slot_ends_on_a_full_buffer(policy_name):
    """Once an admission fills the buffer, the threshold kernel drops
    the rest of the slot without a test, as the reference's
    ``can_accept`` does packet by packet. Each slot fills the buffer of
    four midway, then offers packets to ports whose queues are empty
    or short, which a static cap of ``B`` (Greedy) would admit; the
    second slot starts on the full buffer."""
    config = SwitchConfig.value_contiguous(4, 4)

    def burst(slot: int, ports: Sequence[int]) -> List[Packet]:
        return [
            Packet(port=p, work=1, value=float(p + 1), arrival_slot=slot)
            for p in ports
        ]

    bursts = [
        burst(0, [0, 1, 2, 3, 0, 1, 2, 3, 3]),
        burst(1, [3, 3, 2, 1, 0]),
        burst(2, [2, 2, 2, 2, 1, 1, 0, 0, 3]),
    ]
    naive, seen = _lockstep_audited(policy_name, config, bursts)
    assert naive.metrics.dropped >= 5
    assert all(
        sum(map(len, queues)) <= config.buffer_size for queues in seen
    )


#: The same-port run kernels: the threshold rules, the FIFO push-out
#: policies and LQD-V (on priority queues), whose drop tests read no
#: arrival field but the port.
RUN_POLICIES = (
    "NHST", "NEST", "NHDT", "Harmonic", "DT", "Greedy",
    "LQD", "LWD", "BPD", "BPD1", "LQD-V",
)


def _run_bursts(config: SwitchConfig, seed: int) -> List[List[Packet]]:
    """Slots made of same-port runs, on a buffer of 8, each packet
    with its port's work and value.

    The first three slots are engineered: a run that fills the buffer
    midway (an accepted prefix, then a dropped rest), a run broken by
    another port and then resumed (two runs, not one), and runs at
    both ends of a slot. The rest are seeded, up to five runs a slot
    of up to six packets each.
    """
    rng = random.Random(seed)
    n = config.n_ports
    shapes: List[List[Tuple[int, int]]] = [
        [(0, 12)],
        [(1, 3), (0, 2), (1, 4)],
        [(2, 5), (3, 1), (1, 2), (2, 5)],
    ]
    for _ in range(60):
        shapes.append(
            [
                (rng.randrange(n), rng.randint(1, 6))
                for _ in range(rng.randint(0, 5))
            ]
        )
    return [
        [
            Packet(
                port=port,
                work=config.work_of(port),
                value=config.value_of(port),
                arrival_slot=slot,
            )
            for port, length in shape
            for _ in range(length)
        ]
        for slot, shape in enumerate(shapes)
    ]


@pytest.mark.parametrize("speedup", [1, 2])
@pytest.mark.parametrize("policy_name", RUN_POLICIES)
def test_same_port_runs_drop_as_one(policy_name, speedup):
    """A dropped arrival's same-port run is skipped in one step: the
    derived per-port drop counts equal the reference's after every
    slot."""
    if policy_name == "LQD-V":
        config = SwitchConfig.value_contiguous(4, 8, speedup=speedup)
    else:
        config = SwitchConfig.contiguous(4, 8, speedup=speedup)
    bursts = _run_bursts(config, seed=speedup)
    trace = Trace(bursts)
    naive = SharedMemorySwitch(config)
    naive_policy = make_policy(policy_name)
    system = _vectorized(config, policy_name)
    vec = system.switch
    run_drops = 0
    for slot, burst in enumerate(bursts):
        before = list(naive.metrics.dropped_by_port)
        naive.run_slot(burst, naive_policy)
        run_system(system, trace.window(slot, slot + 1))
        assert (
            vec.metrics.dropped_by_port == naive.metrics.dropped_by_port
        ), f"drops per port diverged at slot {slot}"
        vec.check_invariants()
        _assert_fast_legs_match(naive, (vec,), f"at slot {slot}")
        run_drops += any(
            after - prior >= 2
            for after, prior in zip(naive.metrics.dropped_by_port, before)
        )
    naive.check_invariants()
    assert run_drops >= 10, f"only {run_drops} slots dropped a run"


# ----------------------------------------------------------------------
# Value kernels: keys filed inline, audited when in sync
# ----------------------------------------------------------------------

#: The value-model push-out policies, one per kernel loop (MVD and
#: MVD1 share one).
VALUE_KERNEL_POLICIES = ("LQD-V", "MVD", "MVD1", "MRD")


@pytest.mark.parametrize("speedup", [1, 2])
@pytest.mark.parametrize("policy_name", VALUE_KERNEL_POLICIES)
def test_value_kernel_keys_audited_in_sync(policy_name, speedup):
    """Lock-step with the reference, ``check_invariants`` every slot.

    A value kernel's keys go stale when a transmission phase completes
    a packet, and the audit checks only keys in sync. At work 5 many
    slots complete nothing, so the keys the congested loop filed inline
    (push-outs included) stay in sync to the slot's end and are
    audited there against a from-scratch rebuild. Each port's values
    fall slot by slot, so an arrival is its queue's new minimum (the
    case where MRD re-files a minimum) and never overtakes a packet in
    service: with work above 1 and ``C > 1``, a packet overtaken in
    service can finish below an unfinished head, which the unit-work
    value model never produces.
    """
    config = SwitchConfig.uniform(
        4, 8, work=5, speedup=speedup, discipline=QueueDiscipline.PRIORITY
    )
    rng = random.Random(speedup)
    trace = Trace()
    for slot in range(200):
        ports = [rng.randrange(4) for _ in range(rng.randint(0, 4))]
        trace.append_slot(
            [
                Packet(
                    port=port,
                    work=5,
                    value=float(1000 * (port + 1) - slot),
                    arrival_slot=slot,
                )
                for port in ports
            ]
        )
    naive = SharedMemorySwitch(config)
    naive_policy = make_policy(policy_name)
    system = _vectorized(config, policy_name)
    vec = system.switch
    audited = 0
    for slot, burst in enumerate(trace.slots):
        pushed = vec.metrics.pushed_out
        naive.run_slot(burst, naive_policy)
        run_system(system, trace.window(slot, slot + 1))
        vec.check_invariants()
        _assert_fast_legs_match(naive, (vec,), f"at slot {slot}")
        audited += vec._kclean and vec.metrics.pushed_out > pushed
    naive.check_invariants()
    assert audited >= 10, f"only {audited} slots audited after push-outs"


@pytest.mark.parametrize("policy_name", VALUE_KERNEL_POLICIES)
def test_overtaken_packet_completes_below_unfinished_head(policy_name):
    """At ``C > 1`` with work above 1, a packet overtaken in service by
    a more valuable arrival can reach residual 0 below an unfinished
    head; it is transmitted in that slot, on both engines, and nothing
    is left to fall below residual 0.

    Values 1 and 2 arrive at slot 0 and are both served (C = 2); the
    value-9 arrival at slot 1 takes over the top, so the value-2
    packet finishes its third cycle at slot 2 below the value-9 head,
    and the value-1 packet, served from slot 2 on, after it.
    """
    config = SwitchConfig.uniform(
        2, 8, work=3, speedup=2, discipline=QueueDiscipline.PRIORITY
    )
    bursts = [
        [
            Packet(port=0, work=3, value=1.0, arrival_slot=0),
            Packet(port=0, work=3, value=2.0, arrival_slot=0),
        ],
        [Packet(port=0, work=3, value=9.0, arrival_slot=1)],
    ] + [[] for _ in range(6)]
    naive, _ = _lockstep_audited(policy_name, config, bursts)
    assert naive.occupancy == 0
    assert naive.metrics.transmitted_packets == 3
    assert naive.metrics.transmitted_value == 12.0


# ----------------------------------------------------------------------
# Priority queues: one served record at C = 1, derived queue work
# ----------------------------------------------------------------------


def _rising_value_bursts(
    n: int, work: int, n_slots: int, seed: int
) -> List[List[Packet]]:
    """Congested bursts whose values rise slot by slot, with ties: most
    arrivals are worth more than the packet in service at their queue's
    top, so they overtake it, partly served, and it resumes later."""
    rng = random.Random(seed)
    return [
        [
            Packet(
                port=rng.randrange(n),
                work=work,
                value=float(slot // 3 + rng.randint(1, 3)),
                arrival_slot=slot,
            )
            for _ in range(rng.choice([0, 1, 1, 2, 4]))
        ]
        for slot in range(n_slots)
    ]


@pytest.mark.parametrize("policy_name", ["LQD-V", "MVD", "MRD", "NEST"])
def test_overtaken_top_resumes_at_one_core(policy_name):
    """At ``C = 1`` with work 3, a more valuable arrival overtakes a
    partly served top record; the overtaken record waits below with
    its residual and resumes once it is the top again. Only the top is
    ever served, so a record below it never completes."""
    config = SwitchConfig.uniform(
        3, 6, work=3, discipline=QueueDiscipline.PRIORITY
    )
    _, seen = _lockstep_audited(
        policy_name, config, _rising_value_bursts(3, 3, 120, seed=4)
    )
    # A partly served record below the top of its queue (the head of
    # the reference's queue is its top).
    overtaken = sum(
        any(pk.residual < 3 for pk in queue[1:])
        for queues in seen
        for queue in queues
    )
    assert overtaken >= 10, f"only {overtaken} overtaken tops"


@pytest.mark.parametrize("speedup", [1, 2])
def test_nhdtw_on_priority_queues(speedup):
    """NHDT-W reads every queue's work, on priority queues the sum of
    its records' residuals, which service and overtaking move."""
    config = SwitchConfig.uniform(
        4, 8, work=3, speedup=speedup, discipline=QueueDiscipline.PRIORITY
    )
    bursts = _rising_value_bursts(4, 3, 120, seed=5 + speedup)
    _, seen = _lockstep_audited("NHDT-W", config, bursts)
    assert any(len(queue) > 1 for queues in seen for queue in queues)


@pytest.mark.parametrize("speedup", [1, 2, 3])
@pytest.mark.parametrize("by_value", [False, True])
def test_queue_work_is_the_residual_sum(by_value, speedup):
    """After random replays, each queue's ``queue_work`` is the sum of
    the residuals of the reference queue's packets, in both layouts."""
    rng = random.Random(speedup + 10 * by_value)
    for policy_name in (VALUE_POLICIES if by_value else PROC_POLICIES):
        if by_value:
            config = SwitchConfig.uniform(
                3, 7, work=3, speedup=speedup,
                discipline=QueueDiscipline.PRIORITY,
            )
        else:
            config = SwitchConfig.from_works(
                [2, 3, 4], buffer_size=7, speedup=speedup
            )
        bursts = [
            [
                Packet(
                    port=(p := rng.randrange(3)),
                    work=config.work_of(p),
                    value=float(rng.randint(1, 4)),
                    arrival_slot=slot,
                )
                for _ in range(rng.choice([0, 1, 3, 6]))
            ]
            for slot in range(40)
        ]
        trace = Trace(bursts)
        reference = PolicySystem(config, make_policy(policy_name))
        vec = _vectorized(config, policy_name)
        run_system(reference, trace)
        run_system(vec, trace)
        assert vec.switch.occupancy > 0
        for port, queue in enumerate(reference.switch.queues):
            assert vec.switch.queue_work(port) == sum(
                pk.residual for pk in queue
            ), f"{policy_name}: port {port}"
