"""Differential suite: vectorized OPT surrogates vs the bisect oracle.

The array-backed surrogates of :mod:`repro.opt.vectorized` must be
*decision-identical* to the reference implementations of
:mod:`repro.opt.surrogate` — every admit, push-out, drop (exact ties
included), completion count, per-port split, and the float accumulation
order of ``transmitted_value``. Hypothesis drives both through the same
arrival streams, one slot a ``run_system`` replay, across
small and long bursts, congested and uncongested regimes, mid-run
flushes, and port down/up events applied to both sides before a slot's
arrivals (a down port's arrivals are dropped up front on the vectorized
side, in arrival order on the reference). A second differential replays
the same cases as one trace through ``run_system``, where the
vectorized side runs multi-slot spans between flushouts and churn
events, across idle stretches and at ``B = 0``. Engineered regressions pin
the exact-tie eviction semantics the live threshold depends on: an
SRPT arrival whose work *equals* the threshold and a MaxValue arrival
whose value *equals* the threshold are both guaranteed drops. Last,
each surrogate's ``check_invariants`` must catch every corrupted field
and run at the ``REPRO_CHECK_INVARIANTS`` cadence, drains included.

Delay statistics are excluded from the comparison: fast-mode
surrogates account transmissions in aggregate (like the fast-mode
switch engine) and do not model per-packet delay.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.competitive import run_system
from repro.core.config import SwitchConfig
from repro.core.errors import TraceError
from repro.core.packet import Packet
from repro.opt.surrogate import make_surrogate
from repro.opt.vectorized import (
    VectorizedMaxValueSurrogate,
    VectorizedSrptSurrogate,
)
from repro.traffic.trace import PortStateEvent, Trace

#: (port, work, value) triples per slot.
Burst = List[Tuple[int, int, float]]
#: (port, up) port-state events per slot, applied before its arrivals.
Events = List[List[Tuple[int, bool]]]


def _snapshot(system) -> dict:
    return {
        key: value
        for key, value in system.metrics.snapshot().items()
        if "delay" not in key
    }


def _drive_pair(
    by_value: bool,
    config: SwitchConfig,
    bursts: Sequence[Burst],
    *,
    flush_every: int = 0,
    events: Optional[Events] = None,
) -> None:
    """Run reference and vectorized side by side, each slot a one-slot
    window of the trace through ``run_system``, asserting lock-step."""
    ref = make_surrogate(config, by_value=by_value, engine="reference")
    vec = make_surrogate(config, by_value=by_value, engine="vectorized")
    expected = (
        VectorizedMaxValueSurrogate if by_value else VectorizedSrptSurrogate
    )
    assert isinstance(vec, expected)
    trace = _trace(bursts, [])
    for slot in range(trace.n_slots):
        for port, up in events[slot] if events else ():
            assert vec.set_port_state(port, up) == ref.set_port_state(
                port, up
            ), f"reclaim diverged at slot {slot}"
        window = trace.window(slot, slot + 1)
        run_system(ref, window)
        run_system(vec, window)
        assert vec.backlog == ref.backlog, f"backlog diverged at slot {slot}"
        if flush_every and (slot + 1) % flush_every == 0:
            assert vec.flush() == ref.flush()
    assert _snapshot(vec) == _snapshot(ref)


@st.composite
def _cases(draw):
    n_ports = draw(st.integers(2, 5))
    buffer_size = n_ports + draw(st.sampled_from([0, 1, 2, 8, 40]))
    speedup = draw(st.sampled_from([1, 1, 2]))
    config = SwitchConfig.from_works(
        [draw(st.integers(1, 4)) for _ in range(n_ports)],
        buffer_size=buffer_size,
        speedup=speedup,
    )
    n_slots = draw(st.integers(1, 10))
    bursts: List[Burst] = []
    events: Events = []
    port_up = [True] * n_ports
    for _ in range(n_slots):
        # Mostly no churn; otherwise toggle one or two ports.
        toggles = draw(
            st.one_of(
                st.just([]),
                st.lists(
                    st.integers(0, n_ports - 1), max_size=2, unique=True
                ),
            )
        )
        slot_events = []
        for port in toggles:
            port_up[port] = not port_up[port]
            slot_events.append((port, port_up[port]))
        events.append(slot_events)
        size = draw(st.sampled_from([0, 1, 3, 8, 33, 60]))
        burst = [
            (
                draw(st.integers(0, n_ports - 1)),
                draw(st.integers(1, 6)),
                # Coarse grid: exact value ties occur constantly.
                float(draw(st.integers(1, 4))),
            )
            for _ in range(size)
        ]
        bursts.append(burst)
    flush_every = draw(st.sampled_from([0, 0, 0, 3]))
    return config, bursts, flush_every, events


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(case=_cases())
    def test_srpt_matches_reference(self, case):
        config, bursts, flush_every, events = case
        _drive_pair(
            False, config, bursts, flush_every=flush_every, events=events
        )

    @settings(max_examples=40, deadline=None)
    @given(case=_cases())
    def test_maxvalue_matches_reference(self, case):
        config, bursts, flush_every, events = case
        _drive_pair(
            True, config, bursts, flush_every=flush_every, events=events
        )


def _trace(bursts: Sequence[Burst], events: Events) -> Trace:
    """The bursts as one trace of list columns, with the churn events."""
    offsets = [0]
    ports: List[int] = []
    works: List[int] = []
    values: List[float] = []
    for burst in bursts:
        for port, work, value in burst:
            ports.append(port)
            works.append(work)
            values.append(value)
        offsets.append(len(ports))
    return Trace.from_columns(
        offsets,
        ports,
        works,
        values,
        port_events={
            slot: [PortStateEvent(port=port, up=up) for port, up in toggles]
            for slot, toggles in enumerate(events)
            if toggles
        },
    )


@st.composite
def _span_cases(draw):
    """``_cases()`` with idle stretches after some bursts, long enough to
    drain the buffer (so spans stop early and the idle stretch is
    fast-forwarded), a zero buffer now and then, and a drain."""
    config, bursts, flush_every, events = draw(_cases())
    spread_bursts: List[Burst] = []
    spread_events: Events = []
    for burst, toggles in zip(bursts, events):
        spread_bursts.append(burst)
        spread_events.append(toggles)
        gap = draw(st.sampled_from([0, 0, 1, 4, 40]))
        spread_bursts.extend([] for _ in range(gap))
        spread_events.extend([] for _ in range(gap))
    zero_buffer = draw(st.sampled_from([False, False, False, True]))
    drain = draw(st.sampled_from([0, 0, 50]))
    return (
        config, spread_bursts, flush_every, spread_events, zero_buffer, drain
    )


class TestSpans:
    """Whole traces through ``run_system``: the vectorized surrogates run
    multi-slot spans, the oracle runs the packet view slot by slot."""

    @settings(max_examples=60, deadline=None)
    @given(case=_span_cases(), by_value=st.booleans())
    def test_run_system_matches_reference(self, case, by_value):
        config, bursts, flush_every, events, zero_buffer, drain = case
        trace = _trace(bursts, events)
        ref = make_surrogate(config, by_value=by_value, engine="reference")
        vec = make_surrogate(config, by_value=by_value, engine="vectorized")
        assert hasattr(vec, "run_span") and not hasattr(ref, "run_span")
        if zero_buffer:
            # SwitchConfig requires B >= n; both surrogates read B from
            # their own attribute, so a zero buffer is set there.
            ref.buffer_size = vec.buffer_size = 0
        for system in (ref, vec):
            run_system(
                system,
                trace,
                flush_every=flush_every or None,
                drain_slots=drain,
            )
        assert vec.backlog == ref.backlog
        assert _snapshot(vec) == _snapshot(ref)


class TestBatchCutoff:
    """Long congested bursts run the live threshold many times a slot.

    The sizes straddle 32, the cutoff of a since-deleted vector filter;
    they stay as plain burst lengths.
    """

    @pytest.mark.parametrize("size", [31, 32, 33, 96])
    @pytest.mark.parametrize("by_value", [False, True])
    def test_straddling_bursts(self, size, by_value):
        rnd = random.Random(size * 2 + by_value)
        config = SwitchConfig.from_works([1, 2, 3], buffer_size=6)
        bursts = [
            [
                (rnd.randrange(3), rnd.randint(1, 5), float(rnd.randint(1, 4)))
                for _ in range(size)
            ]
            for _ in range(4)
        ]
        _drive_pair(by_value, config, bursts)


class TestChurn:
    """A down port keeps receiving arrivals in congested slots."""

    @pytest.mark.parametrize("by_value", [False, True])
    def test_down_port_arrivals_in_congested_slot(self, by_value):
        config = SwitchConfig.from_works([2, 3, 1], buffer_size=6)
        # Slot 0 fills the buffer; port 1 goes down before slot 1, and
        # the bursts of slots 1 and 2 over-fill it, port 1 included;
        # port 1 comes back up before slot 3, congested again.
        bursts: List[Burst] = [
            [(j % 3, 1 + j % 3, float(1 + j % 4)) for j in range(9)],
            [(j % 3, 1 + j % 2, float(4 - j % 4)) for j in range(12)],
            [(j % 3, 1 + j % 3, float(1 + j % 2)) for j in range(12)],
            [(j % 3, 1, float(1 + j % 3)) for j in range(10)],
        ]
        events: Events = [[], [(1, False)], [], [(1, True)]]
        _drive_pair(by_value, config, bursts, events=events)
        vec = make_surrogate(config, by_value=by_value, engine="vectorized")
        trace = _trace(bursts, events)
        for slot in range(trace.n_slots):
            window = trace.window(slot, slot + 1)
            dropped = vec.metrics.dropped
            run_system(vec, window)
            if slot in (1, 2):
                # Every port-1 arrival is dropped, and so is something
                # else: the slot is congested.
                assert vec.metrics.dropped - dropped > window.ports.count(1)
        assert vec.metrics.flushed > 0

    @pytest.mark.parametrize("by_value", [False, True])
    def test_flaps_tear_down_an_occupied_surrogate(self, by_value):
        """Ports flap under a load the n-core surrogate cannot drain.

        One to two arrivals per port and slot outrun the n cores, so
        the buffer stays full and every down event removes buffered
        packets. With flushouts off, ``flushed`` counts those removals
        alone; the vectorized surrogate must match the oracle on every
        counter and keep its occupancy count exact.
        """
        n_ports, n_slots = 4, 120
        rnd = random.Random(7 + by_value)
        config = SwitchConfig.from_works([1, 2, 3, 4], buffer_size=24)
        bursts: List[Burst] = [
            [
                (
                    rnd.randrange(n_ports),
                    rnd.randint(1, 4),
                    float(rnd.randint(1, 8)),
                )
                for _ in range(rnd.randint(n_ports, 2 * n_ports))
            ]
            for _ in range(n_slots)
        ]
        # Every 10 slots the next port goes down for 4 slots.
        events: Events = [[] for _ in range(n_slots)]
        for start in range(5, n_slots - 5, 10):
            port = start // 10 % n_ports
            events[start].append((port, False))
            events[start + 4].append((port, True))
        trace = _trace(bursts, events)
        ref = make_surrogate(config, by_value=by_value, engine="reference")
        vec = make_surrogate(config, by_value=by_value, engine="vectorized")
        for system in (ref, vec):
            run_system(system, trace, flush_every=None)
        assert ref.metrics.flushed > 0
        assert vec.backlog == ref.backlog
        assert _snapshot(vec) == _snapshot(ref)
        vec.check_invariants()


class TestExactTies:
    """A tie with the live threshold is a drop, not a push-out."""

    def test_srpt_tie_with_threshold_is_dropped(self):
        config = SwitchConfig.from_works([5, 5], buffer_size=8)
        # Slot 0 saturates the buffer with work-5 packets (8 accepts,
        # 2 tie drops); slot 1 offers work == threshold (drop) and
        # work < threshold (push-out accept).
        bursts: List[Burst] = [
            [(j % 2, 5, 1.0) for j in range(10)],
            [(0, 5, 1.0), (1, 4, 1.0)],
        ]
        _drive_pair(False, config, bursts)
        vec = make_surrogate(config, by_value=False, engine="vectorized")
        ports = [j % 2 for j in range(10)] + [0, 1]
        works = [5] * 10 + [5, 4]
        values = [1.0] * 12
        run_system(vec, Trace.from_columns([0, 10, 12], ports, works, values))
        assert vec.metrics.accepted == 9
        assert vec.metrics.pushed_out == 1
        assert vec.metrics.dropped == 3  # two slot-0 ties + one slot-1 tie

    def test_maxvalue_tie_with_threshold_is_dropped(self):
        config = SwitchConfig.value_contiguous(2, 8)
        # Slot 0 fills the buffer with value-5 packets (ties dropped);
        # two transmissions drain it to 6, so slot 1 re-saturates with
        # two value-9 fillers, then offers value == threshold (drop)
        # and value > threshold (push-out accept).
        bursts: List[Burst] = [
            [(j % 2, 1, 5.0) for j in range(10)],
            [(0, 1, 9.0), (1, 1, 9.0), (0, 1, 5.0), (1, 1, 6.0)],
        ]
        _drive_pair(True, config, bursts)
        vec = make_surrogate(config, by_value=True, engine="vectorized")
        ports = [j % 2 for j in range(10)] + [0, 1, 0, 1]
        works = [1] * 14
        values = [5.0] * 10 + [9.0, 9.0, 5.0, 6.0]
        run_system(vec, Trace.from_columns([0, 10, 14], ports, works, values))
        assert vec.metrics.accepted == 11
        assert vec.metrics.pushed_out == 1
        assert vec.metrics.dropped == 3


class TestSurface:
    def test_engine_seam_selects_vectorized(self):
        config = SwitchConfig.from_works([1, 2], buffer_size=4)
        assert isinstance(
            make_surrogate(config, by_value=False, engine="vectorized"),
            VectorizedSrptSurrogate,
        )
        assert isinstance(
            make_surrogate(config, by_value=True, engine="vectorized"),
            VectorizedMaxValueSurrogate,
        )

    def test_object_bursts_match_reference(self):
        # Packet bursts, each replayed as a one-slot trace.
        rnd = random.Random(9)
        config = SwitchConfig.from_works([2, 3], buffer_size=5)
        for by_value in (False, True):
            ref = make_surrogate(config, by_value=by_value)
            vec = make_surrogate(
                config, by_value=by_value, engine="vectorized"
            )
            for slot in range(30):
                burst = [
                    Packet(
                        port=rnd.randrange(2),
                        work=rnd.randint(1, 4),
                        value=float(rnd.randint(1, 3)),
                        arrival_slot=slot,
                    )
                    for _ in range(rnd.choice([0, 1, 4, 9]))
                ]
                run_system(ref, Trace([burst]))
                run_system(vec, Trace([burst]))
                assert vec.backlog == ref.backlog
            assert _snapshot(vec) == _snapshot(ref)

    def test_fast_forward_requires_empty_buffer(self):
        config = SwitchConfig.from_works([3, 3], buffer_size=4)
        vec = make_surrogate(config, by_value=False, engine="vectorized")
        run_system(vec, Trace([[Packet(port=0, work=3, value=1.0)]]))
        with pytest.raises(TraceError):
            vec.fast_forward(5)

    def test_flush_resets_occupancy(self):
        config = SwitchConfig.from_works([4, 4], buffer_size=4)
        for by_value in (False, True):
            vec = make_surrogate(
                config, by_value=by_value, engine="vectorized"
            )
            # Four packets against two cores: something stays buffered
            # after the slot's transmissions on both models.
            burst = [
                Packet(port=j % 2, work=4, value=2.0 + j) for j in range(4)
            ]
            run_system(vec, Trace([burst]))
            assert vec.backlog > 0
            assert vec.flush() == vec.metrics.flushed
            assert vec.backlog == 0


def _loaded(by_value: bool):
    """A vectorized surrogate with two cores (two ports, ``C = 1``)
    after a congested slot: SRPT holds two active packets of distinct
    ticks and five waiting ones of distinct residuals, MaxValue seven
    distinct values."""
    config = SwitchConfig.from_works([6, 6], buffer_size=8)
    vec = make_surrogate(config, by_value=by_value, engine="vectorized")
    burst = [
        Packet(port=j % 2, work=j + 1, value=float(j + 1)) for j in range(8)
    ]
    run_system(vec, Trace([burst]))
    vec.check_invariants()
    if by_value:
        assert vec.backlog == 6
    else:
        active = vec._act_exp[vec._ah:]
        waiting = vec._wait_res[vec._wh:]
        assert len(active) == 2 and active[0] < active[1]
        assert len(waiting) == 5 and waiting == sorted(set(waiting))
    return vec


def _corrupt_srpt(vec, field: str) -> None:
    ah, wh = vec._ah, vec._wh
    if field == "active-head":
        vec._ah = len(vec._act_exp) + 1
    elif field == "waiting-head":
        vec._wh = -1
    elif field == "active-columns":
        vec._act_rec.append((0, 1.0))
    elif field == "waiting-columns":
        vec._wait_rec.pop()
    elif field == "active-order":
        vec._act_exp[ah] = vec._act_exp[-1] + 1
    elif field == "active-expired":
        vec._act_exp[ah] = vec._tick
    elif field == "waiting-order":
        vec._wait_res[-1] = vec._wait_res[-2] - 1
    elif field == "waiting-below-active":
        vec._wait_res[wh] = vec._act_exp[-1] - vec._tick - 1
    elif field == "idle-core":
        # An active packet vanishes while others still wait.
        vec._act_exp.pop()
        vec._act_rec.pop()
        vec._size -= 1
    elif field == "size":
        vec._size += 1
    else:
        raise AssertionError(field)


def _corrupt_maxvalue(vec, field: str) -> None:
    if field == "head":
        vec._h = len(vec._vals) + 1
    elif field == "order":
        vec._vals[vec._h] = vec._vals[-1] + 1.0
    elif field == "columns":
        vec._ports.pop()
    else:
        raise AssertionError(field)


class TestAudit:
    """``check_invariants`` on the vectorized surrogates: a corrupted
    field raises, and ``run_system`` runs the audit at the
    ``REPRO_CHECK_INVARIANTS`` cadence, drains included."""

    @pytest.mark.parametrize(
        "field, message",
        [
            ("active-head", "active head"),
            ("waiting-head", "waiting head"),
            ("active-columns", "active columns skew"),
            ("waiting-columns", "waiting columns skew"),
            ("active-order", "active ticks decrease"),
            ("active-expired", "not past the phase tick"),
            ("waiting-order", "waiting residuals decrease"),
            ("waiting-below-active", "below the largest active"),
            ("idle-core", "cores are busy"),
            ("size", "size counter"),
        ],
    )
    def test_corrupt_srpt_caught(self, field, message):
        vec = _loaded(by_value=False)
        _corrupt_srpt(vec, field)
        with pytest.raises(AssertionError, match=message):
            vec.check_invariants()

    @pytest.mark.parametrize(
        "field, message",
        [
            ("head", "head"),
            ("order", "do not ascend"),
            ("columns", "columns skew"),
        ],
    )
    def test_corrupt_maxvalue_caught(self, field, message):
        vec = _loaded(by_value=True)
        _corrupt_maxvalue(vec, field)
        with pytest.raises(AssertionError, match=message):
            vec.check_invariants()

    @pytest.mark.parametrize("by_value", [False, True])
    def test_over_capacity_caught(self, by_value):
        vec = _loaded(by_value)
        vec.buffer_size = vec.backlog - 1
        with pytest.raises(AssertionError, match="packets buffered"):
            vec.check_invariants()

    @pytest.mark.parametrize("by_value", [False, True])
    def test_down_port_packet_caught(self, by_value):
        vec = _loaded(by_value)
        port = vec._ports[vec._h] if by_value else vec._act_rec[vec._ah][0]
        vec._port_up[port] = False
        vec._n_down += 1
        with pytest.raises(AssertionError, match="admin-down port"):
            vec.check_invariants()

    @pytest.mark.parametrize("by_value", [False, True])
    def test_down_count_caught(self, by_value):
        vec = _loaded(by_value)
        vec._n_down += 1
        with pytest.raises(AssertionError, match="down-port count"):
            vec.check_invariants()

    @pytest.mark.parametrize("by_value", [False, True])
    def test_clean_replay_audited_through_drain(self, monkeypatch, by_value):
        """A congested replay with churn and a long drain passes the
        audit every 3 slots; the drain is cut into spans at that
        cadence, so it is audited too, and still matches the oracle."""
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "3")
        rnd = random.Random(11 + by_value)
        config = SwitchConfig.from_works([5, 6, 4], buffer_size=30)
        # The last slot fills the buffer: the drain lasts at least ten
        # slots with three cores.
        bursts: List[Burst] = [
            [
                (rnd.randrange(3), rnd.randint(3, 6), float(rnd.randint(1, 4)))
                for _ in range(40 if slot == 19 else rnd.choice([0, 2, 7]))
            ]
            for slot in range(20)
        ]
        events: Events = [[] for _ in range(20)]
        events[6] = [(2, False)]
        events[13] = [(2, True)]
        trace = _trace(bursts, events)
        ref = make_surrogate(config, by_value=by_value, engine="reference")
        vec = make_surrogate(config, by_value=by_value, engine="vectorized")
        checked: List[int] = []
        check = vec.check_invariants

        def spy() -> None:
            checked.append(vec.metrics.slots_elapsed)
            check()

        vec.check_invariants = spy  # type: ignore[method-assign]
        run_system(ref, trace, drain_slots=100)
        run_system(vec, trace, drain_slots=100)
        assert vec.backlog == ref.backlog == 0
        assert _snapshot(vec) == _snapshot(ref)
        # The replay's checks fall on the cadence (idle stretches are
        # fast-forwarded over theirs); the drain's count from its start.
        replayed = [slot for slot in checked if slot <= trace.n_slots]
        drained = [slot - trace.n_slots for slot in checked[len(replayed):]]
        assert len(replayed) >= 4
        assert all(slot % 3 == 0 for slot in replayed)
        assert len(drained) >= 2
        assert drained == [3 * k for k in range(1, len(drained) + 1)]
