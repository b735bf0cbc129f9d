"""Windowed replay: a long run as consecutive trace windows.

A paper-scale run never holds its whole trace. It replays consecutive
windows through one system with ``run_system``, which continues the
system's own slot clock: flushouts, invariant checks and arrival slots
fall exactly where they fall in one replay of the concatenated trace.
These tests pin that equality on the full ``SwitchMetrics.snapshot()``
(delay counters included), for ALG and OPT, on both engines, with
window lengths that do not divide the flushout period, scripted-OPT
tags, port churn, an invariant-check cadence and a final drain.

The hand-built cases run without numpy; the cases that cut a recipe's
chunk iterator skip when it is missing.
"""

import random
from itertools import islice
from typing import List, Optional

import pytest

from repro.analysis.competitive import (
    ENGINES,
    PolicySystem,
    measure_competitive_ratio,
    run_system,
)
from repro.analysis.convergence import convergence_profile
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError, TraceError
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet
from repro.opt.scripted import ScriptedPolicy
from repro.opt.surrogate import make_surrogate
from repro.policies import make_policy
from repro.traffic.adversarial import thm11_mrd
from repro.traffic.trace import Trace
from repro.traffic.workloads import (
    processing_chunks,
    processing_workload,
    value_port_chunks,
    value_port_workload,
    value_uniform_chunks,
    value_uniform_workload,
)

FLUSH_EVERY = 500
N_SLOTS = 1100


@pytest.fixture
def numpy_required():
    pytest.importorskip("numpy", exc_type=ImportError)


@pytest.fixture
def proc_config():
    return SwitchConfig.contiguous(5, 40)


@pytest.fixture
def value_config():
    return SwitchConfig.value_contiguous(5, 40)


def _windows(trace: Trace, length: int) -> List[Trace]:
    return [
        trace.window(s0, min(s0 + length, trace.n_slots))
        for s0 in range(0, trace.n_slots, length)
    ]


def _chunk_windows(chunks, n_slots: int, length: int):
    for s0 in range(0, n_slots, length):
        yield Trace.from_chunks(islice(chunks, length), s0)


def _replay_windows(
    system,
    windows: List[Trace],
    *,
    flush_every: Optional[int] = FLUSH_EVERY,
    drain_slots: int = 0,
) -> SwitchMetrics:
    """Replay ``windows`` through one system, draining after the last."""
    for index, window in enumerate(windows):
        last = index == len(windows) - 1
        run_system(
            system,
            window,
            flush_every=flush_every,
            drain_slots=drain_slots if last else 0,
        )
    return system.metrics


def _hand_trace(config: SwitchConfig, by_value: bool, seed: int) -> Trace:
    """A congested trace with idle stretches (slots 100-149, 250-299,
    ...) that window cuts and the flushout grid both fall into."""
    rng = random.Random(seed)
    n = config.n_ports
    trace = Trace()
    for slot in range(N_SLOTS):
        burst: List[Packet] = []
        if (slot // 50) % 3 != 2:
            for _ in range(rng.randint(0, 2 * n)):
                port = rng.randrange(n)
                burst.append(
                    Packet(
                        port=port,
                        work=1 if by_value else config.work_of(port),
                        value=float(rng.randint(1, 8)) if by_value else 1.0,
                        arrival_slot=slot,
                    )
                )
        trace.append_slot(burst)
    return trace


def _churn_trace(config: SwitchConfig, seed: int) -> Trace:
    trace = _hand_trace(config, False, seed)
    for slot, port, up in (
        (40, 1, False), (137, 1, True), (299, 2, False), (300, 0, False),
        (520, 0, True), (700, 2, True), (1000, 4, False),
    ):
        trace.add_port_event(slot, port, up)
    return trace


def _assert_windowed_equal(make_system, trace, length, **kwargs):
    expect = run_system(make_system(), trace, **kwargs).snapshot()
    got = _replay_windows(
        make_system(),
        _windows(trace, length),
        flush_every=kwargs.get("flush_every"),
        drain_slots=kwargs.get("drain_slots", 0),
    ).snapshot()
    assert got == expect


# ----------------------------------------------------------------------
# Trace windows
# ----------------------------------------------------------------------


class TestTraceWindow:
    def test_windows_concatenate_to_the_trace(self, proc_config):
        trace = _churn_trace(proc_config, seed=1)
        joined = Trace()
        for window in _windows(trace, 137):
            joined.extend(window)
        assert joined == trace
        assert joined.arrivals is None

    def test_window_keeps_global_arrivals_tags_and_events(self):
        trace = Trace(
            [
                [Packet(port=0, arrival_slot=0, opt_accept=True)],
                [],
                [Packet(port=1, arrival_slot=2, opt_accept=False)],
                [Packet(port=0, arrival_slot=3)],
            ]
        )
        trace.add_port_event(2, 1, False)
        window = trace.window(2, 4)
        assert window.n_slots == 2
        assert [
            (p.port, p.arrival_slot, p.opt_accept) for p in window.packets()
        ] == [(1, 2, False), (0, 3, None)]
        assert [(e.port, e.up) for e in window.port_events[0]] == [(1, False)]
        assert trace.window(0, 4) == trace
        assert trace.window(0, 4).arrivals is None
        assert trace.window(3, 3).n_slots == 0

    def test_window_keeps_out_of_line_arrivals(self):
        trace = thm11_mrd(buffer_size=24, rounds=2).trace
        assert trace.arrivals is not None
        cut = trace.n_slots // 2 + 3
        tail = trace.window(cut, trace.n_slots)
        assert [p.arrival_slot for p in tail.packets()] == [
            p.arrival_slot
            for burst in trace.slots[cut:]
            for p in burst
        ]

    def test_window_bounds_checked(self):
        trace = Trace([[], []])
        for s0, s1 in ((-1, 1), (1, 0), (0, 3)):
            with pytest.raises(TraceError):
                trace.window(s0, s1)


# ----------------------------------------------------------------------
# Windowed replay equals the materialized replay
# ----------------------------------------------------------------------


@pytest.mark.parametrize("length", [137, 300])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "model, policy_name, speedup",
    [
        ("processing", "LWD", 1),
        ("processing", "NHST", 2),
        ("value", "MRD", 1),
        ("value", "MVD", 2),
    ],
)
def test_windowed_replay_matches_materialized(
    model, policy_name, speedup, engine, length
):
    by_value = model == "value"
    if by_value:
        config = SwitchConfig.value_contiguous(4, 16, speedup=speedup)
    else:
        config = SwitchConfig.contiguous(4, 16, speedup=speedup)
    trace = _hand_trace(config, by_value, seed=speedup)
    _assert_windowed_equal(
        lambda: PolicySystem(config, make_policy(policy_name), engine=engine),
        trace, length, flush_every=FLUSH_EVERY,
    )
    _assert_windowed_equal(
        lambda: make_surrogate(config, by_value, engine=engine),
        trace, length, flush_every=FLUSH_EVERY,
    )


@pytest.mark.parametrize("length", [37, 137])
@pytest.mark.parametrize("engine", ENGINES)
def test_windowed_scripted_tags(engine, length):
    """Theorem 11's repeated rounds: out-of-line arrival slots and
    scripted-OPT tags survive the cuts; OPT replays the tags."""
    scenario = thm11_mrd(buffer_size=60, rounds=3)
    config, trace = scenario.config, scenario.trace
    _assert_windowed_equal(
        lambda: PolicySystem(config, make_policy("MRD"), engine=engine),
        trace, length, flush_every=FLUSH_EVERY,
    )
    _assert_windowed_equal(
        lambda: PolicySystem(config, ScriptedPolicy(), engine=engine),
        trace, length, flush_every=FLUSH_EVERY,
    )


@pytest.mark.parametrize("length", [137, 300])
@pytest.mark.parametrize("engine", ENGINES)
def test_windowed_churn(engine, length):
    """Churn events at, inside and just before window cuts."""
    config = SwitchConfig.contiguous(5, 20)
    trace = _churn_trace(config, seed=3)
    _assert_windowed_equal(
        lambda: PolicySystem(config, make_policy("LQD"), engine=engine),
        trace, length, flush_every=FLUSH_EVERY,
    )
    _assert_windowed_equal(
        lambda: make_surrogate(config, False, engine=engine),
        trace, length, flush_every=FLUSH_EVERY,
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_windowed_invariant_cadence(monkeypatch, engine):
    """The audit runs at the same clock slots, multiples of its
    cadence, whatever the window cuts."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "7")
    config = SwitchConfig.value_contiguous(4, 16, speedup=2)
    trace = _hand_trace(config, True, seed=4)

    def audited(windows):
        system = PolicySystem(config, make_policy("MRD"), engine=engine)
        seen = []
        check = system.check_invariants

        def record():
            seen.append(system.metrics.slots_elapsed)
            check()

        system.check_invariants = record
        metrics = _replay_windows(system, windows)
        return metrics.snapshot(), seen

    expect, expect_seen = audited([trace])
    got, got_seen = audited(_windows(trace, 137))
    assert got == expect
    assert got_seen == expect_seen
    assert got_seen and all(slot % 7 == 0 for slot in got_seen)


@pytest.mark.parametrize("engine", ENGINES)
def test_windowed_drain_on_last_window(engine):
    config = SwitchConfig.contiguous(4, 16)
    trace = _hand_trace(config, False, seed=5)
    drain = config.buffer_size * config.max_work
    _assert_windowed_equal(
        lambda: PolicySystem(config, make_policy("LWD"), engine=engine),
        trace, 300, flush_every=FLUSH_EVERY, drain_slots=drain,
    )
    _assert_windowed_equal(
        lambda: make_surrogate(config, False, engine=engine),
        trace, 300, flush_every=FLUSH_EVERY, drain_slots=drain,
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_windowed_value_uniform_chunks(numpy_required, engine):
    """Windows cut from a recipe's chunk iterator replay like the
    materialized recipe (Fig. 5's value-uniform regime, MRD)."""
    config = SwitchConfig.uniform(
        8, 48, work=1, discipline=QueueDiscipline.PRIORITY
    )
    kwargs = dict(load=3.0, seed=2)
    trace = value_uniform_workload(config, 1200, 8, **kwargs)
    for make_system in (
        lambda: PolicySystem(config, make_policy("MRD"), engine=engine),
        lambda: make_surrogate(config, True, engine=engine),
    ):
        expect = run_system(make_system(), trace, flush_every=FLUSH_EVERY)
        got = _replay_windows(
            make_system(),
            list(_chunk_windows(
                value_uniform_chunks(config, 1200, 8, **kwargs), 1200, 300
            )),
        )
        assert got.snapshot() == expect.snapshot()


# ----------------------------------------------------------------------
# Windows of the recipes' chunk iterators
# ----------------------------------------------------------------------


class TestStreamEquivalence:
    """Consecutive windows of a chunk iterator concatenate to the
    materialized recipe (same seed, same parameters)."""

    def test_processing_identical(self, numpy_required, proc_config):
        kwargs = dict(load=3.0, seed=4, n_sources=50)
        joined = Trace()
        for window in _chunk_windows(
            processing_chunks(proc_config, 300, **kwargs), 300, 137
        ):
            joined.extend(window)
        assert joined == processing_workload(proc_config, 300, **kwargs)

    def test_value_port_identical(self, numpy_required, value_config):
        kwargs = dict(load=3.0, seed=9, n_sources=50)
        windows = list(
            _chunk_windows(
                value_port_chunks(value_config, 300, **kwargs), 300, 100
            )
        )
        materialized = value_port_workload(value_config, 300, **kwargs)
        assert [w.n_slots for w in windows] == [100, 100, 100]
        assert windows[2] == materialized.window(200, 300)
        assert [p.arrival_slot for p in windows[2].packets()] == [
            p.arrival_slot for p in materialized.window(200, 300).packets()
        ]

    def test_slot_count_validated(self, numpy_required, proc_config):
        with pytest.raises(ConfigError):
            processing_chunks(proc_config, 0)


class TestStreamRunner:
    def test_matches_materialized_measurement(
        self, numpy_required, proc_config
    ):
        """Windowed ALG and OPT replays give exactly the objectives of
        the replay-twice runner on the materialized workload."""
        kwargs = dict(load=3.0, seed=2, n_sources=50)
        trace = processing_workload(proc_config, 400, **kwargs)
        direct = measure_competitive_ratio(
            make_policy("LWD"), trace, proc_config,
            by_value=False, flush_every=100, engine="vectorized",
        )
        alg = PolicySystem(
            proc_config, make_policy("LWD"), engine="vectorized"
        )
        opt = make_surrogate(proc_config, False, engine="vectorized")
        for window in _chunk_windows(
            processing_chunks(proc_config, 400, **kwargs), 400, 77
        ):
            run_system(alg, window, flush_every=100)
            run_system(opt, window, flush_every=100)
        assert alg.metrics.snapshot() == direct.alg_metrics.snapshot()
        assert opt.metrics.snapshot() == direct.opt_metrics.snapshot()

    def test_checkpoints(self, numpy_required, proc_config):
        """One convergence point per window, at the window's end."""
        chunks = processing_chunks(
            proc_config, 300, load=3.0, seed=1, n_sources=50
        )
        profile = convergence_profile(
            make_policy("LWD"),
            _chunk_windows(chunks, 300, 100),
            proc_config,
        )
        assert [p.slots for p in profile.points] == [100, 200, 300]
        # Cumulative objectives are monotone along the run.
        algs = [p.alg_objective for p in profile.points]
        assert algs == sorted(algs)

    def test_value_model_defaults(self, numpy_required, value_config):
        trace = value_port_workload(
            value_config, 200, load=3.0, seed=3, n_sources=50
        )
        profile = convergence_profile(
            make_policy("MRD"), _windows(trace, 50), value_config
        )
        direct = measure_competitive_ratio(
            make_policy("MRD"), trace, value_config
        )
        assert direct.by_value
        assert profile.final_ratio == direct.ratio
        assert profile.final_ratio >= 1.0

    def test_validation(self, proc_config):
        trace = Trace([[Packet(port=0)]])
        with pytest.raises(ConfigError):
            convergence_profile(
                make_policy("LWD"), [trace], proc_config, flush_every=0
            )
        with pytest.raises(ConfigError):
            convergence_profile(
                make_policy("LWD"), [trace, Trace()], proc_config
            )
