"""Chaos tests for supervised sweep execution.

The contract under test extends the engine's determinism guarantee to
hostile conditions: a sweep whose cells crash, hang, die, or return
garbage — injected deterministically via :mod:`repro.resilience.faults`
— must retry its way to output *byte-identical* to a fault-free run,
across serial/parallel execution and cache-on/cache-off, while the
:class:`ResilienceStats` ledger records exactly what was absorbed.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.analysis.cache import SweepCache
from repro.core.errors import (
    ConfigError,
    SweepExecutionError,
    SweepInterrupted,
)
from repro.experiments.fig5 import run_panel
from repro.resilience import (
    CellTask,
    FaultInjector,
    SupervisedExecutor,
    SupervisorOptions,
)
from repro.resilience import supervisor

#: Same small panel slice as test_sweep_parallel.py: 4 cells, fast.
PANEL_KW = dict(
    n_slots=120,
    seeds=(0, 1),
    param_values=(2, 8),
    policies=("Greedy", "MVD", "LQD-V"),
)

#: Low backoff so chaos tests don't spend wall-clock sleeping.
FAST = SupervisorOptions(backoff_base=0.001, backoff_max=0.01)


@pytest.fixture(scope="module")
def clean_result():
    return run_panel(4, **PANEL_KW)


def csv_bytes(result, tmp_path, name):
    path = tmp_path / name
    result.to_csv(path)
    return path.read_bytes()


class TestChaosMatrix:
    """crash / corrupt / hang x serial / parallel x cache on / off."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize(
        "spec", ["crash@0;crash@2", "corrupt@1", "hang@3;delay=0.01"]
    )
    def test_chaos_output_byte_identical(
        self, clean_result, tmp_path, jobs, cached, spec
    ):
        cache = (
            SweepCache(tmp_path / f"c-{jobs}-{spec[:5]}") if cached else None
        )
        chaotic = run_panel(
            4,
            **PANEL_KW,
            jobs=jobs,
            cache=cache,
            resilience=FAST,
            fault_injector=FaultInjector.parse(spec),
        )
        assert chaotic.points == clean_result.points
        assert csv_bytes(chaotic, tmp_path, "chaotic.csv") == csv_bytes(
            clean_result, tmp_path, "clean.csv"
        )
        assert chaotic.stats.resilience.retries >= 1
        assert chaotic.stats.resilience.quarantined == 0
        if "corrupt" in spec:
            assert chaotic.stats.resilience.corrupt_results == 1

    def test_chaos_populates_cache_correctly(self, clean_result, tmp_path):
        """Cells computed on a retry land in the cache like any other."""
        cache = SweepCache(tmp_path / "cache")
        run_panel(
            4,
            **PANEL_KW,
            resilience=FAST,
            cache=cache,
            fault_injector=FaultInjector.parse("crash@0x2;corrupt@3"),
        )
        warm = run_panel(4, **PANEL_KW, cache=cache)
        assert warm.points == clean_result.points
        assert warm.stats.cells_executed == 0
        assert warm.stats.cache_hits == 12


class TestWorkerDeath:
    def test_broken_pool_is_rebuilt_transparently(
        self, clean_result, tmp_path
    ):
        """``die`` hard-kills a real pool worker (``os._exit``); the
        supervisor must charge the in-flight cells an attempt, rebuild
        the pool, and still converge to byte-identical output."""
        result = run_panel(
            4,
            **PANEL_KW,
            jobs=2,
            resilience=FAST,
            fault_injector=FaultInjector.parse("die@1"),
        )
        assert result.points == clean_result.points
        assert result.stats.resilience.pool_rebuilds >= 1
        assert result.stats.resilience.retries >= 1
        assert result.stats.resilience.serial_fallbacks == 0

    def test_persistent_pool_death_degrades_to_serial(self, clean_result):
        """With zero rebuild tolerance the sweep finishes in-process
        (where ``die`` downgrades to a crash and the retry absorbs it)."""
        options = SupervisorOptions(
            backoff_base=0.001, backoff_max=0.01, max_pool_rebuilds=0
        )
        result = run_panel(
            4,
            **PANEL_KW,
            jobs=2,
            resilience=options,
            fault_injector=FaultInjector.parse("die@0"),
        )
        assert result.points == clean_result.points
        assert result.stats.resilience.serial_fallbacks == 1
        assert result.stats.resilience.pool_rebuilds == 1

    def test_timeout_kills_hung_worker_and_retries(
        self, clean_result
    ):
        """A hung cell trips the wall-clock budget: the pool is torn
        down, the cell is retried, output stays byte-identical."""
        options = SupervisorOptions(
            timeout=0.5,
            backoff_base=0.001,
            backoff_max=0.01,
            poll_interval=0.02,
        )
        result = run_panel(
            4,
            **PANEL_KW,
            jobs=2,
            resilience=options,
            fault_injector=FaultInjector.parse("hang@0;delay=60"),
        )
        assert result.points == clean_result.points
        assert result.stats.resilience.timeouts == 1
        assert result.stats.resilience.pool_rebuilds >= 1


def _leave_a_thread_behind(index, attempt):
    """Pool task whose worker cannot exit: a non-daemon thread it
    started outlives the shutdown sentinel for a minute."""
    threading.Thread(target=time.sleep, args=(60,)).start()
    return index


class TestPoolTeardown:
    """A pool round returns only after its workers and its threads are
    gone: the next round forks from this process, and a fork taken
    while a pool thread holds a lock can leave a worker blocked on it
    for good."""

    @pytest.mark.parametrize(
        "spec, timeout",
        [("", None), ("die@1", None), ("hang@0;delay=60", 0.5)],
    )
    def test_nothing_outlives_a_pooled_sweep(
        self, clean_result, spec, timeout
    ):
        threads_before = threading.active_count()
        options = SupervisorOptions(
            timeout=timeout, backoff_base=0.001, backoff_max=0.01
        )
        result = run_panel(
            4,
            **PANEL_KW,
            jobs=2,
            resilience=options,
            fault_injector=FaultInjector.parse(spec) if spec else None,
        )
        assert result.points == clean_result.points
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads_before

    def test_interrupt_kills_running_cells(self):
        threads_before = threading.active_count()
        started = time.monotonic()
        with pytest.raises(SweepInterrupted):
            run_panel(
                4,
                **PANEL_KW,
                jobs=2,
                resilience=FAST,
                fault_injector=FaultInjector.parse(
                    "interrupt@1;hang@1;delay=60"
                ),
            )
        assert time.monotonic() - started < 30
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads_before

    def test_worker_stuck_after_drain_is_killed(self, monkeypatch):
        monkeypatch.setattr(supervisor, "_EXIT_GRACE", 0.2)
        threads_before = threading.active_count()
        executor = SupervisedExecutor(
            _leave_a_thread_behind,
            _leave_a_thread_behind,
            n_jobs=2,
            mp_context=multiprocessing.get_context("fork"),
            options=FAST,
        )
        started = time.monotonic()
        results, failures = executor.run(
            [CellTask(index=i, key=i, args=()) for i in range(2)]
        )
        assert time.monotonic() - started < 30
        assert (results, failures) == ({0: 0, 1: 1}, [])
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads_before


class TestQuarantine:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unfixable_cell_quarantines_but_keeps_the_rest(
        self, clean_result, tmp_path, jobs
    ):
        """A cell that fails every attempt surfaces as
        SweepExecutionError — carrying a partial result in which every
        *other* cell is present and correct, plus a populated cache."""
        cache = SweepCache(tmp_path / f"cache-{jobs}")
        with pytest.raises(SweepExecutionError) as excinfo:
            run_panel(
                4,
                **PANEL_KW,
                jobs=jobs,
                cache=cache,
                resilience=FAST,
                fault_injector=FaultInjector.parse("crash@1x99"),
            )
        error = excinfo.value
        assert len(error.failures) == 1
        assert error.failures[0].attempts == FAST.retries + 1
        partial = error.result
        assert partial is not None
        # 3 of 4 cells x 3 policies survived, in canonical order.
        expected = [
            p
            for p in clean_result.points
            if (p.param_value, p.seed) != (2.0, 1)  # cell index 1
        ]
        assert partial.points == expected
        assert partial.stats.resilience.quarantined == 1
        # The completed cells were flushed: 9 cache writes happened.
        assert cache.writes == 9

    def test_deterministic_errors_fail_fast(self):
        """Library errors are bugs, not bad luck: no retries, the
        original exception type propagates."""

        def bad_config(_value):
            raise ConfigError("broken factory")

        from repro.analysis.sweep import run_sweep

        with pytest.raises(ConfigError, match="broken factory"):
            run_sweep(
                "bad",
                "k",
                [1.0],
                bad_config,
                lambda config, value, seed: None,
                ["Greedy"],
                resilience=FAST,
            )


class TestExecutorUnit:
    """Direct SupervisedExecutor coverage with toy task functions."""

    def test_transient_failure_retried_then_succeeds(self):
        calls = []

        def flaky(index, attempt):
            calls.append((index, attempt))
            if attempt == 0:
                raise RuntimeError("transient")
            return index * 10

        executor = SupervisedExecutor(
            flaky, flaky, n_jobs=1, options=FAST
        )
        results, failures = executor.run(
            [CellTask(index=i, key=i, args=()) for i in range(3)]
        )
        assert failures == []
        assert results == {0: 0, 1: 10, 2: 20}
        assert executor.stats.retries == 3
        assert executor.stats.failures == 3

    def test_validation_rejects_corrupt_payloads(self):
        def fn(index, attempt):
            return "garbage" if attempt == 0 else "ok"

        executor = SupervisedExecutor(
            fn,
            fn,
            n_jobs=1,
            options=FAST,
            validate=lambda task, result: (
                None if result == "ok" else f"bad payload {result!r}"
            ),
        )
        results, failures = executor.run(
            [CellTask(index=0, key="cell", args=())]
        )
        assert failures == []
        assert results == {"cell": "ok"}
        assert executor.stats.corrupt_results == 1

    def test_on_complete_sees_every_result_once(self):
        seen = []
        executor = SupervisedExecutor(
            lambda i, a: i,
            lambda i, a: i,
            n_jobs=1,
            options=FAST,
            on_complete=lambda task, result, done: seen.append(
                (task.key, result, done)
            ),
        )
        executor.run([CellTask(index=i, key=i, args=()) for i in range(4)])
        assert seen == [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4)]

    def test_backoff_delay_is_deterministic_and_bounded(self):
        options = SupervisorOptions(
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_max=1.0,
            backoff_jitter=0.25,
        )
        assert options.backoff_delay(0, 0) == 0.0
        delays = [options.backoff_delay(3, a) for a in range(1, 8)]
        assert delays == [options.backoff_delay(3, a) for a in range(1, 8)]
        assert all(d <= 1.0 * 1.25 for d in delays)
        assert delays[0] >= 0.1
        # Different cells jitter differently (no thundering herd).
        assert options.backoff_delay(1, 1) != options.backoff_delay(2, 1)
