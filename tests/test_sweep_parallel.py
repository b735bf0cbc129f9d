"""Differential tests for the parallel sweep engine and its result cache.

The contract under test is strict: ``run_sweep(..., jobs=N)`` must
produce *byte-identical* rows and CSV output to ``jobs=1`` for the same
spec — with no cache, with a cold cache, and with a warm cache. Any
divergence (a reseeded RNG, an out-of-order reassembly, a lossy cache
round-trip) is a correctness bug, not a tolerance issue.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import sweep as sweep_module
from repro.analysis.cache import SweepCache, config_payload
from repro.analysis.sweep import resolve_jobs, run_sweep
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.experiments.fig5 import PANELS, panel_cache_token, run_panel

#: A small Fig. 5 panel slice: panel 4 (value-uniform regime) restricted
#: to two parameter values, two seeds, and three policies — 4 cells,
#: 12 (cell, policy) measurements, a couple of seconds end to end.
PANEL_KW = dict(
    n_slots=120,
    seeds=(0, 1),
    param_values=(2, 8),
    policies=("Greedy", "MVD", "LQD-V"),
)


@pytest.fixture(scope="module")
def serial_result():
    return run_panel(4, **PANEL_KW)


def csv_bytes(result, tmp_path, name):
    path = tmp_path / name
    result.to_csv(path)
    return path.read_bytes()


class TestParallelDifferential:
    def test_parallel_rows_identical_to_serial(self, serial_result):
        parallel = run_panel(4, **PANEL_KW, jobs=4)
        assert parallel.points == serial_result.points
        assert parallel.stats.jobs == 4
        assert parallel.stats.cells_total == 4
        assert parallel.stats.cells_executed == 4

    def test_parallel_csv_identical_to_serial(self, serial_result, tmp_path):
        parallel = run_panel(4, **PANEL_KW, jobs=4)
        assert csv_bytes(parallel, tmp_path, "parallel.csv") == csv_bytes(
            serial_result, tmp_path, "serial.csv"
        )

    def test_cold_cache_parallel_identical(self, serial_result, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cold = run_panel(4, **PANEL_KW, jobs=4, cache=cache)
        assert cold.points == serial_result.points
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == 12
        assert cache.writes == 12

    def test_warm_cache_identical_and_skips_all_cells(
        self, serial_result, tmp_path
    ):
        cache = SweepCache(tmp_path / "cache")
        run_panel(4, **PANEL_KW, jobs=2, cache=cache)

        warm = run_panel(4, **PANEL_KW, jobs=4, cache=cache)
        assert warm.points == serial_result.points
        assert warm.stats.cells_executed == 0
        assert warm.stats.cache_hits == 12
        assert warm.stats.cache_hit_rate == 1.0
        assert csv_bytes(warm, tmp_path, "warm.csv") == csv_bytes(
            serial_result, tmp_path, "serial.csv"
        )

    def test_partially_warm_cache_identical(self, serial_result, tmp_path):
        """A cell whose policy set grew re-runs only the missing policy."""
        cache = SweepCache(tmp_path / "cache")
        narrow = dict(PANEL_KW, policies=("Greedy", "MVD"))
        run_panel(4, **narrow, cache=cache)

        full = run_panel(4, **PANEL_KW, jobs=2, cache=cache)
        assert full.points == serial_result.points
        assert full.stats.cache_hits == 8  # 4 cells x 2 cached policies
        assert full.stats.cache_misses == 4  # LQD-V per cell
        assert full.stats.cells_executed == 4

    def test_jobs_zero_means_all_cores(self):
        usable = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        )
        assert resolve_jobs(0) == usable
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        with pytest.raises(ConfigError):
            resolve_jobs(-1)

    def test_jobs_zero_counts_the_affinity_mask(self, monkeypatch):
        """A run pinned to one CPU gets one worker however many the
        machine has, so ``jobs=0`` runs serially and starts no pool."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)

        def no_pool():
            raise AssertionError("a one-CPU run built a process pool")

        monkeypatch.setattr(sweep_module, "_fork_context", no_pool)
        assert resolve_jobs(0) == 1
        result = run_panel(4, **PANEL_KW, jobs=0)
        assert result.stats.jobs == 1
        assert result.stats.cells_executed == 4

    def test_jobs_zero_without_affinity_counts_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_jobs(0) == 3


class TestCache:
    def _key(self, cache, policy="LWD", seed=0, value=4.0, n_slots=100):
        spec = PANELS[1]
        return cache.key(
            config=SwitchConfig.contiguous(4, 96),
            workload=panel_cache_token(spec, n_slots, 3.0),
            policy=policy,
            param_value=value,
            seed=seed,
            by_value=False,
            flush_every=500,
            drain=False,
        )

    def test_key_is_stable_and_discriminating(self, tmp_path):
        cache = SweepCache(tmp_path)
        base = self._key(cache)
        assert base == self._key(cache)  # content-addressed: pure
        assert base != self._key(cache, policy="LQD")
        assert base != self._key(cache, seed=1)
        assert base != self._key(cache, value=8.0)
        assert base != self._key(cache, n_slots=200)

    def test_roundtrip_preserves_floats_exactly(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = self._key(cache)
        point = {
            "ratio": 1.6235294117647059,
            "alg_objective": 425.0,
            "opt_objective": 690.0,
        }
        cache.put(key, point)
        assert cache.get(key) == point

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = self._key(cache)
        cache.put(key, {"ratio": 1.0, "alg_objective": 1.0,
                        "opt_objective": 1.0})
        path = cache._path(key)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(key) is None
        # A fresh put repairs the entry.
        cache.put(key, {"ratio": 2.0, "alg_objective": 1.0,
                        "opt_objective": 2.0})
        assert cache.get(key)["ratio"] == 2.0

    def test_entry_without_point_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = self._key(cache)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": 1}), encoding="utf-8")
        assert cache.get(key) is None

    def test_config_payload_covers_all_dimensions(self):
        a = config_payload(SwitchConfig.contiguous(4, 96))
        b = config_payload(SwitchConfig.contiguous(4, 96, speedup=2))
        c = config_payload(SwitchConfig.value_contiguous(4, 96))
        assert a != b and a != c
        assert a["ports"] == [[1, 1.0], [2, 1.0], [3, 1.0], [4, 1.0]]
        assert c["discipline"] == "priority"

    def test_unusable_cache_root_is_a_clean_error(self, tmp_path):
        root = tmp_path / "not-a-dir"
        root.write_text("occupied", encoding="utf-8")
        cache = SweepCache(root)
        with pytest.raises(ConfigError, match="sweep cache"):
            cache.put(self._key(cache), {"ratio": 1.0})

    def test_cache_requires_token(self):
        with pytest.raises(ConfigError):
            run_sweep(
                "x",
                "k",
                (2,),
                lambda v: SwitchConfig.contiguous(int(v), 12),
                lambda c, v, s: None,
                ("LWD",),
                cache=SweepCache("unused"),
            )
