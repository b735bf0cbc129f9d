"""Cache integrity: checksum-on-read, quarantine, verify/gc, torn writes.

Schema v2 entries embed the SHA-256 of their measurement payload; any
read that fails the checksum moves the entry to ``quarantine/`` and
counts as a miss, so corruption can degrade performance but never
results. ``repro cache verify|gc`` are exercised through the real CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cache import CACHE_SCHEMA_VERSION, SweepCache
from repro.cli import main
from repro.core.config import SwitchConfig
from repro.experiments.fig5 import run_panel
from repro.resilience import FaultInjector

PANEL_KW = dict(
    n_slots=120,
    seeds=(0,),
    param_values=(2, 8),
    policies=("Greedy", "MVD"),
)


def _key(cache: SweepCache, seed: int = 0) -> str:
    return cache.key(
        config=SwitchConfig.contiguous(4, 16),
        workload={"experiment": "unit"},
        policy="LWD",
        param_value=2.0,
        seed=seed,
        by_value=None,
        flush_every=None,
        drain=False,
    )


POINT = {"ratio": 1.25, "alg_objective": 10.0, "opt_objective": 12.5}


class TestChecksumOnRead:
    def test_round_trip_verifies(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        key = _key(cache)
        cache.put(key, POINT)
        assert cache.get(key) == POINT
        entry = json.loads(cache._path(key).read_text())
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert "sha256" in entry

    def test_bit_flip_quarantines_and_misses(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        key = _key(cache)
        cache.put(key, POINT)
        path = cache._path(key)
        # Flip the payload without touching the checksum.
        entry = json.loads(path.read_text())
        entry["point"]["ratio"] = 9.99
        path.write_text(json.dumps(entry))

        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert not path.exists()
        quarantined = list(cache.quarantine_root.iterdir())
        assert [p.name for p in quarantined] == [path.name]
        # The bad entry is preserved for inspection, not destroyed.
        assert json.loads(quarantined[0].read_text())["point"][
            "ratio"
        ] == 9.99

    def test_truncated_entry_quarantines(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        key = _key(cache)
        cache.put(key, POINT)
        path = cache._path(key)
        body = path.read_text()
        path.write_text(body[: len(body) // 2])
        assert cache.get(key) is None
        assert cache.corrupt == 1
        # A re-put repairs the entry in place.
        cache.put(key, POINT)
        assert cache.get(key) == POINT

    def test_legacy_schema_is_a_plain_miss(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        key = _key(cache)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": 1, "point": POINT}))
        assert cache.get(key) is None
        assert cache.corrupt == 0  # legacy, not corrupt: no quarantine
        assert path.exists()


class TestTornWriteInjection:
    def test_torn_write_lands_truncated_and_reads_as_miss(self, tmp_path):
        cache = SweepCache(
            tmp_path / "cache",
            fault_injector=FaultInjector.parse("torn@0"),
        )
        key = _key(cache)
        cache.put(key, POINT)  # write 0: torn mid-file
        raw = cache._path(key).read_text()
        with pytest.raises(json.JSONDecodeError):
            json.loads(raw)
        assert cache.get(key) is None
        assert cache.corrupt == 1
        cache.put(key, POINT)  # write 1: clean (clause exhausted)
        assert cache.get(key) == POINT

    def test_sweep_with_torn_cache_writes_stays_correct(self, tmp_path):
        clean = run_panel(4, **PANEL_KW)
        cache = SweepCache(tmp_path / "cache")
        torn = run_panel(
            4,
            **PANEL_KW,
            cache=cache,
            fault_injector=FaultInjector.parse("torn@1"),
        )
        assert torn.points == clean.points
        # The torn entry reads as a miss on the next run; the cell is
        # recomputed and the result is still byte-identical.
        rerun = run_panel(4, **PANEL_KW, cache=cache)
        assert rerun.points == clean.points
        assert cache.corrupt == 1


class TestVerifyAndGc:
    def _populate(self, root: Path) -> SweepCache:
        cache = SweepCache(root)
        for seed in range(4):
            cache.put(_key(cache, seed), POINT)
        return cache

    def test_verify_clean_cache(self, tmp_path):
        cache = self._populate(tmp_path / "cache")
        report = cache.verify()
        assert report.clean
        assert (report.entries, report.ok) == (4, 4)
        assert report.summary().startswith("4 entries: 4 ok")

    def test_verify_reports_but_does_not_move(self, tmp_path):
        cache = self._populate(tmp_path / "cache")
        victim = cache._path(_key(cache, 0))
        victim.write_text("{ torn")
        report = cache.verify()
        assert not report.clean
        assert report.corrupt == [str(victim)]
        assert victim.exists()  # verify is read-only

    def test_gc_removes_corrupt_legacy_tmp_and_quarantined(self, tmp_path):
        cache = self._populate(tmp_path / "cache")
        # corrupt entry
        cache._path(_key(cache, 0)).write_text("{ torn")
        # legacy entry
        legacy = cache._path(_key(cache, 1))
        legacy.write_text(json.dumps({"schema": 1, "point": POINT}))
        # stale temp file
        tmp_file = cache._path(_key(cache, 2)).with_name(".stale.json.1.tmp")
        tmp_file.write_text("partial")
        # quarantined file (via a checksum-failing read)
        bad = cache._path(_key(cache, 3))
        entry = json.loads(bad.read_text())
        entry["point"]["ratio"] = -1
        bad.write_text(json.dumps(entry))
        assert cache.get(_key(cache, 3)) is None

        report = cache.gc()
        assert report.removed_corrupt == 1
        assert report.removed_legacy == 1
        assert report.removed_tmp == 1
        assert report.removed_quarantined == 1
        assert cache.verify().clean

    def test_put_publishes_through_the_atomic_writer(
        self, tmp_path, monkeypatch
    ):
        """``put`` writes through the shared atomic primitive, and the
        temp file a killed ``put`` would leave is one ``gc`` reaps."""
        import repro.analysis.cache as cache_module
        from repro.resilience.atomic import atomic_write_text, tmp_path_for

        written = []

        def recording_write(path, text):
            written.append(Path(path))
            return atomic_write_text(path, text)

        monkeypatch.setattr(cache_module, "atomic_write_text", recording_write)
        cache = SweepCache(tmp_path / "cache")
        cache.put(_key(cache), POINT)
        final = cache._path(_key(cache))
        assert written == [final]
        assert cache.get(_key(cache)) == POINT
        assert list(final.parent.glob(".*.tmp")) == []

        tmp_path_for(final).write_text("partial")
        report = cache.gc()
        assert report.removed_tmp == 1
        assert report.removed == 1


class TestCacheCli:
    def test_verify_exit_codes_and_gc(self, tmp_path, capsys):
        cache = SweepCache(tmp_path / "cache")
        cache.put(_key(cache), POINT)
        argv = ["cache", "verify", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "1 ok" in capsys.readouterr().out

        cache._path(_key(cache)).write_text("{ torn")
        assert main(argv) == 1
        assert "corrupt:" in capsys.readouterr().out

        assert main(
            ["cache", "gc", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        assert "removed 1 files" in capsys.readouterr().out
        assert main(argv) == 0

    def test_sweep_survives_cache_poisoned_between_runs(self, tmp_path):
        """End to end: poison every entry on disk; the next run
        quarantines them all, recomputes, and matches a clean run."""
        clean = run_panel(4, **PANEL_KW)
        root = tmp_path / "cache"
        cache = SweepCache(root)
        run_panel(4, **PANEL_KW, cache=cache)
        for path in root.glob("??/*.json"):
            path.write_text("poison")

        cache2 = SweepCache(root)
        repaired = run_panel(4, **PANEL_KW, cache=cache2)
        assert repaired.points == clean.points
        assert cache2.corrupt == 4  # 2 cells x 2 policies
        assert repaired.stats.cells_executed == 2
        assert cache2.verify().clean
