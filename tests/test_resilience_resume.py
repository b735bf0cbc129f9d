"""Resume from the sweep cache: interrupts, torn entries, and the CLI.

The contract: an interrupted sweep (SIGINT/SIGTERM or an injected
interrupt) exits cleanly *after* storing its completed cells in the
sweep cache, and rerunning the same sweep on that cache recomputes
none of them while producing output byte-identical to a
never-interrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.cache import SweepCache
from repro.core.config import SwitchConfig
from repro.core.errors import SweepExecutionError, SweepInterrupted
from repro.experiments.fig5 import run_panel
from repro.resilience import FaultInjector, SupervisorOptions

PANEL_KW = dict(
    n_slots=120,
    seeds=(0, 1),
    param_values=(2, 8),
    policies=("Greedy", "MVD", "LQD-V"),
)
N_POLICIES = len(PANEL_KW["policies"])

REPO_ROOT = Path(__file__).resolve().parent.parent


def _csv_bytes(result, path: Path) -> bytes:
    result.to_csv(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def clean():
    return run_panel(4, **PANEL_KW)


class TestJournalUnit:
    """The unit contract the run journal kept, held by the sweep cache
    that replaced it: points round-trip exactly, a store written for a
    different sweep is never reused, and a torn write costs only its
    own entry."""

    IDENTITY = {"name": "sweep-x", "grid": [1, 2], "seeds": [0]}
    POINT = {"ratio": 1.25, "alg_objective": 4.0, "opt_objective": 5.0}

    def _key(self, cache, value=1.0, seed=0, identity=None):
        return cache.key(
            config=SwitchConfig.contiguous(4, 96),
            workload=self.IDENTITY if identity is None else identity,
            policy="LWD",
            param_value=value,
            seed=seed,
            by_value=False,
            flush_every=None,
            drain=False,
        )

    def test_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        second = dict(self.POINT, ratio=1.5)
        cache.put(self._key(cache, value=1.0), self.POINT)
        cache.put(self._key(cache, value=2.0), second)
        reloaded = SweepCache(tmp_path)
        assert reloaded.get(self._key(reloaded, value=1.0)) == self.POINT
        assert reloaded.get(self._key(reloaded, value=2.0)) == second
        assert reloaded.get(self._key(reloaded, value=3.0)) is None
        assert (reloaded.hits, reloaded.misses) == (2, 1)

    def test_identity_mismatch_refuses_to_resume(self, tmp_path, monkeypatch):
        """Another sweep's or another engine's points live at other
        addresses: a lookup under the new identity misses and never
        returns the stored point."""
        cache = SweepCache(tmp_path)
        cache.put(self._key(cache), self.POINT)
        other_sweep = self._key(cache, identity={"name": "sweep-y"})
        assert cache.get(other_sweep) is None
        monkeypatch.setattr(repro, "__version__", "0.0.0-other-engine")
        assert cache.get(self._key(cache)) is None
        assert cache.hits == 0
        assert cache.corrupt == 0

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        """A writer killed mid-write tears only its last entry: that
        entry is quarantined and misses, the earlier one still hits."""
        cache = SweepCache(
            tmp_path, fault_injector=FaultInjector.parse("torn@1")
        )
        cache.put(self._key(cache, value=1.0), self.POINT)
        cache.put(self._key(cache, value=2.0), self.POINT)
        reloaded = SweepCache(tmp_path)
        assert reloaded.get(self._key(reloaded, value=1.0)) == self.POINT
        assert reloaded.get(self._key(reloaded, value=2.0)) is None
        assert reloaded.corrupt == 1
        assert len(list(reloaded.quarantine_root.iterdir())) == 1

    def test_torn_identity_header_is_salvaged(self, tmp_path):
        """A writer killed inside its very *first* write leaves nothing
        trustworthy; the rerun recomputes and stores the point again,
        and the store verifies clean afterwards."""
        torn = SweepCache(
            tmp_path, fault_injector=FaultInjector.parse("torn@0")
        )
        torn.put(self._key(torn), self.POINT)
        # The torn half-body sits at the entry's final path.
        with pytest.raises(json.JSONDecodeError):
            json.loads(torn._path(self._key(torn)).read_text())

        rerun = SweepCache(tmp_path)
        assert rerun.get(self._key(rerun)) is None
        assert rerun.corrupt == 1
        rerun.put(self._key(rerun), self.POINT)
        again = SweepCache(tmp_path)
        assert again.get(self._key(again)) == self.POINT
        report = again.verify()
        assert (report.entries, report.ok, report.quarantined) == (1, 1, 1)

    def test_floats_round_trip_exactly(self, tmp_path):
        ugly = {
            "ratio": 1.0000000000000002 / 3.0,
            "alg_objective": 0.1 + 0.2,
            "opt_objective": 5e-324,
        }
        cache = SweepCache(tmp_path)
        cache.put(self._key(cache), ugly)
        reloaded = SweepCache(tmp_path)
        stored = reloaded.get(self._key(reloaded))
        assert stored == ugly
        assert all(
            stored[name].hex() == ugly[name].hex() for name in ugly
        )


class TestInterruptAndResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_injected_interrupt_then_resume_byte_identical(
        self, tmp_path, clean, jobs
    ):
        cache_dir = tmp_path / "cache"
        with pytest.raises(SweepInterrupted) as excinfo:
            run_panel(
                4,
                **PANEL_KW,
                jobs=jobs,
                cache_dir=cache_dir,
                fault_injector=FaultInjector.parse("interrupt@2"),
            )
        assert excinfo.value.completed == 2
        assert excinfo.value.total == 4

        resumed = run_panel(4, **PANEL_KW, jobs=jobs, cache_dir=cache_dir)
        assert resumed.points == clean.points
        assert resumed.stats.cells_executed == 2
        assert resumed.stats.cache_hits == 2 * N_POLICIES
        assert _csv_bytes(clean, tmp_path / "clean.csv") == _csv_bytes(
            resumed, tmp_path / "resumed.csv"
        )

    def test_torn_entry_then_interrupt_resumes_byte_identical(
        self, tmp_path, clean
    ):
        """A write torn before the interrupt is quarantined on the
        rerun and its cell recomputed; nothing else is."""
        cache_dir = tmp_path / "cache"
        with pytest.raises(SweepInterrupted) as excinfo:
            run_panel(
                4,
                **PANEL_KW,
                cache_dir=cache_dir,
                fault_injector=FaultInjector.parse("torn@1;interrupt@3"),
            )
        assert excinfo.value.completed == 3

        cache = SweepCache(cache_dir)
        resumed = run_panel(4, **PANEL_KW, cache=cache)
        assert cache.corrupt == 1
        assert len(list(cache.quarantine_root.iterdir())) == 1
        assert resumed.stats.cache_hits == 3 * N_POLICIES - 1
        assert resumed.stats.cells_executed == 2
        assert resumed.points == clean.points
        assert _csv_bytes(clean, tmp_path / "clean.csv") == _csv_bytes(
            resumed, tmp_path / "resumed.csv"
        )

    def test_quarantined_cell_alone_is_recomputed(self, tmp_path, clean):
        """A cell quarantined after its retries does not poison the
        cache: the three completed cells are stored, and a later clean
        run recomputes only the quarantined one."""
        cache_dir = tmp_path / "cache"
        with pytest.raises(SweepExecutionError) as excinfo:
            run_panel(
                4,
                **PANEL_KW,
                cache_dir=cache_dir,
                resilience=SupervisorOptions(
                    backoff_base=0.001, backoff_max=0.01
                ),
                fault_injector=FaultInjector.parse("crash@1x99"),
            )
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.result.stats.resilience.quarantined == 1

        resumed = run_panel(4, **PANEL_KW, cache_dir=cache_dir)
        assert resumed.points == clean.points
        assert resumed.stats.cells_executed == 1
        assert resumed.stats.cache_hits == 3 * N_POLICIES
        assert resumed.stats.resilience.quarantined == 0

    def test_resumed_journal_projects_like_one_shot(self, tmp_path):
        """A pooled run interrupted and resumed leaves a cache whose
        entries equal a one-shot serial run's, file for file and byte
        for byte."""

        def entries(root):
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.glob("??/*.json"))
            }

        one_shot = tmp_path / "one-shot"
        run_panel(4, **PANEL_KW, cache_dir=one_shot)
        resumed = tmp_path / "resumed"
        with pytest.raises(SweepInterrupted):
            run_panel(
                4,
                **PANEL_KW,
                jobs=2,
                cache_dir=resumed,
                fault_injector=FaultInjector.parse("interrupt@2"),
            )
        run_panel(4, **PANEL_KW, jobs=2, cache_dir=resumed)
        stored = entries(one_shot)
        assert len(stored) == 4 * N_POLICIES
        assert entries(resumed) == stored

    def test_fully_journaled_sweep_recomputes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_panel(4, **PANEL_KW, cache_dir=cache_dir)
        again = run_panel(4, **PANEL_KW, cache_dir=cache_dir)
        assert again.points == first.points
        assert again.stats.cells_executed == 0
        assert again.stats.cache_hits == 4 * N_POLICIES

    def test_journal_from_different_sweep_is_rejected(self, tmp_path):
        """Points stored by a sweep of another length are never spliced
        into this one: every cell is recomputed, as on an empty cache."""
        cache_dir = tmp_path / "cache"
        run_panel(4, **PANEL_KW, cache_dir=cache_dir)
        other = dict(PANEL_KW, n_slots=60)
        rerun = run_panel(4, **other, cache_dir=cache_dir)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.cells_executed == 4
        assert rerun.points == run_panel(4, **other).points

    def test_added_seed_runs_only_its_cells(self, tmp_path):
        """The cache key is per (cell, policy), so a rerun that widens
        the sweep executes only the new cells — and splices nothing
        from a different sweep into the output."""
        cache_dir = tmp_path / "cache"
        run_panel(4, **PANEL_KW, cache_dir=cache_dir)
        wider = dict(PANEL_KW, seeds=(0, 1, 2))
        grown = run_panel(4, **wider, cache_dir=cache_dir)
        assert grown.stats.cells_executed == 2
        assert grown.stats.cache_hits == 4 * N_POLICIES
        fresh = run_panel(4, **wider)
        assert grown.points == fresh.points
        assert _csv_bytes(fresh, tmp_path / "fresh.csv") == _csv_bytes(
            grown, tmp_path / "grown.csv"
        )


def _cli(args, cwd, **popen_kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    env.pop("SHMEM_CACHE_DIR", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen_kw,
    )


def _run_cli(args, cwd):
    process = _cli(args, cwd)
    out, err = process.communicate(timeout=300)
    return process.returncode, out, err


@pytest.mark.slow
class TestCliResume:
    RUN = ["run", "fig5-4", "--slots", "60", "--seeds", "0", "1"]
    #: fig5-4 at two seeds: 6 values x 2 seeds = 12 cells of 9 policies.
    POLICIES = 9

    def _clean(self, tmp_path):
        code, _, _ = _run_cli(
            [*self.RUN, "--no-cache", "--out", "clean.csv"], tmp_path
        )
        assert code == 0

    def _rerun_matches_clean(self, tmp_path, run):
        """Rerun ``run`` — the interrupted command without the fault
        spec that stood in for the interrupt — and compare its CSV."""
        code, out, _ = _run_cli([*run, "--out", "resumed.csv"], tmp_path)
        assert code == 0
        assert (tmp_path / "clean.csv").read_bytes() == (
            tmp_path / "resumed.csv"
        ).read_bytes()
        return out

    def test_injected_interrupt_exits_130_and_resumes(self, tmp_path):
        self._clean(tmp_path)
        run = [*self.RUN, "--cache-dir", "cache"]
        code, _, err = _run_cli(
            [*run, "--out", "int.csv", "--inject-faults", "interrupt@3"],
            tmp_path,
        )
        assert code == 130
        assert "3 cells completed by this run are in the cache" in err
        assert "rerun the same command to continue" in err
        assert not (tmp_path / "int.csv").exists()

        out = self._rerun_matches_clean(tmp_path, run)
        lookups = 12 * self.POLICIES
        assert f"cache {3 * self.POLICIES}/{lookups} hits" in out

    def test_interrupt_without_cache_says_nothing_was_kept(self, tmp_path):
        code, _, err = _run_cli(
            [*self.RUN, "--no-cache", "--inject-faults", "interrupt@1"],
            tmp_path,
        )
        assert code == 130
        assert "nothing was kept" in err

    def test_sigterm_mid_hang_exits_130_and_resumes(self, tmp_path):
        """A *real* signal against a genuinely hung cell: the handler
        must interrupt the sleep, keep the completed cells in the
        cache, and exit 130 — then rerunning completes the run."""
        self._clean(tmp_path)
        run = [*self.RUN, "--cache-dir", "cache"]
        process = _cli(
            [
                *run, "--out", "int.csv", "--progress",
                "--inject-faults", "hang@3;delay=300",
            ],
            tmp_path,
        )
        # Wait until cells 0-2 are done and cell 3 is hanging.
        seen = ""
        while "cell 3/" not in seen:
            line = process.stderr.readline()
            if not line:  # pragma: no cover - the run died early
                process.kill()
                pytest.fail(f"run never completed 3 cells: {seen}")
            seen += line
        time.sleep(0.3)  # let the run settle into the injected hang
        process.send_signal(signal.SIGTERM)
        _, err = process.communicate(timeout=60)
        assert process.returncode == 130, err
        assert "rerun the same command to continue" in err
        assert not (tmp_path / "int.csv").exists()

        out = self._rerun_matches_clean(tmp_path, run)
        assert f"cache {3 * self.POLICIES}/{12 * self.POLICIES} hits" in out
