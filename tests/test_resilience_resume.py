"""Checkpointed resume: journal round-trips, interrupts, and the CLI.

The contract: an interrupted sweep (SIGINT/SIGTERM or an injected
interrupt) exits cleanly *after* flushing completed cells to its
journal, and the resumed run recomputes none of them while producing
output byte-identical to a never-interrupted run.
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

from repro.core.errors import ResilienceError, SweepInterrupted
from repro.experiments.fig5 import run_panel
from repro.resilience import (
    FaultInjector,
    RunJournal,
    default_manifest_path,
    load_manifest,
    write_manifest,
)

PANEL_KW = dict(
    n_slots=120,
    seeds=(0, 1),
    param_values=(2, 8),
    policies=("Greedy", "MVD", "LQD-V"),
)

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestJournalUnit:
    IDENTITY = {"name": "sweep-x", "grid": [1, 2], "seeds": [0]}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            assert journal.open(self.IDENTITY) == 0
            journal.record(1.0, 0, {"LWD": {"ratio": 1.25}})
            journal.record(2.0, 0, {"LWD": {"ratio": 1.5}})
        reloaded = RunJournal(path)
        assert reloaded.open(self.IDENTITY) == 2
        assert reloaded.get(1.0, 0)["points"]["LWD"]["ratio"] == 1.25
        assert reloaded.get(2.0, 0) == {"points": {"LWD": {"ratio": 1.5}}}
        assert reloaded.get(3.0, 0) is None
        reloaded.close()

    def test_identity_mismatch_refuses_to_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.open(self.IDENTITY)
        with pytest.raises(ResilienceError, match="different sweep"):
            RunJournal(path).open({"name": "sweep-y"})

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.open(self.IDENTITY)
            journal.record(1.0, 0, {"LWD": {"ratio": 1.25}})
        # Simulate a writer killed mid-append: a truncated last line.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"t":"cell","value":2.0,"se')
        reloaded = RunJournal(path)
        assert reloaded.open(self.IDENTITY) == 1
        assert reloaded.get(2.0, 0) is None
        reloaded.close()

    def test_torn_identity_header_is_salvaged(self, tmp_path):
        """A writer killed inside its very *first* write leaves a torn
        header; nothing after it can be trusted, so open() must restore
        zero cells and rewrite the file as a fresh, valid journal."""
        from repro.resilience.journal import read_journal

        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.open(self.IDENTITY)
            journal.record(1.0, 0, {"LWD": {"ratio": 1.25}})
        data = path.read_bytes()
        header_end = data.index(b"\n")
        # Truncate mid-byte through the header line itself.
        path.write_bytes(data[: header_end // 2])

        with RunJournal(path) as journal:
            assert journal.open(self.IDENTITY) == 0
            journal.record(2.0, 0, {"LWD": {"ratio": 1.5}})

        # The salvage rewrote from scratch: exactly one valid header,
        # no remnant of the torn bytes, and resuming trusts it again.
        lines = path.read_text().splitlines()
        assert sum('"t":"header"' in line for line in lines) == 1
        identity, entries = read_journal(path)
        assert identity == self.IDENTITY
        assert list(entries) == [(2.0, 0)]
        reloaded = RunJournal(path)
        assert reloaded.open(self.IDENTITY) == 1
        reloaded.close()

    def test_floats_round_trip_exactly(self, tmp_path):
        ugly = 1.0000000000000002 / 3.0
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.open(self.IDENTITY)
            journal.record(1.0, 0, {"LWD": {"ratio": ugly}})
        reloaded = RunJournal(path)
        reloaded.open(self.IDENTITY)
        assert reloaded.get(1.0, 0)["points"]["LWD"]["ratio"] == ugly
        reloaded.close()

    def test_record_requires_open(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        with pytest.raises(ResilienceError, match="not open"):
            journal.record(1.0, 0, {})

    def test_manifest_round_trip(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        manifest = default_manifest_path(journal)
        assert manifest.name == "run.jsonl.manifest.json"
        write_manifest(
            manifest,
            experiment="fig5-4",
            journal=journal,
            options={"slots": 120},
            completed=3,
            total=12,
        )
        loaded = load_manifest(manifest)
        assert loaded["experiment"] == "fig5-4"
        assert loaded["options"] == {"slots": 120}
        assert loaded["progress"] == {"completed": 3, "total": 12}

    def test_bad_manifest_raises(self, tmp_path):
        path = tmp_path / "not-a-manifest.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ResilienceError):
            load_manifest(path)
        with pytest.raises(ResilienceError):
            load_manifest(tmp_path / "absent.json")


class TestInterruptAndResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_injected_interrupt_then_resume_byte_identical(
        self, tmp_path, jobs
    ):
        clean = run_panel(4, **PANEL_KW)
        journal_path = tmp_path / f"run-{jobs}.jsonl"

        with pytest.raises(SweepInterrupted) as excinfo:
            run_panel(
                4,
                **PANEL_KW,
                jobs=jobs,
                journal=RunJournal(journal_path),
                fault_injector=FaultInjector.parse("interrupt@2"),
            )
        assert excinfo.value.completed == 2
        assert excinfo.value.total == 4

        resumed = run_panel(
            4, **PANEL_KW, jobs=jobs, journal=RunJournal(journal_path)
        )
        assert resumed.points == clean.points
        assert resumed.stats.resilience.resumed_cells == 2
        assert resumed.stats.cells_executed == 2

        clean_csv = tmp_path / "clean.csv"
        resumed_csv = tmp_path / "resumed.csv"
        clean.to_csv(clean_csv)
        resumed.to_csv(resumed_csv)
        assert clean_csv.read_bytes() == resumed_csv.read_bytes()

    def test_resumed_journal_projects_like_one_shot(self, tmp_path):
        """A pooled run interrupted and resumed leaves a journal whose
        canonical projection equals a one-shot serial run's."""
        from repro.resilience.journal import (
            canonical_journal_digest,
            read_journal,
        )

        one_shot = tmp_path / "one-shot.jsonl"
        run_panel(4, **PANEL_KW, journal=RunJournal(one_shot))
        resumed = tmp_path / "resumed.jsonl"
        with pytest.raises(SweepInterrupted):
            run_panel(
                4,
                **PANEL_KW,
                jobs=2,
                journal=RunJournal(resumed),
                fault_injector=FaultInjector.parse("interrupt@2"),
            )
        run_panel(4, **PANEL_KW, jobs=2, journal=RunJournal(resumed))
        assert canonical_journal_digest(
            *read_journal(one_shot)
        ) == canonical_journal_digest(*read_journal(resumed))

    def test_journal_with_stage_timings_resumes(self, tmp_path):
        """Older journals carried a ``"stages"`` timing object on every
        cell line. Such a journal still opens and resumes to the same
        bytes, and projects to the same canonical digest as one
        without them."""
        from repro.resilience.journal import (
            canonical_journal_digest,
            read_journal,
        )

        def with_stages(path):
            lines = []
            for line in path.read_text().splitlines():
                event = json.loads(line)
                if event["t"] == "cell":
                    event["stages"] = {
                        "trace_gen": 0.01, "policy_run": 0.2, "opt_run": 0.03,
                    }
                lines.append(json.dumps(event, separators=(",", ":")))
            path.write_text("\n".join(lines) + "\n")

        one_shot = tmp_path / "one-shot.jsonl"
        clean = run_panel(4, **PANEL_KW, journal=RunJournal(one_shot))
        assert '"stages"' not in one_shot.read_text()
        digest = canonical_journal_digest(*read_journal(one_shot))
        legacy_full = tmp_path / "legacy-full.jsonl"
        legacy_full.write_text(one_shot.read_text())
        with_stages(legacy_full)
        assert canonical_journal_digest(*read_journal(legacy_full)) == digest

        legacy = tmp_path / "legacy.jsonl"
        with pytest.raises(SweepInterrupted):
            run_panel(
                4,
                **PANEL_KW,
                journal=RunJournal(legacy),
                fault_injector=FaultInjector.parse("interrupt@2"),
            )
        with_stages(legacy)
        resumed = run_panel(4, **PANEL_KW, journal=RunJournal(legacy))
        assert resumed.stats.resilience.resumed_cells == 2
        clean_csv = tmp_path / "clean.csv"
        resumed_csv = tmp_path / "resumed.csv"
        clean.to_csv(clean_csv)
        resumed.to_csv(resumed_csv)
        assert clean_csv.read_bytes() == resumed_csv.read_bytes()
        assert canonical_journal_digest(*read_journal(legacy)) == digest

    def test_fully_journaled_sweep_recomputes_nothing(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        first = run_panel(4, **PANEL_KW, journal=RunJournal(journal_path))
        again = run_panel(4, **PANEL_KW, journal=RunJournal(journal_path))
        assert again.points == first.points
        assert again.stats.cells_executed == 0
        assert again.stats.resilience.resumed_cells == 4

    def test_quarantine_counts_survive_journal_resume(self, tmp_path):
        """A quarantined cell does not poison the journal: the three
        completed cells are journaled, and a later clean run resumes
        them and recomputes only the quarantined one."""
        from repro.core.errors import SweepExecutionError
        from repro.resilience import SupervisorOptions

        clean = run_panel(4, **PANEL_KW)
        journal_path = tmp_path / "run.jsonl"
        with pytest.raises(SweepExecutionError) as excinfo:
            run_panel(
                4,
                **PANEL_KW,
                resilience=SupervisorOptions(
                    backoff_base=0.001, backoff_max=0.01
                ),
                journal=RunJournal(journal_path),
                fault_injector=FaultInjector.parse("crash@1x99"),
            )
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.result.stats.resilience.quarantined == 1

        resumed = run_panel(
            4, **PANEL_KW, journal=RunJournal(journal_path)
        )
        assert resumed.points == clean.points
        assert resumed.stats.resilience.resumed_cells == 3
        assert resumed.stats.cells_executed == 1
        assert resumed.stats.resilience.quarantined == 0

    def test_journal_from_different_sweep_is_rejected(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        run_panel(4, **PANEL_KW, journal=RunJournal(journal_path))
        other = dict(PANEL_KW, seeds=(0, 1, 2))
        with pytest.raises(ResilienceError, match="different sweep"):
            run_panel(4, **other, journal=RunJournal(journal_path))


def _cli(args, cwd, **popen_kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
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
    RUN = [
        "run", "fig5-4", "--slots", "60", "--seeds", "0", "1",
        "--no-cache",
    ]

    def test_injected_interrupt_exits_130_and_resumes(self, tmp_path):
        code, clean_out, _ = _run_cli(
            [*self.RUN, "--out", "clean.csv"], tmp_path
        )
        assert code == 0

        code, _, err = _run_cli(
            [
                *self.RUN, "--out", "int.csv", "--journal", "run.jsonl",
                "--inject-faults", "interrupt@3",
            ],
            tmp_path,
        )
        assert code == 130
        assert "resume with" in err
        manifest = tmp_path / "run.jsonl.manifest.json"
        assert manifest.exists()
        assert not (tmp_path / "int.csv").exists()
        assert load_manifest(manifest)["progress"]["completed"] == 3

        code, out, _ = _run_cli(
            ["run", "--resume", "run.jsonl.manifest.json", "--out",
             "resumed.csv"],
            tmp_path,
        )
        assert code == 0
        assert "resumed" in out
        assert (tmp_path / "clean.csv").read_bytes() == (
            tmp_path / "resumed.csv"
        ).read_bytes()

    def test_sigterm_mid_hang_journals_and_resumes(self, tmp_path):
        """A *real* signal against a genuinely hung cell: the handler
        must interrupt the sleep, flush the journal, write the
        manifest, and exit 130 — then the resume completes the run."""
        code, _, _ = _run_cli([*self.RUN, "--out", "clean.csv"], tmp_path)
        assert code == 0

        process = _cli(
            [
                *self.RUN, "--out", "int.csv", "--journal", "run.jsonl",
                "--inject-faults", "hang@3;delay=300",
            ],
            tmp_path,
        )
        journal = tmp_path / "run.jsonl"
        deadline = time.monotonic() + 120
        # Wait until cells 0-2 are journaled and cell 3 is hanging.
        while time.monotonic() < deadline:
            if journal.exists() and len(
                journal.read_text().splitlines()
            ) >= 4:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - only on a wedged test host
            process.kill()
            pytest.fail("journal never reached 3 cells")
        time.sleep(0.3)  # let the run settle into the injected hang
        process.send_signal(signal.SIGTERM)
        _, err = process.communicate(timeout=60)
        assert process.returncode == 130, err
        manifest = tmp_path / "run.jsonl.manifest.json"
        assert manifest.exists()
        assert load_manifest(manifest)["progress"]["completed"] >= 3

        code, _, _ = _run_cli(
            ["run", "--resume", "run.jsonl.manifest.json", "--out",
             "resumed.csv"],
            tmp_path,
        )
        assert code == 0
        assert (tmp_path / "clean.csv").read_bytes() == (
            tmp_path / "resumed.csv"
        ).read_bytes()
