"""Characterization of the sweep ledger's renderings.

:class:`~repro.analysis.sweep.SweepStats` is the one record of a
sweep's telemetry: cells, cache lookups, elapsed time, jobs, per-stage
seconds and what the supervised executor absorbed. Three places render
it — the CLI footer (``summary()``), ``repro profile`` and report.md's
"Sweep engine throughput" table — and these tests pin their text.
"""

from __future__ import annotations

import re

from repro.analysis.sweep import SweepStats
from repro.cli import main
from repro.experiments.report import ReportOptions, generate_report
from repro.resilience import ResilienceStats

STAGES = ("trace_gen", "policy_run", "opt_run")


class TestSummary:
    def test_full_summary_literal(self):
        stats = SweepStats(
            cells_total=7,
            cells_executed=5,
            cache_hits=4,
            cache_misses=12,
            elapsed_seconds=2.5,
            jobs=1,
            stage_seconds={
                "trace_gen": 0.6, "policy_run": 1.2, "opt_run": 0.2,
            },
            resilience=ResilienceStats(retries=3, corrupt_results=1),
        )
        assert stats.summary() == (
            "7 cells in 2.50s (2.80 cells/s, jobs=1), cache 4/16 hits "
            "(25%); stages: policy_run 1.20s (60%), trace_gen 0.60s "
            "(30%), opt_run 0.20s (10%); dominant: policy_run; "
            "resilience: 3 retries, 1 corrupt results"
        )

    def test_bare_summary_literal(self):
        stats = SweepStats(cells_total=3, elapsed_seconds=0.5)
        assert stats.summary() == "3 cells in 0.50s (6.00 cells/s, jobs=1)"

    def test_zero_seconds_has_no_share_and_no_dominant(self):
        stats = SweepStats(
            cells_total=3, elapsed_seconds=0.5,
            stage_seconds={"trace_gen": 0.0},
        )
        assert stats.summary() == (
            "3 cells in 0.50s (6.00 cells/s, jobs=1); stages: trace_gen 0.00s"
        )


def _profile_rows(text):
    """(name, seconds, share%, flagged) per stage row of the table."""
    rows = []
    for line in text.splitlines():
        match = re.match(
            r"^(\w+)\s+([0-9.]+)\s+([0-9.]+)%(\s+<- dominant)?$", line
        )
        if match:
            rows.append(
                (
                    match.group(1),
                    float(match.group(2)),
                    float(match.group(3)),
                    match.group(4) is not None,
                )
            )
    return rows


class TestProfile:
    def _check_table(self, out):
        lines = out.splitlines()
        assert lines[0].startswith("# fig5-1: ")
        assert re.match(r"^# 7 cells in [0-9.]+s \(", lines[1])
        assert "dominant: " in lines[1]
        assert re.match(r"^stage\s+seconds\s+share$", lines[2])
        rows = _profile_rows(out)
        assert sorted(name for name, *_ in rows) == sorted(STAGES)
        assert [flagged for *_, flagged in rows] == [True, False, False]
        seconds = [s for _, s, _, _ in rows]
        assert seconds == sorted(seconds, reverse=True)
        assert abs(sum(share for _, _, share, _ in rows) - 100.0) <= 0.3
        return lines

    def test_serial_profile(self, capsys):
        argv = ["profile", "fig5-1", "--slots", "60", "--seeds", "0"]
        assert main(argv) == 0
        lines = self._check_table(capsys.readouterr().out)
        assert re.match(r"^other\s+[0-9.]+$", lines[-1])

    def test_parallel_profile_reports_worker_seconds(self, capsys):
        """Under --jobs the stages sum worker time, which can exceed the
        wall clock, so there is no ``other = elapsed - stages`` row."""
        assert main(
            ["profile", "fig5-1", "--slots", "60", "--seeds", "0",
             "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        lines = self._check_table(out)
        assert not any(line.startswith("other") for line in lines)
        assert lines[-1] == (
            "# stage seconds are worker seconds summed over 2 jobs; "
            "the wall clock is in the summary line"
        )


class TestReportThroughput:
    OPTIONS = dict(
        n_slots=150,
        include_panels=(1,),
        include_theorems=False,
        include_extensions=False,
    )

    def _throughput_row(self, report):
        section = report.split("### Sweep engine throughput", 1)[1]
        rows = [
            line for line in section.splitlines() if line.startswith("| 1 |")
        ]
        assert len(rows) == 1
        return [cell.strip() for cell in rows[0].strip("|").split("|")]

    def test_panel_row_has_stage_cells_and_dominant(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        report = generate_report(ReportOptions(**self.OPTIONS))
        cells = self._throughput_row(report)
        assert cells[:3] == ["1", "7", "7"]
        assert cells[4] == "0%"
        shares = []
        for cell in cells[5:8]:
            match = re.match(r"^([0-9.]+)s \(([0-9]+)%\)$", cell)
            assert match, cell
            shares.append(int(match.group(2)))
        assert 98 <= sum(shares) <= 102
        assert cells[8] in STAGES
        assert shares[STAGES.index(cells[8])] == max(shares)
        assert "Resilience:" not in report

    def test_faulted_report_prints_resilience_totals(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@0")
        report = generate_report(ReportOptions(**self.OPTIONS))
        assert (
            "Resilience: 1 retries across 1 panels (see docs/RESILIENCE.md)."
            in report
        )
