"""The perf-benchmark harness: panels, reports, CLI, regression gate."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    PANELS,
    BenchPanel,
    SCHEMA_VERSION,
    compare_speedup,
    load_report,
    run_bench,
    run_panel_bench,
    select_panels,
    write_report,
)
from repro.cli import main
from repro.core.errors import ConfigError

SMALL_SCALE = 0.02  # keep harness tests fast; timing accuracy is not at stake
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


class TestPanels:
    def test_panel_set_is_pinned(self):
        assert set(PANELS) == {
            "uniform-proc-small", "uniform-proc-large",
            "mmpp-proc-small", "mmpp-proc-large",
            "adversarial-proc-small", "adversarial-proc-large",
            "adversarial-value-small", "adversarial-value-large",
            "dynamic-flap-small", "dynamic-split-small",
        }

    def test_selectors(self):
        assert {p.name for p in select_panels(["small"])} == {
            name for name in PANELS if name.endswith("-small")
        }
        assert len(select_panels(["all"])) == len(PANELS)
        assert [p.name for p in select_panels(["mmpp-proc-large"])] == [
            "mmpp-proc-large"
        ]
        with pytest.raises(ConfigError, match="unknown bench panel"):
            select_panels(["huge"])

    def test_traces_are_reproducible(self):
        panel = PANELS["adversarial-proc-small"]
        first = panel.trace(SMALL_SCALE)
        second = panel.trace(SMALL_SCALE)
        assert first.n_slots == second.n_slots
        for burst_a, burst_b in zip(first, second):
            assert [(p.port, p.work) for p in burst_a] == [
                (p.port, p.work) for p in burst_b
            ]


class TestModes:
    @pytest.mark.parametrize(
        "panel_name", ["adversarial-proc-small", "adversarial-value-small"]
    )
    def test_fast_and_naive_modes_agree_on_objectives(self, panel_name):
        # The report records per-policy objectives exactly so that any
        # divergence of the vectorized engine from the naive oracle shows
        # up as drift, not just as perf noise.
        panel = PANELS[panel_name]
        vectorized = run_panel_bench(
            panel, mode="vectorized", slots_scale=SMALL_SCALE
        )
        naive = run_panel_bench(panel, mode="naive", slots_scale=SMALL_SCALE)
        assert [(t.policy, t.objective) for t in vectorized.timings] == [
            (t.policy, t.objective) for t in naive.timings
        ]

    @pytest.mark.parametrize(
        "panel_name, mode, engine",
        [
            ("dynamic-flap-small", "vectorized", "vectorized"),
            ("dynamic-split-small", "vectorized", "reference"),
            ("dynamic-split-small", "naive", "reference"),
        ],
    )
    def test_timings_name_the_engine_that_ran(self, panel_name, mode, engine):
        # Split buffer models have no kernel: a vectorized-mode number
        # for them is a reference-engine number, and says so.
        result = run_panel_bench(
            PANELS[panel_name], mode=mode, slots_scale=SMALL_SCALE
        )
        assert {t.engine for t in result.timings} == {engine}
        assert {
            t["engine"] for t in result.as_dict()["per_policy"]
        } == {engine}

    @pytest.mark.parametrize(
        "mode, view_built", [("vectorized", False), ("naive", True)]
    )
    def test_trace_shape_work_stays_outside_the_timer(
        self, monkeypatch, mode, view_built
    ):
        # Vectorized replays read the generator's columns, so no packet
        # view is ever built; naive mode builds it before its timer.
        built = []
        original = BenchPanel.trace

        def recording(panel, slots_scale=1.0):
            built.append(original(panel, slots_scale))
            return built[-1]

        monkeypatch.setattr(BenchPanel, "trace", recording)
        run_panel_bench(
            PANELS["mmpp-proc-small"], mode=mode, slots_scale=SMALL_SCALE
        )
        (trace,) = built
        assert (trace._slots is not None) == view_built

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="naive|vectorized"):
            run_panel_bench(
                PANELS["adversarial-proc-small"], mode="turbo"
            )


class TestReports:
    def test_report_schema_round_trip(self, tmp_path):
        report = run_bench(
            select_panels(["adversarial-proc-small"]),
            tag="unit",
            slots_scale=SMALL_SCALE,
        )
        path = write_report(report, tmp_path)
        assert path.name == "BENCH_unit.json"
        loaded = load_report(path)
        assert loaded["schema"] == SCHEMA_VERSION
        assert loaded["tag"] == "unit"
        assert loaded["mode"] == "vectorized"
        panel = loaded["panels"]["adversarial-proc-small"]
        assert panel["spec"]["n_ports"] == 8
        assert panel["slots_per_s"] > 0
        assert {t["policy"] for t in panel["per_policy"]} == {
            "LQD", "LWD", "BPD"
        }
        assert "python" in loaded["environment"]

    @pytest.mark.parametrize(
        "name", ["BENCH_seed.json", "BENCH_vectorized.json"]
    )
    def test_committed_reports_without_engine_keys_compare(self, name):
        # Reports recorded before timings named their engine still
        # load and gate against a fresh report, which has the key.
        committed = load_report(BENCHMARKS / name)
        fresh = run_bench(
            select_panels(["adversarial-proc-small"]),
            slots_scale=SMALL_SCALE,
        )
        assert "engine" in fresh["panels"]["adversarial-proc-small"][
            "per_policy"
        ][0]
        assert compare_speedup(committed, committed, min_speedup=1.0) == []
        compare_speedup(fresh, committed, min_speedup=1.0, tolerance=0.99)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 999, "panels": {}}))
        with pytest.raises(ConfigError, match="schema"):
            load_report(path)

    def test_regression_gate(self):
        # The regression gate is the speedup gate at a floor of 1.
        current = {"panels": {"p": {"slots_per_s": 70.0}}}
        baseline = {"panels": {"p": {"slots_per_s": 100.0}}}
        found = compare_speedup(
            current, baseline, min_speedup=1.0, tolerance=0.25
        )
        assert len(found) == 1 and found[0].panel == "p"
        assert not compare_speedup(
            current, baseline, min_speedup=1.0, tolerance=0.35
        )
        # Panels missing from the baseline are not compared.
        assert not compare_speedup(
            {"panels": {"new": {"slots_per_s": 1.0}}}, baseline,
            min_speedup=1.0,
        )
        with pytest.raises(ConfigError, match="tolerance"):
            compare_speedup(
                current, baseline, min_speedup=1.0, tolerance=1.5
            )


class TestCli:
    def test_bench_command_writes_report(self, tmp_path, capsys):
        code = main([
            "bench", "--tag", "clitest", "--out-dir", str(tmp_path),
            "--panels", "adversarial-proc-small",
            "--slots-scale", str(SMALL_SCALE),
        ])
        assert code == 0
        report = load_report(tmp_path / "BENCH_clitest.json")
        assert list(report["panels"]) == ["adversarial-proc-small"]
        out = capsys.readouterr().out
        assert "adversarial-proc-small" in out

    def test_bench_gate_fails_on_regression(self, tmp_path):
        # A baseline claiming absurd throughput forces the gate to trip.
        baseline = {
            "schema": SCHEMA_VERSION,
            "tag": "impossible",
            "mode": "naive",
            "slots_scale": 1.0,
            "panels": {
                "adversarial-proc-small": {"slots_per_s": 1e12},
            },
        }
        base_path = tmp_path / "BENCH_impossible.json"
        base_path.write_text(json.dumps(baseline))
        code = main([
            "bench", "--tag", "gated", "--out-dir", str(tmp_path),
            "--panels", "adversarial-proc-small",
            "--slots-scale", str(SMALL_SCALE),
            "--baseline", str(base_path),
        ])
        assert code == 1

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in PANELS:
            assert name in out
