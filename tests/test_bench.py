"""The pinned bench panels and the panel timer."""

import pytest

from repro.bench import PANELS, BenchPanel, run_panel_bench
from repro.core.errors import ConfigError

SMALL_SCALE = 0.02  # keep these tests fast; timing accuracy is not at stake


class TestPanels:
    def test_panel_set_is_pinned(self):
        assert set(PANELS) == {
            "uniform-proc-small", "uniform-proc-large",
            "mmpp-proc-small", "mmpp-proc-large",
            "adversarial-proc-small", "adversarial-proc-large",
            "adversarial-value-small", "adversarial-value-large",
            "dynamic-flap-small", "dynamic-split-small",
        }

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
    def test_engines_agree_on_objectives(self, panel_name):
        # Timings carry per-policy objectives so that any divergence of
        # the vectorized engine from the reference oracle shows up as
        # drift, not just as perf noise.
        panel = PANELS[panel_name]
        vectorized = run_panel_bench(
            panel, "vectorized", slots_scale=SMALL_SCALE
        )
        reference = run_panel_bench(
            panel, "reference", slots_scale=SMALL_SCALE
        )
        assert [(t.policy, t.objective) for t in vectorized.timings] == [
            (t.policy, t.objective) for t in reference.timings
        ]

    @pytest.mark.parametrize(
        "panel_name, engine, ran",
        [
            ("dynamic-flap-small", "vectorized", "vectorized"),
            ("dynamic-split-small", "vectorized", "reference"),
            ("dynamic-split-small", "reference", "reference"),
        ],
    )
    def test_timings_name_the_engine_that_ran(self, panel_name, engine, ran):
        # Split buffer models have no kernel: a vectorized number for
        # them is a reference-engine number, and says so.
        result = run_panel_bench(
            PANELS[panel_name], engine, slots_scale=SMALL_SCALE
        )
        assert {t.engine for t in result.timings} == {ran}

    @pytest.mark.parametrize(
        "engine, view_built", [("vectorized", False), ("reference", True)]
    )
    def test_trace_shape_work_stays_outside_the_timer(
        self, monkeypatch, engine, view_built
    ):
        # Vectorized replays read the generator's columns, so no packet
        # view is ever built; the reference engine builds it before its
        # timer.
        built = []
        original = BenchPanel.trace

        def recording(panel, slots_scale=1.0):
            built.append(original(panel, slots_scale))
            return built[-1]

        monkeypatch.setattr(BenchPanel, "trace", recording)
        run_panel_bench(
            PANELS["mmpp-proc-small"], engine, slots_scale=SMALL_SCALE
        )
        (trace,) = built
        assert (trace._slots is not None) == view_built

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            run_panel_bench(
                PANELS["adversarial-proc-small"], "turbo",
                slots_scale=SMALL_SCALE,
            )
