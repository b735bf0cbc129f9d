"""Consistency checks on the declarative Fig. 5 panel specifications."""

from repro.experiments.fig5 import (
    PANELS,
    PROCESSING_POLICIES,
    VALUE_PORT_POLICIES,
    VALUE_UNIFORM_POLICIES,
    _panel_factories,
)
from repro.policies import policy_entry


class TestPanelSpecs:
    def test_every_policy_is_registered_with_the_right_model(self):
        for spec in PANELS.values():
            model = "processing" if spec.model == "processing" else "value"
            for name in spec.policies:
                entry = policy_entry(name)
                assert model in entry.models, (spec.panel, name)

    def test_sweep_parameters_positive_and_sorted(self):
        for spec in PANELS.values():
            values = spec.param_values
            assert all(v > 0 for v in values)
            assert list(values) == sorted(values)
            assert len(set(values)) == len(values)

    def test_panel_rows_match_paper_layout(self):
        # Three rows of three panels, one parameter each, in k/B/C order.
        for row_start, model in ((1, "processing"), (4, "value-uniform"),
                                 (7, "value-port")):
            params = [PANELS[row_start + i].param_name for i in range(3)]
            assert params == ["k", "B", "C"]
            assert all(
                PANELS[row_start + i].model == model for i in range(3)
            )

    def test_policy_lineups_match_figure_legends(self):
        assert PANELS[1].policies == PROCESSING_POLICIES
        assert PANELS[4].policies == VALUE_UNIFORM_POLICIES
        assert PANELS[7].policies == VALUE_PORT_POLICIES
        # NHST-V only appears in the value=port row (Section V-C).
        assert "NHST-V" in VALUE_PORT_POLICIES
        assert "NHST-V" not in VALUE_UNIFORM_POLICIES

    def test_factories_build_valid_configs_for_all_sweep_values(self):
        for spec in PANELS.values():
            config_factory, _, _ = _panel_factories(spec, n_slots=10, load=3.0)
            for value in spec.param_values:
                config = config_factory(value)
                assert config.buffer_size >= config.n_ports

    def test_experiment_ids(self):
        for panel, spec in PANELS.items():
            assert spec.experiment_id == f"fig5-{panel}"
