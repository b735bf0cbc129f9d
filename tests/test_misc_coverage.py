"""Edge-path tests: error hierarchy, registry corners, viz limits,
single-queue parameterization, and harmonic-policy generality."""

import pytest

from repro.core import errors
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.policies import make_policy
from repro.singlequeue import SingleQueueSystem


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            errors.ConfigError,
            errors.PolicyError,
            errors.TraceError,
            errors.ExperimentError,
        ):
            assert issubclass(exc_type, errors.ReproError)

    def test_catchable_at_base(self):
        with pytest.raises(errors.ReproError):
            SwitchConfig.contiguous(0, 4)


class TestRegistryCorners:
    def test_panel_id_parse_errors(self):
        from repro.core.errors import ExperimentError
        from repro.experiments.registry import describe_experiment

        with pytest.raises(ExperimentError):
            describe_experiment("fig5-")
        with pytest.raises(ExperimentError):
            describe_experiment("fig5-zero")

    def test_extra_experiment_descriptions(self):
        from repro.experiments.registry import describe_experiment

        assert "skew" in describe_experiment("skew")
        assert "single-queue" in describe_experiment("arch")
        assert "robustness" in describe_experiment("robust")

    def test_theorem_experiments_build_valid_scenarios(self):
        from repro.experiments.registry import THEOREM_EXPERIMENTS

        for experiment in THEOREM_EXPERIMENTS.values():
            scenario = experiment.build()
            scenario.trace.validate_for(scenario.config)
            assert scenario.predicted_ratio >= 1.0


class TestVizLimits:
    def test_tall_thin_chart(self):
        from repro.viz import render_series

        chart = render_series(
            {"A": [(0.0, 1.0), (1.0, 2.0)]}, width=5, height=3
        )
        assert chart.count("\n") >= 4

    def test_many_series_markers_unique(self):
        from repro.viz import render_series

        series = {
            f"P{i}": [(0.0, float(i))] for i in range(8)
        }
        chart = render_series(series, width=10, height=6)
        legend = chart.splitlines()[-1]
        markers = [entry.split("=")[0] for entry in legend.split()]
        assert len(set(markers)) == len(markers)


class TestSingleQueueParameters:
    def test_explicit_core_count(self):
        config = SwitchConfig.contiguous(4, 16, speedup=3)
        assert SingleQueueSystem(config).cores == 12
        assert SingleQueueSystem(config, cores=5).cores == 5

    def test_invalid_cores(self):
        config = SwitchConfig.contiguous(2, 4)
        with pytest.raises(ConfigError):
            SingleQueueSystem(config, cores=0)

    def test_metrics_delay_tracked(self):
        config = SwitchConfig.contiguous(2, 4)
        system = SingleQueueSystem(config, discipline="fifo", cores=1)
        system.run_slot([Packet(port=1, work=2, arrival_slot=0)])
        system.run_slot([])
        # Work-2 packet arrives slot 0, transmits slot 1: delay 1.
        assert system.metrics.mean_delay(1) == pytest.approx(1.0)


class TestHarmonicPoliciesOnValueModel:
    """NEST and NHDT consult only queue lengths, so the paper reuses them
    in the value model; check they run there unmodified."""

    def test_nest_on_priority_queues(self):
        config = SwitchConfig.value_contiguous(3, 9)
        switch = SharedMemorySwitch(config)
        policy = make_policy("NEST")
        for idx in range(12):
            switch.offer(
                Packet(port=idx % 3, work=1, value=float(idx % 4 + 1)),
                policy,
            )
        assert all(len(q) <= 3 for q in switch.queues)

    def test_nhdt_on_priority_queues(self):
        config = SwitchConfig.value_contiguous(3, 9)
        switch = SharedMemorySwitch(config)
        policy = make_policy("NHDT")
        for _ in range(12):
            switch.offer(Packet(port=0, work=1, value=2.0), policy)
        # One queue alone is capped by the harmonic budget B/H_3.
        assert len(switch.queues[0]) <= 9 / (1 + 0.5 + 1 / 3) + 1


class TestMetricsDelaySemantics:
    def test_delay_ignored_for_stale_arrival_slots(self):
        from repro.core.metrics import SwitchMetrics

        metrics = SwitchMetrics(n_ports=1)
        late = Packet(port=0, work=1, arrival_slot=10)
        metrics.record_transmissions([late], slot=5)  # repeated-round case
        assert metrics.delay_count_by_port[0] == 0

    def test_mean_delay_idle_port(self):
        from repro.core.metrics import SwitchMetrics

        assert SwitchMetrics(n_ports=2).mean_delay(1) == 0.0
