"""Tests for streaming workloads and the lock-step streaming runner."""

import pytest

from repro.analysis.competitive import measure_competitive_ratio
from repro.analysis.streaming import stream_competitive
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.streaming import (
    stream_processing_workload,
    stream_value_port_workload,
)
from repro.traffic.trace import Trace
from repro.traffic.workloads import (
    processing_workload,
    value_port_workload,
)


@pytest.fixture
def proc_config():
    return SwitchConfig.contiguous(5, 40)


@pytest.fixture
def value_config():
    return SwitchConfig.value_contiguous(5, 40)


class TestStreamEquivalence:
    """A streaming generator must reproduce its materializing form's
    arrivals exactly (same seed, same parameters)."""

    def test_processing_identical(self, proc_config):
        kwargs = dict(load=3.0, seed=4, n_sources=50)
        stream = Trace(
            list(stream_processing_workload(proc_config, 300, **kwargs))
        )
        materialized = processing_workload(proc_config, 300, **kwargs)
        assert stream.n_slots == materialized.n_slots
        for a, b in zip(stream.slots, materialized.slots):
            assert [(p.port, p.work) for p in a] == [
                (p.port, p.work) for p in b
            ]

    def test_value_port_identical(self, value_config):
        kwargs = dict(load=3.0, seed=9, n_sources=50)
        stream = Trace(
            list(stream_value_port_workload(value_config, 300, **kwargs))
        )
        materialized = value_port_workload(value_config, 300, **kwargs)
        for a, b in zip(stream.slots, materialized.slots):
            assert [(p.port, p.value) for p in a] == [
                (p.port, p.value) for p in b
            ]

    def test_slot_count_validated(self, proc_config):
        with pytest.raises(ConfigError):
            list(stream_processing_workload(proc_config, 0))


class TestStreamRunner:
    def test_matches_materialized_measurement(self, proc_config):
        """The single-pass lock-step run must produce exactly the same
        objectives as the replay-twice runner on the same workload."""
        kwargs = dict(load=3.0, seed=2, n_sources=50)
        trace = processing_workload(proc_config, 400, **kwargs)
        direct = measure_competitive_ratio(
            make_policy("LWD"), trace, proc_config,
            by_value=False, flush_every=100,
        )
        streamed = stream_competitive(
            make_policy("LWD"),
            proc_config,
            stream_processing_workload(proc_config, 400, **kwargs),
            flush_every=100,
        )
        assert streamed.alg_objective == direct.alg_objective
        assert streamed.opt_objective == direct.opt_objective
        assert streamed.ratio == pytest.approx(direct.ratio)

    def test_checkpoints(self, proc_config):
        streamed = stream_competitive(
            make_policy("LWD"),
            proc_config,
            stream_processing_workload(
                proc_config, 300, load=3.0, seed=1, n_sources=50
            ),
            checkpoint_every=100,
        )
        assert [c.slots for c in streamed.checkpoints] == [100, 200, 300]
        # Cumulative objectives are monotone along the run.
        algs = [c.alg_objective for c in streamed.checkpoints]
        assert algs == sorted(algs)

    def test_value_model_defaults(self, value_config):
        streamed = stream_competitive(
            make_policy("MRD"),
            value_config,
            stream_value_port_workload(
                value_config, 200, load=3.0, seed=3, n_sources=50
            ),
        )
        assert streamed.by_value
        assert streamed.ratio >= 1.0 or streamed.ratio == pytest.approx(
            1.0, abs=0.05
        )

    def test_validation(self, proc_config):
        with pytest.raises(ConfigError):
            stream_competitive(
                make_policy("LWD"), proc_config, iter([]), flush_every=0
            )
        with pytest.raises(ConfigError):
            stream_competitive(
                make_policy("LWD"), proc_config, iter([]),
                checkpoint_every=0,
            )

    def test_summary(self, proc_config):
        streamed = stream_competitive(
            make_policy("LWD"),
            proc_config,
            stream_processing_workload(
                proc_config, 50, load=3.0, seed=0, n_sources=20
            ),
        )
        assert "LWD" in streamed.summary()
