"""Tests for the synthetic workload generators."""

import pytest

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.traffic.patterns import poisson_workload, saturating_workload
from repro.traffic.workloads import (
    processing_capacity,
    processing_chunks,
    processing_workload,
    value_capacity,
    value_port_chunks,
    value_port_workload,
    value_uniform_chunks,
    value_uniform_workload,
)

np = pytest.importorskip("numpy", exc_type=ImportError)


@pytest.fixture
def proc_config():
    return SwitchConfig.contiguous(4, 32)


@pytest.fixture
def value_config():
    return SwitchConfig.value_contiguous(4, 32)


class TestCapacities:
    def test_processing_capacity_is_c_times_z(self):
        config = SwitchConfig.contiguous(4, 16, speedup=2)
        assert processing_capacity(config) == pytest.approx(
            2 * (1 + 1 / 2 + 1 / 3 + 1 / 4)
        )

    def test_value_capacity_is_n_times_c(self):
        config = SwitchConfig.value_contiguous(4, 16, speedup=3)
        assert value_capacity(config) == 12.0


class TestProcessingWorkload:
    def test_packets_respect_port_work(self, proc_config):
        trace = processing_workload(proc_config, 300, load=2.0, seed=0)
        for packet in trace.packets():
            assert packet.work == proc_config.work_of(packet.port)

    def test_mean_rate_tracks_load(self, proc_config):
        load = 2.0
        trace = processing_workload(
            proc_config, 20_000, load=load, seed=1,
            mean_on_slots=10, mean_off_slots=30,
        )
        expected = load * processing_capacity(proc_config)
        assert trace.total_packets / 20_000 == pytest.approx(
            expected, rel=0.15
        )

    def test_absolute_rate_overrides_load(self, proc_config):
        trace = processing_workload(
            proc_config, 20_000, load=99.0, absolute_rate=1.5, seed=1,
            mean_on_slots=10, mean_off_slots=30,
        )
        assert trace.total_packets / 20_000 == pytest.approx(1.5, rel=0.15)

    def test_deterministic_under_seed(self, proc_config):
        a = processing_workload(proc_config, 200, seed=5)
        b = processing_workload(proc_config, 200, seed=5)
        assert [len(s) for s in a.slots] == [len(s) for s in b.slots]
        assert [p.port for p in a.packets()] == [p.port for p in b.packets()]

    def test_different_seeds_differ(self, proc_config):
        a = processing_workload(proc_config, 500, seed=1)
        b = processing_workload(proc_config, 500, seed=2)
        assert [len(s) for s in a.slots] != [len(s) for s in b.slots]

    def test_needs_positive_slots(self, proc_config):
        # Every generator and chunk iterator shares one validated core,
        # so all of them reject a non-positive slot count the same way
        # (a chunk iterator when it is made, not when it is read).
        value_config = SwitchConfig.value_contiguous(4, 32)
        generators = [
            lambda n: processing_workload(proc_config, n),
            lambda n: value_uniform_workload(value_config, n, max_value=4),
            lambda n: value_port_workload(value_config, n),
            lambda n: poisson_workload(proc_config, n),
            lambda n: saturating_workload(proc_config, n),
            lambda n: saturating_workload(value_config, n),
            lambda n: processing_chunks(proc_config, n),
            lambda n: value_uniform_chunks(value_config, n, max_value=4),
            lambda n: value_port_chunks(value_config, n),
        ]
        for index, generate in enumerate(generators):
            for n_slots in (0, -3):
                with pytest.raises(ConfigError, match="need >= 1 slot"):
                    generate(n_slots)
                    pytest.fail(f"generator #{index} accepted {n_slots}")

    def test_validates_against_config(self, proc_config):
        trace = processing_workload(proc_config, 100, seed=3)
        trace.validate_for(proc_config)


class TestValueUniformWorkload:
    def test_values_in_range(self, value_config):
        trace = value_uniform_workload(
            value_config, 300, max_value=7, seed=0
        )
        values = {p.value for p in trace.packets()}
        assert values <= {float(v) for v in range(1, 8)}

    def test_unit_work(self, value_config):
        trace = value_uniform_workload(value_config, 200, max_value=4, seed=0)
        assert all(p.work == 1 for p in trace.packets())

    def test_port_bound_sources_concentrate_bursts(self, value_config):
        # With port binding, per-slot bursts target few ports; without,
        # they spread over all ports. Compare distinct ports per burst.
        bound = value_uniform_workload(
            value_config, 2000, max_value=4, seed=0, n_sources=4,
            mean_on_slots=10, mean_off_slots=90, load=3.0,
        )
        spread = value_uniform_workload(
            value_config, 2000, max_value=4, seed=0, n_sources=4,
            mean_on_slots=10, mean_off_slots=90, load=3.0,
            port_bound_sources=False,
        )

        def mean_distinct_ports(trace):
            per_slot = [
                len({p.port for p in slot}) for slot in trace if slot
            ]
            return sum(per_slot) / max(len(per_slot), 1)

        assert mean_distinct_ports(bound) < mean_distinct_ports(spread)

    def test_max_value_validated(self, value_config):
        with pytest.raises(ConfigError):
            value_uniform_workload(value_config, 10, max_value=0)

    def test_value_distribution_roughly_uniform(self, value_config):
        trace = value_uniform_workload(
            value_config, 5000, max_value=4, seed=2, load=3.0,
            mean_on_slots=10, mean_off_slots=30,
        )
        counts = np.zeros(4)
        for p in trace.packets():
            counts[int(p.value) - 1] += 1
        assert counts.min() > 0.7 * counts.max()


def _per_source_value_draws(config, n_slots, max_value, *, seed, load):
    """Oracle: the port-bound value-uniform recipe with one value draw
    per ON source, in source order. Returns ``(slots, burst_sizes)``:
    each slot's ``(port, value)`` pairs and every ON source's count."""
    from repro.traffic import workloads

    rng = workloads._recipe_rng(n_slots, seed)
    ports_of_source = rng.integers(0, config.n_ports, size=500)
    fleet = workloads._fleet(
        rng, 500, None, load * value_capacity(config), 20.0, 380.0
    )
    slots, burst_sizes = [], []
    for _slot in range(n_slots):
        on_idx, emitted = fleet.step()
        burst = []
        for src, count in zip(on_idx.tolist(), emitted.tolist()):
            if not count:
                continue
            burst_sizes.append(count)
            drawn = rng.integers(1, max_value + 1, size=count)
            burst += [(int(ports_of_source[src]), float(v)) for v in drawn]
        slots.append(burst)
    return slots, burst_sizes


class TestValueUniformDrawOracle:
    """One value draw per slot must equal one draw per ON source,
    concatenated: numpy's bounded integers consume the PCG64 stream
    element by element. A numpy that breaks this fails here first."""

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 64])
    @pytest.mark.parametrize("seed", [0, 5, 21])
    def test_both_forms_match_per_source_draws(self, k, seed):
        config = SwitchConfig.uniform(k, 96)
        expected, burst_sizes = _per_source_value_draws(
            config, 150, k, seed=seed, load=3.0
        )
        assert any(size % 2 for size in burst_sizes)
        assert any(size > 1 for size in burst_sizes)
        trace = value_uniform_workload(
            config, 150, max_value=k, seed=seed, load=3.0
        )
        materialised = [
            [(p.port, p.value) for p in slot] for slot in trace
        ]
        streamed = [
            list(zip(ports.tolist(), values.tolist()))
            for ports, _works, values in value_uniform_chunks(
                config, 150, max_value=k, seed=seed, load=3.0
            )
        ]
        assert materialised == expected
        assert streamed == expected


class TestValuePortWorkload:
    def test_value_equals_port_value(self, value_config):
        trace = value_port_workload(value_config, 300, seed=0)
        for packet in trace.packets():
            assert packet.value == value_config.value_of(packet.port)

    def test_port_weights_skew_assignment(self, value_config):
        trace = value_port_workload(
            value_config, 3000, seed=0, load=3.0,
            mean_on_slots=10, mean_off_slots=30,
            port_weights=np.array([0.0001, 0.0001, 0.0001, 1.0]),
        )
        counts = trace.per_port_counts(4)
        assert counts[3] > 0.9 * sum(counts)

    def test_bad_port_weights_rejected(self, value_config):
        with pytest.raises(ConfigError):
            value_port_workload(
                value_config, 10, port_weights=np.array([1.0, 2.0])
            )

    def test_absolute_rate(self, value_config):
        trace = value_port_workload(
            value_config, 20_000, absolute_rate=2.0, seed=1,
            mean_on_slots=10, mean_off_slots=30,
        )
        assert trace.total_packets / 20_000 == pytest.approx(2.0, rel=0.15)
