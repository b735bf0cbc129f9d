"""Tests for the single-PQ OPT surrogates."""

from repro.core.config import SwitchConfig
from repro.core.packet import Packet
from repro.opt.surrogate import MaxValueSurrogate, SrptSurrogate, make_surrogate


def pkt(port=0, work=1, value=1.0):
    return Packet(port=port, work=work, value=value)


class TestSrptSurrogate:
    def test_cores_default_to_n_times_c(self):
        config = SwitchConfig.contiguous(4, 16, speedup=3)
        assert SrptSurrogate(config).cores == 12

    def test_smallest_first_service(self):
        config = SwitchConfig.contiguous(4, 16)
        surrogate = SrptSurrogate(config, cores=1)
        surrogate.run_slot([pkt(3, 4), pkt(0, 1)])
        # The work-1 packet finishes first despite arriving second.
        assert surrogate.metrics.transmitted_packets == 1
        assert surrogate.metrics.transmitted_by_port[0] == 1

    def test_push_out_largest_when_full(self):
        config = SwitchConfig.from_works((1, 4), 2)
        surrogate = SrptSurrogate(config, cores=1)
        surrogate.run_slot([pkt(1, 4), pkt(1, 4), pkt(0, 1)])
        # One work-4 packet was evicted for the work-1 arrival, which then
        # transmitted immediately.
        assert surrogate.metrics.pushed_out == 1
        assert surrogate.metrics.transmitted_packets == 1

    def test_drops_when_not_smaller(self):
        config = SwitchConfig.from_works((1, 4), 2)
        surrogate = SrptSurrogate(config, cores=1)
        surrogate.run_slot([pkt(0, 1), pkt(0, 1), pkt(1, 4)])
        assert surrogate.metrics.dropped == 1

    def test_multicore_parallel_service(self):
        config = SwitchConfig.contiguous(2, 8)
        surrogate = SrptSurrogate(config, cores=4)
        surrogate.run_slot([pkt(0, 1) for _ in range(4)])
        assert surrogate.metrics.transmitted_packets == 4

    def test_work_conservation_over_time(self):
        config = SwitchConfig.contiguous(3, 8)
        surrogate = SrptSurrogate(config, cores=2)
        surrogate.run_slot([pkt(2, 3), pkt(1, 2), pkt(0, 1)])
        for _ in range(5):
            surrogate.run_slot([])
        assert surrogate.metrics.transmitted_packets == 3
        assert surrogate.backlog == 0

    def test_flush_counts(self):
        config = SwitchConfig.contiguous(2, 8)
        surrogate = SrptSurrogate(config, cores=1)
        surrogate.run_slot([pkt(1, 2), pkt(1, 2)])
        assert surrogate.flush() == 2
        assert surrogate.metrics.flushed == 2
        assert surrogate.backlog == 0


class TestMaxValueSurrogate:
    def test_largest_value_first(self):
        config = SwitchConfig.value_contiguous(4, 8)
        surrogate = MaxValueSurrogate(config, cores=1)
        surrogate.run_slot([pkt(0, 1, 1.0), pkt(3, 1, 4.0)])
        assert surrogate.metrics.transmitted_value == 4.0

    def test_push_out_smallest_value(self):
        config = SwitchConfig.value_contiguous(2, 2)
        surrogate = MaxValueSurrogate(config, cores=1)
        surrogate.run_slot([pkt(0, 1, 1.0), pkt(1, 1, 2.0), pkt(1, 1, 4.0)])
        # Arrival order: 1, 2 admitted; 4 evicts the 1.
        assert surrogate.metrics.pushed_out == 1
        assert surrogate.metrics.transmitted_value == 4.0

    def test_drops_equal_value(self):
        config = SwitchConfig.value_contiguous(1, 1)
        surrogate = MaxValueSurrogate(config, cores=1)
        surrogate.run_slot([pkt(0, 1, 2.0), pkt(0, 1, 2.0)])
        assert surrogate.metrics.dropped == 1

    def test_transmits_up_to_cores_per_slot(self):
        config = SwitchConfig.value_contiguous(2, 8)
        surrogate = MaxValueSurrogate(config, cores=3)
        surrogate.run_slot([pkt(0, 1, float(v)) for v in (1, 2, 3, 4)])
        assert surrogate.metrics.transmitted_value == 9.0  # 4 + 3 + 2
        assert surrogate.backlog == 1


class TestFactory:
    def test_by_value_selects_variant(self):
        config = SwitchConfig.value_contiguous(2, 4)
        assert isinstance(make_surrogate(config, by_value=True), MaxValueSurrogate)
        assert isinstance(make_surrogate(config, by_value=False), SrptSurrogate)
