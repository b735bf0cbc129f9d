"""Edge-case tests for engine behaviours not covered elsewhere."""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import SwitchConfig
from repro.core.errors import TraceError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.policies import make_policy

from conftest import AcceptAll


class TestValueModelSpeedup:
    def test_queue_transmits_up_to_c_per_slot(self):
        config = SwitchConfig.value_contiguous(2, 8, speedup=3)
        switch = SharedMemorySwitch(config)
        policy = AcceptAll()
        for v in (1.0, 2.0, 3.0, 4.0):
            switch.offer(Packet(port=0, work=1, value=v), policy)
        done = switch.transmission_phase()
        assert sorted(p.value for p in done) == [2.0, 3.0, 4.0]
        assert switch.occupancy == 1

    def test_speedup_applies_per_queue(self):
        config = SwitchConfig.value_contiguous(2, 8, speedup=2)
        switch = SharedMemorySwitch(config)
        policy = AcceptAll()
        for port in (0, 0, 0, 1, 1, 1):
            switch.offer(Packet(port=port, work=1, value=1.0), policy)
        done = switch.transmission_phase()
        assert len(done) == 4  # two per queue


class TestMinimalConfigurations:
    def test_single_port_single_slot_buffer(self):
        config = SwitchConfig.uniform(1, 1, work=2)
        switch = SharedMemorySwitch(config)
        policy = make_policy("LWD")
        switch.offer(Packet(port=0, work=2), policy)
        switch.offer(Packet(port=0, work=2), policy)  # full: own queue max
        assert switch.metrics.dropped == 1
        assert switch.transmission_phase() == []
        assert len(switch.transmission_phase()) == 1

    def test_b_equals_n(self):
        config = SwitchConfig.contiguous(3, 3)
        switch = SharedMemorySwitch(config)
        policy = make_policy("LQD")
        for port in range(3):
            switch.offer(
                Packet(port=port, work=port + 1), policy
            )
        assert switch.occupancy == 3
        # Full with singletons; LQD pushes the longest (any, all len 1
        # with the arrival's own queue reaching virtual 2 -> drop).
        switch.offer(Packet(port=0, work=1), policy)
        assert switch.occupancy == 3


class TestArrivalValidation:
    def test_work_mismatch_rejected_even_mid_burst(self):
        config = SwitchConfig.contiguous(2, 4)
        switch = SharedMemorySwitch(config)
        with pytest.raises(TraceError):
            switch.arrival_phase(
                [Packet(port=0, work=1), Packet(port=1, work=5)],
                AcceptAll(),
            )
        # The valid prefix was applied before the error.
        assert switch.occupancy == 1


class TestScriptedFeasibilityThroughRunner:
    def test_infeasible_plan_surfaces_from_measure(self):
        from repro.analysis.competitive import measure_competitive_ratio
        from repro.traffic.trace import Trace, burst

        config = SwitchConfig.contiguous(2, 2)
        trace = Trace()
        trace.append_slot(
            burst(0, port=0, count=4, work=1, opt_accept_first=4)
        )
        with pytest.raises(TraceError):
            measure_competitive_ratio(
                make_policy("LWD"), trace, config, opt="scripted"
            )


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=1, max_value=9), min_size=1, max_size=12
    )
)
def test_mvd1_never_empties_queues(values):
    """MVD1's defining property under arbitrary single-port-value floods:
    a queue that ever held a packet keeps at least one until it
    transmits."""
    config = SwitchConfig.value_contiguous(3, 4)
    switch = SharedMemorySwitch(config)
    policy = make_policy("MVD1")
    touched = set()
    for idx, value in enumerate(values):
        port = idx % 3
        before = {
            p: len(switch.queues[p]) for p in range(3)
        }
        switch.offer(Packet(port=port, work=1, value=float(value)), policy)
        touched.add(port) if len(switch.queues[port]) else None
        for p in range(3):
            if before[p] >= 1:
                # Push-outs may shrink a queue but never to zero.
                assert len(switch.queues[p]) >= 1
