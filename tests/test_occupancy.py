"""Tests for the buffer-sharing (occupancy) analysis."""

import pytest

from repro.analysis.competitive import PolicySystem, run_system
from repro.analysis.occupancy import compare_sharing, occupancy_profile
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.trace import Trace, burst
from repro.traffic.workloads import processing_workload


@pytest.fixture(scope="module")
def setup():
    config = SwitchConfig.contiguous(6, 48)
    trace = processing_workload(config, 1200, load=3.0, seed=8)
    return config, trace


class TestProfileMechanics:
    def test_empty_trace_rejected(self):
        config = SwitchConfig.contiguous(2, 4)
        with pytest.raises(ConfigError):
            occupancy_profile(make_policy("LWD"), Trace(), config)

    def test_single_port_flood(self):
        config = SwitchConfig.contiguous(2, 4)
        trace = Trace()
        trace.append_slot(burst(0, port=0, count=10, work=1))
        for _ in range(3):
            trace.append_slot()
        profile = occupancy_profile(make_policy("LWD"), trace, config)
        # Only port 0 ever holds packets.
        assert profile.mean_occupancy_by_port[1] == 0.0
        assert profile.sharing_index == pytest.approx(0.5)  # 1/n, n=2

    def test_utilization_bounds(self, setup):
        config, trace = setup
        profile = occupancy_profile(make_policy("LWD"), trace, config)
        assert 0.0 <= profile.utilization <= 1.0
        assert profile.slots == trace.n_slots

    def test_port_churn_applies(self):
        # Port 1 goes down at slot 2: its buffered packets are
        # reclaimed and its later arrivals dropped, so the profile
        # agrees with the replay's own occupancy integral.
        config = SwitchConfig.contiguous(2, 8)
        trace = Trace(
            [burst(slot, port=1, count=3, work=2) for slot in range(10)]
        )
        trace.add_port_event(2, 1, False)
        policy = make_policy("LQD")
        profile = occupancy_profile(policy, trace, config)
        metrics = run_system(PolicySystem(config, make_policy("LQD")), trace)
        assert (metrics.accepted, metrics.dropped) == (6, 24)
        assert profile.mean_occupancy_by_port == [0.0, 0.8]
        assert profile.mean_total_occupancy == metrics.mean_occupancy

    def test_summary(self, setup):
        config, trace = setup
        profile = occupancy_profile(make_policy("NEST"), trace, config)
        assert "utilization" in profile.summary()


class TestSharingSpectrum:
    def test_push_out_utilizes_more_than_partitioning(self, setup):
        """The paper's complete-sharing-vs-partitioning trade-off: the
        greedy push-out policies keep the buffer fuller than NEST."""
        config, trace = setup
        profiles = {
            p.policy_name: p
            for p in compare_sharing(("LWD", "NEST"), trace, config)
        }
        assert (
            profiles["LWD"].utilization > profiles["NEST"].utilization
        )

    def test_nest_shares_evenly(self, setup):
        config, trace = setup
        profiles = {
            p.policy_name: p
            for p in compare_sharing(("NEST", "BPD"), trace, config)
        }
        # NEST's per-port caps keep shares more even than BPD's
        # heavy-class eviction.
        assert (
            profiles["NEST"].sharing_index
            > profiles["BPD"].sharing_index
        )

    def test_lwd_occupancy_tracks_inverse_work(self, setup):
        """LWD equalizes *work* per queue, so packet-count shares should
        decay with the port's per-packet work."""
        config, trace = setup
        profile = occupancy_profile(make_policy("LWD"), trace, config)
        shares = profile.shares
        # Lightest port holds more packets than the heaviest.
        assert shares[0] > shares[-1]
