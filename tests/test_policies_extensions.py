"""Tests for the extension policies (NHDT-W, LWD1, MRD1, Random)."""

from repro.core.config import SwitchConfig
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.policies import make_policy
from repro.policies.extensions import LWD1, MRD1, NHDTW, RandomPushOut

from conftest import AcceptAll, pkt


def saturated(config, layout):
    switch = SharedMemorySwitch(config)
    policy = AcceptAll()
    for port, count in layout.items():
        for _ in range(count):
            switch.offer(pkt(port, config.work_of(port)), policy)
    return switch


class TestNHDTW:
    def test_registered(self):
        assert isinstance(make_policy("NHDT-W"), NHDTW)

    def test_throttles_work_heavy_queue(self):
        # Queue 3 (work 4) with 3 packets carries W = 12; queue 0 (work 1)
        # with 3 packets carries W = 3. NHDT-W must allow queue 0 to grow
        # beyond queue 3's cap.
        config = SwitchConfig.contiguous(4, 16)
        switch = SharedMemorySwitch(config)
        policy = NHDTW()
        heavy_accepted = 0
        for _ in range(16):
            decision = switch.offer(pkt(3, 4), policy)
        heavy_accepted = len(switch.queues[3])
        light_accepted = 0
        for _ in range(16):
            switch.offer(pkt(0, 1), policy)
        light_accepted = len(switch.queues[0])
        assert light_accepted > heavy_accepted

    def test_never_pushes_out(self):
        config = SwitchConfig.contiguous(4, 12)
        switch = SharedMemorySwitch(config)
        policy = NHDTW()
        for i in range(40):
            switch.offer(pkt(i % 4, (i % 4) + 1), policy)
        assert switch.metrics.pushed_out == 0

    def test_beats_nhdt_on_heavy_first_burst(self):
        """The NHDT pathology (Theorem 3): heavy classes arriving first
        eat the harmonic budget. NHDT-W caps them by work and keeps more
        room for the work-1 packets."""
        config = SwitchConfig.contiguous(8, 64)
        arrivals = [pkt(7, 8)] * 64 + [pkt(0, 1)] * 64
        ones_kept = {}
        for name in ("NHDT", "NHDT-W"):
            switch = SharedMemorySwitch(config)
            switch.arrival_phase(arrivals, make_policy(name))
            ones_kept[name] = len(switch.queues[0])
        assert ones_kept["NHDT-W"] >= ones_kept["NHDT"]

    def test_reduces_nhdt_lower_bound_blowup(self):
        """On the Theorem 3 adversarial trace, NHDT-W's measured ratio
        should undercut NHDT's."""
        from repro.analysis.competitive import measure_competitive_ratio
        from repro.traffic.adversarial import thm3_nhdt

        scenario = thm3_nhdt(k=16, buffer_size=480, rounds=1)
        ratios = {}
        for name in ("NHDT", "NHDT-W"):
            ratios[name] = measure_competitive_ratio(
                make_policy(name), scenario.trace, scenario.config,
                by_value=False, opt="scripted",
            ).ratio
        assert ratios["NHDT-W"] < ratios["NHDT"]


class TestLWD1:
    def test_spares_singletons(self):
        # Queue 3 holds one heavy packet (W = 4); queue 0 nine light ones
        # (W = 9). LWD targets queue 0 here anyway; make queue 3 heaviest
        # to see the difference.
        config = SwitchConfig.contiguous(4, 10)
        switch = saturated(config, {0: 9, 3: 1})
        switch.offer(pkt(1, 2), LWD1())
        assert len(switch.queues[3]) == 1  # protected singleton
        assert len(switch.queues[0]) == 8  # next-best victim

    def test_matches_lwd_when_victims_are_long(self):
        config = SwitchConfig.contiguous(4, 12)
        arrivals = [pkt(i % 4, (i % 4) + 1) for i in range(30)]
        a = SharedMemorySwitch(config)
        b = SharedMemorySwitch(config)
        lwd1, lwd = LWD1(), make_policy("LWD")
        for p in arrivals:
            a.offer(p, lwd1)
            b.offer(p, lwd)
        # With every queue multi-packet the two coincide on this input.
        assert [len(q) for q in a.queues] == [len(q) for q in b.queues]

    def test_drops_when_only_singletons(self):
        config = SwitchConfig.contiguous(4, 4)
        switch = saturated(config, {0: 1, 1: 1, 2: 1, 3: 1})
        switch.offer(pkt(0, 1), LWD1())
        assert switch.metrics.dropped == 1


class TestMRD1:
    def test_spares_singletons(self):
        config = SwitchConfig.value_contiguous(3, 6)
        switch = SharedMemorySwitch(config)
        policy = AcceptAll()
        # Queue 0: five cheap packets; queue 1: one single cheap packet.
        for _ in range(5):
            switch.offer(Packet(port=0, work=1, value=1.0), policy)
        switch.offer(Packet(port=1, work=1, value=1.0), policy)
        switch.offer(Packet(port=2, work=1, value=5.0), MRD1())
        assert len(switch.queues[1]) == 1
        assert len(switch.queues[0]) == 4

    def test_drops_without_eligible_victim(self):
        config = SwitchConfig.value_contiguous(3, 3)
        switch = SharedMemorySwitch(config)
        policy = AcceptAll()
        for port in range(3):
            switch.offer(Packet(port=port, work=1, value=1.0), policy)
        switch.offer(Packet(port=0, work=1, value=9.0), MRD1())
        assert switch.metrics.dropped == 1

    def test_still_requires_value_improvement(self):
        config = SwitchConfig.value_contiguous(2, 4)
        switch = SharedMemorySwitch(config)
        policy = AcceptAll()
        for _ in range(4):
            switch.offer(Packet(port=0, work=1, value=3.0), policy)
        switch.offer(Packet(port=1, work=1, value=2.0), MRD1())
        assert switch.metrics.dropped == 1


class TestRandomPushOut:
    def test_greedy_while_space(self):
        config = SwitchConfig.contiguous(3, 6)
        switch = SharedMemorySwitch(config)
        policy = RandomPushOut(seed=1)
        for i in range(6):
            switch.offer(pkt(i % 3, (i % 3) + 1), policy)
        assert switch.occupancy == 6
        assert switch.metrics.dropped == 0

    def test_deterministic_given_seed(self):
        config = SwitchConfig.contiguous(3, 6)
        arrivals = [pkt(i % 3, (i % 3) + 1) for i in range(30)]
        outcomes = []
        for _ in range(2):
            switch = SharedMemorySwitch(config)
            policy = RandomPushOut(seed=7)
            for p in arrivals:
                switch.offer(p, policy)
            outcomes.append([len(q) for q in switch.queues])
        assert outcomes[0] == outcomes[1]

    def test_drops_when_own_queue_is_only_candidate(self):
        config = SwitchConfig.contiguous(2, 2)
        switch = saturated(config, {0: 2})
        switch.offer(pkt(0, 1), RandomPushOut(seed=0))
        assert switch.metrics.dropped == 1

    def test_worse_than_lwd_on_bursty_traffic(self):
        from repro.analysis.competitive import measure_competitive_ratio
        from repro.traffic.workloads import processing_workload

        config = SwitchConfig.contiguous(8, 64)
        trace = processing_workload(
            config, 1000, load=3.0, seed=3,
            mean_on_slots=20, mean_off_slots=1980,
        )
        lwd = measure_competitive_ratio(
            make_policy("LWD"), trace, config, by_value=False,
            flush_every=400,
        ).ratio
        random_ratio = measure_competitive_ratio(
            RandomPushOut(seed=0), trace, config, by_value=False,
            flush_every=400,
        ).ratio
        assert lwd <= random_ratio
