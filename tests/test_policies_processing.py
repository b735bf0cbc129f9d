"""Tests for the processing-model push-out policies (LQD, BPD, BPD1, LWD)."""

from repro.core.config import SwitchConfig
from repro.core.switch import SharedMemorySwitch
from repro.policies.processing import BPD, BPD1, LQD, LWD

from conftest import AcceptAll, pkt


def saturated_switch(config, layout):
    """Build a switch whose queues hold the given numbers of packets.

    ``layout`` maps port -> count; each packet has the port's work.
    """
    switch = SharedMemorySwitch(config)
    policy = AcceptAll()
    for port, count in layout.items():
        for _ in range(count):
            switch.offer(pkt(port, config.work_of(port)), policy)
    return switch


class TestLQD:
    def test_greedy_while_space(self):
        config = SwitchConfig.contiguous(4, 12)
        switch = SharedMemorySwitch(config)
        decision = switch.offer(pkt(0, 1), LQD())
        assert switch.occupancy == 1

    def test_pushes_longest_queue(self):
        config = SwitchConfig.contiguous(4, 12)
        switch = saturated_switch(config, {0: 8, 1: 4})
        switch.offer(pkt(2, 3), LQD())
        assert len(switch.queues[0]) == 7
        assert len(switch.queues[2]) == 1
        assert switch.occupancy == 12

    def test_drops_when_own_queue_longest(self):
        config = SwitchConfig.contiguous(4, 12)
        switch = saturated_switch(config, {0: 8, 1: 4})
        switch.offer(pkt(0, 1), LQD())
        assert len(switch.queues[0]) == 8
        assert switch.metrics.dropped == 1

    def test_virtual_arrival_counts_toward_own_queue(self):
        # Own queue at 6 + the arrival = 7 beats the other queue at 6,
        # and LQD refuses to push out its own queue: drop.
        config = SwitchConfig.contiguous(2, 12)
        switch = saturated_switch(config, {0: 6, 1: 6})
        switch.offer(pkt(0, 1), LQD())
        assert switch.metrics.dropped == 1

    def test_tie_broken_by_largest_work(self):
        config = SwitchConfig.contiguous(3, 12)
        switch = saturated_switch(config, {0: 6, 2: 6})
        switch.offer(pkt(1, 2), LQD())
        # Ports 0 and 2 tie at length 6; the tie goes to port 2 (work 3).
        assert len(switch.queues[2]) == 5
        assert len(switch.queues[0]) == 6


class TestBPD:
    def test_pushes_biggest_work_queue(self):
        config = SwitchConfig.contiguous(4, 12)
        switch = saturated_switch(config, {0: 6, 3: 6})
        switch.offer(pkt(1, 2), BPD())
        assert len(switch.queues[3]) == 5
        assert len(switch.queues[1]) == 1

    def test_drops_heavier_arrival(self):
        # Buffer full of work-1 packets; a work-4 arrival must be dropped
        # (arrival is "after" the biggest nonempty queue in sorted order).
        config = SwitchConfig.contiguous(4, 12)
        switch = saturated_switch(config, {0: 12})
        switch.offer(pkt(3, 4), BPD())
        assert switch.metrics.dropped == 1
        assert len(switch.queues[0]) == 12

    def test_equal_work_arrival_still_accepted(self):
        # i == j is allowed by the paper's "i <= j" condition: the arrival
        # replaces its own queue's tail.
        config = SwitchConfig.contiguous(2, 4)
        switch = saturated_switch(config, {1: 4})
        switch.offer(pkt(1, 2), BPD())
        assert len(switch.queues[1]) == 4
        assert switch.metrics.pushed_out == 1
        assert switch.metrics.accepted == 5

    def test_prefers_queue_with_larger_work_even_if_shorter(self):
        config = SwitchConfig.contiguous(4, 12)
        switch = saturated_switch(config, {0: 11, 3: 1})
        switch.offer(pkt(0, 1), BPD())
        # The single work-4 packet goes, not a work-1 packet.
        assert len(switch.queues[3]) == 0
        assert len(switch.queues[0]) == 12


class TestBPD1:
    def test_never_empties_a_queue(self):
        config = SwitchConfig.contiguous(4, 12)
        switch = saturated_switch(config, {0: 11, 3: 1})
        switch.offer(pkt(0, 1), BPD1())
        # Queue 3 holds its last packet, so the victim is queue 0 itself.
        assert len(switch.queues[3]) == 1

    def test_victim_is_biggest_queue_with_two_packets(self):
        config = SwitchConfig.contiguous(4, 12)
        switch = saturated_switch(config, {0: 6, 2: 5, 3: 1})
        switch.offer(pkt(0, 1), BPD1())
        assert len(switch.queues[2]) == 4
        assert len(switch.queues[3]) == 1

    def test_drops_when_no_eligible_victim(self):
        # Every queue holds exactly one packet and the buffer is full.
        config = SwitchConfig.contiguous(4, 4)
        switch = saturated_switch(config, {0: 1, 1: 1, 2: 1, 3: 1})
        switch.offer(pkt(0, 1), BPD1())
        assert switch.metrics.dropped == 1


class TestLWD:
    def test_pushes_longest_work_queue(self):
        # Queue 0: 6 x work 1 (W = 6); queue 3: 2 x work 4 (W = 8).
        config = SwitchConfig.contiguous(4, 8)
        switch = saturated_switch(config, {0: 6, 3: 2})
        switch.offer(pkt(1, 2), LWD())
        assert len(switch.queues[3]) == 1
        assert len(switch.queues[1]) == 1

    def test_work_beats_length(self):
        # Queue 0 is much longer but lighter; LWD targets queue 3.
        config = SwitchConfig.contiguous(4, 12)
        switch = saturated_switch(config, {0: 9, 3: 3})  # W = 9 vs 12
        switch.offer(pkt(0, 1), LWD())
        assert len(switch.queues[3]) == 2
        assert len(switch.queues[0]) == 10

    def test_drops_when_own_virtual_work_maximal(self):
        # W_0 = 8, W_3 with virtual arrival = 4 + 4 = 8; tie broken to the
        # larger work (port 3 = arrival's own queue) -> drop.
        config = SwitchConfig.contiguous(4, 9)
        switch = saturated_switch(config, {0: 8, 3: 1})
        switch.offer(pkt(3, 4), LWD())
        assert switch.metrics.dropped == 1

    def test_counts_residual_not_nominal_work(self):
        # After partial processing the head's residual shrinks; LWD must
        # use residual work when picking its victim.
        config = SwitchConfig.from_works((4, 5), 4)
        switch = SharedMemorySwitch(config)
        policy = AcceptAll()
        switch.offer(pkt(0, 4), policy)
        switch.offer(pkt(0, 4), policy)
        switch.offer(pkt(1, 5), policy)
        # Process three slots: W_0 = 8 - 3 = 5, W_1 = 5 - 3 = 2.
        for _ in range(3):
            switch.transmission_phase()
        switch.offer(pkt(1, 5), policy)  # fill the buffer (4 packets)
        switch.offer(pkt(1, 5), LWD())
        # Virtual W_1 = 2 + 5 + 5 = 12 > W_0 = 5 -> own queue maximal: drop.
        assert switch.metrics.dropped == 1

    def test_emulates_lqd_under_uniform_work(self):
        config_u = SwitchConfig.uniform(3, 9, work=2)
        arrivals = [pkt(i % 3, 2) for i in range(20)]
        lwd_switch = SharedMemorySwitch(config_u)
        lqd_switch = SharedMemorySwitch(config_u)
        for p in arrivals:
            lwd_switch.offer(p, LWD())
            lqd_switch.offer(p, LQD())
        assert [len(q) for q in lwd_switch.queues] == [
            len(q) for q in lqd_switch.queues
        ]


class TestTheorem6BurstShape:
    def test_lwd_keeps_half_the_light_packets(self):
        """The key step of Theorem 6: after the burst B x [1], B/4 x [2],
        B/6 x [3], B/12 x [6], LWD retains exactly B/2 work-1 packets and
        all heavier packets, equalizing total work at B/2 per queue."""
        b = 48
        config = SwitchConfig.from_works((1, 2, 3, 6), b)
        switch = SharedMemorySwitch(config)
        policy = LWD()
        arrivals = (
            [pkt(0, 1)] * b
            + [pkt(1, 2)] * (b // 4)
            + [pkt(2, 3)] * (b // 6)
            + [pkt(3, 6)] * (b // 12)
        )
        switch.arrival_phase(arrivals, policy)
        assert len(switch.queues[0]) == b // 2
        assert len(switch.queues[1]) == b // 4
        assert len(switch.queues[2]) == b // 6
        assert len(switch.queues[3]) == b // 12
        assert all(q.total_work == b // 2 for q in switch.queues)
