"""Tests for the single-queue substrate and the architecture comparison."""

import pytest

from repro.analysis.competitive import run_system
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.experiments.architecture import run_architecture_comparison
from repro.singlequeue import SingleQueueSystem
from repro.traffic.trace import Trace


def pkt(port=0, work=1, slot=0):
    return Packet(port=port, work=work, arrival_slot=slot)


@pytest.fixture
def config():
    return SwitchConfig.contiguous(4, 8)


class TestSingleQueuePQ:
    def test_serves_smallest_work_first(self, config):
        system = SingleQueueSystem(config, discipline="pq", cores=1)
        done = system.run_slot([pkt(3, 4), pkt(0, 1)])
        # The work-1 packet was dispatched first and completed.
        assert len(done) == 1
        assert done[0].work == 1

    def test_run_to_completion_blocks_core(self, config):
        # One core busy on a work-4 packet must not be preempted by a
        # later work-1 arrival; the small packet waits.
        system = SingleQueueSystem(config, discipline="pq", cores=1)
        system.run_slot([pkt(3, 4)])
        done = system.run_slot([pkt(0, 1)])
        assert done == []  # core still held by the work-4 packet
        # The heavy packet finishes first (run-to-completion), then the
        # light one gets the core and completes one slot later.
        completions = []
        for _ in range(4):
            completions.extend(system.run_slot([]))
        assert [p.work for p in completions] == [4, 1]

    def test_push_out_largest_waiting(self, config):
        system = SingleQueueSystem(config, discipline="pq", cores=1)
        # Fill the buffer: 1 in service + 7 waiting.
        system.run_slot([pkt(3, 4)] * 8)
        assert system.backlog == 8
        system.run_slot([pkt(0, 1)])
        assert system.metrics.pushed_out == 1
        assert system.metrics.accepted == 9

    def test_never_pushes_out_in_service(self, config):
        system = SingleQueueSystem(config, discipline="pq", cores=8)
        system.run_slot([pkt(3, 4)] * 8)  # all 8 on cores
        system.run_slot([pkt(0, 1)])
        # Buffer is full of in-service packets; nothing evictable.
        assert system.metrics.dropped == 1

    def test_drops_when_not_smaller(self, config):
        system = SingleQueueSystem(config, discipline="pq", cores=1)
        system.run_slot([pkt(0, 1)] * 8)
        system.run_slot([pkt(0, 1)])
        # After one slot: 7 buffered (one transmitted); greedy accept.
        assert system.metrics.dropped == 0
        system.run_slot([pkt(3, 4), pkt(3, 4)])
        # Buffer back to full with a work-4 beyond capacity: drop.
        assert system.metrics.dropped >= 1


class TestSingleQueueFifo:
    def test_arrival_order_service(self, config):
        system = SingleQueueSystem(config, discipline="fifo", cores=1)
        done = system.run_slot([pkt(3, 4), pkt(0, 1)])
        assert done == []  # work-4 holds the core
        for _ in range(3):
            system.run_slot([])
        assert system.metrics.transmitted_by_port[3] == 1

    def test_never_pushes_out(self, config):
        system = SingleQueueSystem(config, discipline="fifo", cores=1)
        for _ in range(3):
            system.run_slot([pkt(0, 1)] * 6)
        assert system.metrics.pushed_out == 0

    def test_unknown_discipline(self, config):
        with pytest.raises(ConfigError):
            SingleQueueSystem(config, discipline="lifo")


class TestFlushSemantics:
    def test_flush_spares_in_service(self, config):
        system = SingleQueueSystem(config, discipline="pq", cores=2)
        system.run_slot([pkt(3, 4)] * 6)
        flushed = system.flush()
        assert flushed == 4  # 2 on cores survive
        assert system.backlog == 2


class TestRunSystem:
    """``run_system`` drives the single queue like any other system:
    idle stretches are fast-forwarded, flushouts inside them skipped,
    and the drain runs empty slots until the buffer empties."""

    FLUSH_EVERY = 7
    DRAIN_SLOTS = 40

    @pytest.mark.parametrize("discipline", ["pq", "fifo"])
    def test_replay_equals_hand_stepped_loop(self, config, discipline):
        # Each burst empties within a few slots, so the flushouts at
        # slots 14, 35 and 42 fall inside idle stretches on an empty
        # buffer; the last burst leaves a backlog for the drain.
        bursts = {
            0: [pkt(3, 4), pkt(1, 2), pkt(0, 1)] * 3,
            1: [pkt(2, 3)] * 4,
            20: [pkt(3, 4)] * 6 + [pkt(0, 1)] * 4,
            27: [pkt(1, 2)] * 3,
            45: [pkt(3, 4)] * 5 + [pkt(2, 3)] * 5,
        }
        trace = Trace(
            [
                [pkt(p.port, p.work, slot) for p in bursts.get(slot, [])]
                for slot in range(48)
            ]
        )
        replayed = SingleQueueSystem(config, discipline=discipline, cores=2)
        skipped = []
        fast_forward = replayed.fast_forward

        def spy(n_slots):
            skipped.append(n_slots)
            fast_forward(n_slots)

        replayed.fast_forward = spy
        run_system(
            replayed,
            trace,
            flush_every=self.FLUSH_EVERY,
            drain_slots=self.DRAIN_SLOTS,
        )

        stepped = SingleQueueSystem(config, discipline=discipline, cores=2)
        for slot, burst in enumerate(trace.slots):
            stepped.run_slot(burst)
            if (slot + 1) % self.FLUSH_EVERY == 0:
                stepped.flush()
        drained = 0
        while stepped.backlog and drained < self.DRAIN_SLOTS:
            stepped.run_slot([])
            drained += 1

        assert sum(skipped) > 20, "idle stretches should be skipped"
        assert drained > 0 and replayed.backlog == stepped.backlog == 0
        assert replayed.current_slot == stepped.current_slot
        assert replayed.metrics.snapshot() == stepped.metrics.snapshot()

    def test_fast_forward_requires_empty_buffer(self, config):
        system = SingleQueueSystem(config, discipline="pq", cores=1)
        system.fast_forward(3)
        assert system.current_slot == system.metrics.slots_elapsed == 3
        system.run_slot([pkt(3, 4)])
        with pytest.raises(ConfigError):
            system.fast_forward(1)


class TestArchitectureComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_architecture_comparison(
            k=8, buffer_size=64, n_slots=1500, load=3.0, seed=0
        )

    def test_single_queue_pq_has_best_throughput(self, result):
        """The paper: PQ is throughput-optimal in the single queue."""
        assert result.totals["SQ-PQ"] == max(result.totals.values())

    def test_single_queue_pq_starves_heavy_classes(self, result):
        """The paper's complaint: heavy classes get (almost) nothing."""
        assert result.min_acceptance("SQ-PQ") < 0.02

    def test_shared_memory_lwd_serves_every_class(self, result):
        assert result.min_acceptance("SM-LWD") > 0.05

    def test_heavy_class_delay_explodes_under_pq(self, result):
        services = result.per_class["SQ-PQ"]
        # Light packets fly through; heavy ones wait (or never finish).
        assert services[0].mean_delay < 2.0

    def test_table_renders(self, result):
        table = result.format_table()
        assert "SQ-PQ" in table and "starvation ratio" in table
        assert "w=8" in table
