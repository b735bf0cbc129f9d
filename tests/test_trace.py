"""Tests for the trace representation and serialization."""

import pytest

from repro.core.config import SwitchConfig
from repro.core.errors import TraceError
from repro.core.packet import Packet
from repro.traffic.trace import Trace, burst


def pkt(port, work=1, value=1.0, slot=0):
    return Packet(port=port, work=work, value=value, arrival_slot=slot)


def fields(packet):
    return (
        packet.port,
        packet.work,
        packet.value,
        packet.arrival_slot,
        packet.opt_accept,
    )


class TestConstruction:
    def test_append_and_len(self):
        trace = Trace()
        trace.append_slot([pkt(0)])
        trace.append_slot()
        assert trace.n_slots == 2
        assert trace.total_packets == 1

    def test_extend(self):
        a = Trace([[pkt(0)]])
        b = Trace([[pkt(1, 2)], []])
        a.extend(b)
        assert a.n_slots == 3
        assert a.total_packets == 2

    def test_repeated(self):
        trace = Trace([[pkt(0)], []])
        tripled = trace.repeated(3)
        assert tripled.n_slots == 6
        assert tripled.total_packets == 3
        # Original untouched.
        assert trace.n_slots == 2

    def test_repeated_invalid(self):
        with pytest.raises(TraceError):
            Trace().repeated(0)

    def test_padded(self):
        trace = Trace([[pkt(0)]])
        padded = trace.padded(4)
        assert padded.n_slots == 5
        assert trace.n_slots == 1


class TestInspection:
    def test_packets_in_arrival_order(self):
        a, b, c = pkt(0), pkt(1, 2), pkt(0, slot=1)
        trace = Trace([[a, b], [c]])
        # The packets are a view built from the columns: same fields,
        # new objects.
        assert list(map(fields, trace.packets())) == list(
            map(fields, [a, b, c])
        )

    def test_equality_compares_content(self):
        assert Trace([[Packet(port=0)]]) == Trace([[Packet(port=0)]])
        assert Trace([[pkt(0)]]) != Trace([[pkt(1)]])
        assert Trace([[pkt(0)]]) != Trace([[pkt(0)], []])
        assert Trace([[pkt(0)]]) != Trace([[pkt(0, slot=3)]])
        assert Trace([[Packet(port=0, opt_accept=True)]]) != Trace(
            [[Packet(port=0)]]
        )
        churn = Trace([[pkt(0)]])
        churn.add_port_event(0, 0, False)
        assert churn != Trace([[pkt(0)]])

    def test_stats(self):
        trace = Trace([[pkt(0, 1, 2.0), pkt(1, 3, 1.0)], []])
        stats = trace.stats()
        assert stats["n_slots"] == 2
        assert stats["total_packets"] == 2
        assert stats["mean_burst"] == 1.0
        assert stats["max_work"] == 3
        assert stats["total_value"] == 3.0

    def test_per_port_counts(self):
        trace = Trace([[pkt(0), pkt(0), pkt(2, 3)]])
        assert trace.per_port_counts(3) == [2, 0, 1]

    def test_per_port_counts_out_of_range(self):
        trace = Trace([[pkt(5)]])
        with pytest.raises(TraceError):
            trace.per_port_counts(3)


class TestValidation:
    def test_validate_against_config(self):
        config = SwitchConfig.contiguous(3, 6)
        trace = Trace([[pkt(0, 1), pkt(2, 3)]])
        trace.validate_for(config)  # should not raise

    def test_validate_rejects_bad_port(self):
        config = SwitchConfig.contiguous(2, 4)
        trace = Trace([[pkt(5)]])
        with pytest.raises(TraceError):
            trace.validate_for(config)

    def test_validate_rejects_work_mismatch(self):
        config = SwitchConfig.contiguous(3, 6)
        trace = Trace([[pkt(0, 2)]])  # port 0 requires work 1
        with pytest.raises(TraceError):
            trace.validate_for(config)

    def test_value_model_skips_work_check(self):
        config = SwitchConfig.value_contiguous(2, 4)
        trace = Trace([[pkt(0, 1, value=7.5)]])
        trace.validate_for(config)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        trace = Trace(
            [
                [pkt(0, 1, 2.0), pkt(1, 3, 1.0)],
                [],
                [Packet(port=0, work=1, opt_accept=True)],
            ]
        )
        path = tmp_path / "trace.jsonl"
        trace.dump_jsonl(path)
        loaded = Trace.load_jsonl(path)
        assert loaded.n_slots == 3
        assert loaded.total_packets == 3
        first = loaded.slots[0][0]
        assert (first.port, first.work, first.value) == (0, 1, 2.0)
        assert loaded.slots[2][0].opt_accept is True
        assert loaded.slots[0][0].opt_accept is None

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            Trace.load_jsonl(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('[{"port": 0}]\n\n')
        loaded = Trace.load_jsonl(path)
        assert loaded.total_packets == 1


class TestBurstHelper:
    def test_builds_identical_packets(self):
        packets = burst(2, port=1, count=3, work=2, value=4.0)
        assert len(packets) == 3
        assert all(p.port == 1 and p.work == 2 and p.value == 4.0 for p in packets)
        assert all(p.arrival_slot == 2 for p in packets)

    def test_opt_tags_prefix(self):
        packets = burst(0, port=0, count=4, opt_accept_first=2)
        assert [p.opt_accept for p in packets] == [True, True, False, False]

    def test_tag_count_validated(self):
        with pytest.raises(TraceError):
            burst(0, port=0, count=2, opt_accept_first=3)

    def test_negative_count_rejected(self):
        with pytest.raises(TraceError):
            burst(0, port=0, count=-1)
