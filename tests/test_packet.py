"""Tests for the packet model."""

import pytest

from repro.core.errors import TraceError
from repro.core.packet import Packet


class TestConstruction:
    def test_defaults(self):
        p = Packet(port=0)
        assert p.work == 1
        assert p.value == 1.0
        assert p.residual == 1
        assert p.opt_accept is None

    def test_residual_initialized_from_work(self):
        p = Packet(port=2, work=5)
        assert p.residual == 5

    def test_explicit_residual_preserved(self):
        p = Packet(port=0, work=5, residual=2)
        assert p.residual == 2

    def test_unique_sequence_numbers(self):
        a, b = Packet(port=0), Packet(port=0)
        assert a.seq != b.seq

    def test_negative_port_rejected(self):
        with pytest.raises(TraceError):
            Packet(port=-1)

    def test_zero_work_rejected(self):
        with pytest.raises(TraceError):
            Packet(port=0, work=0)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(TraceError):
            Packet(port=0, value=0.0)
        with pytest.raises(TraceError):
            Packet(port=0, value=-1.0)
        with pytest.raises(TraceError):
            Packet(port=0, value=float("nan"))


class TestLifecycle:
    def test_is_done(self):
        p = Packet(port=0, work=2)
        assert not p.is_done
        p.residual = 0
        assert p.is_done

    def test_fresh_copy_restores_residual(self):
        p = Packet(port=1, work=4, value=2.5, opt_accept=True)
        p.residual = 1
        q = p.fresh_copy()
        assert q.residual == 4
        assert q.port == 1
        assert q.work == 4
        assert q.value == 2.5
        assert q.opt_accept is True
        # The template is untouched.
        assert p.residual == 1

    def test_fresh_copy_gets_new_seq(self):
        # Each admitted copy is a distinct packet entity: a template can
        # arrive many times across repeated adversarial rounds.
        p = Packet(port=0, work=3)
        assert p.fresh_copy().seq != p.seq
        assert p.fresh_copy().seq != p.fresh_copy().seq
