"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import SwitchConfig
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch


@pytest.fixture
def proc_config() -> SwitchConfig:
    """A small contiguous processing-model switch: works 1..4, B = 12."""
    return SwitchConfig.contiguous(4, 12)


@pytest.fixture
def value_config() -> SwitchConfig:
    """A small value-model switch: port values 1..4, B = 12."""
    return SwitchConfig.value_contiguous(4, 12)


@pytest.fixture
def proc_switch(proc_config) -> SharedMemorySwitch:
    return SharedMemorySwitch(proc_config)


@pytest.fixture
def value_switch(value_config) -> SharedMemorySwitch:
    return SharedMemorySwitch(value_config)


def pkt(port: int, work: int = 1, value: float = 1.0, slot: int = 0) -> Packet:
    """Terse packet constructor for tests."""
    return Packet(port=port, work=work, value=value, arrival_slot=slot)


def fill_switch(switch: SharedMemorySwitch, policy, packets) -> None:
    """Offer a list of packets through one arrival phase."""
    switch.arrival_phase(packets, policy)


class AcceptAll:
    """Trivial test policy: accept whenever there is room, else drop."""

    name = "accept-all"
    is_push_out = False

    def admit(self, view, packet):
        from repro.core.decisions import ACCEPT, DROP

        return ACCEPT if not view.is_full else DROP
