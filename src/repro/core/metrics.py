"""Counters collected while driving a switch through a simulation.

The two objective functions of the paper are both derived from these
counters:

* heterogeneous-processing model — *throughput* = number of transmitted
  packets (:attr:`SwitchMetrics.transmitted_packets`);
* heterogeneous-value model — *total transmitted value*
  (:attr:`SwitchMetrics.transmitted_value`).

Flushed packets (periodic buffer clears, Section V-A of the paper) earn no
credit and are counted separately so runs remain auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.packet import Packet


@dataclass
class SwitchMetrics:
    """Mutable per-run counters for one switch instance."""

    n_ports: int

    arrived: int = 0
    accepted: int = 0
    dropped: int = 0
    pushed_out: int = 0
    flushed: int = 0
    transmitted_packets: int = 0
    transmitted_value: float = 0.0
    slots_elapsed: int = 0

    transmitted_by_port: List[int] = field(default_factory=list)
    transmitted_value_by_port: List[float] = field(default_factory=list)
    dropped_by_port: List[int] = field(default_factory=list)
    delay_sum_by_port: List[int] = field(default_factory=list)
    delay_count_by_port: List[int] = field(default_factory=list)

    # Occupancy integral lets callers compute mean buffer utilization
    # without storing a full time series.
    occupancy_integral: int = 0
    occupancy_peak: int = 0

    def __post_init__(self) -> None:
        if not self.transmitted_by_port:
            self.transmitted_by_port = [0] * self.n_ports
        if not self.transmitted_value_by_port:
            self.transmitted_value_by_port = [0.0] * self.n_ports
        if not self.dropped_by_port:
            self.dropped_by_port = [0] * self.n_ports
        if not self.delay_sum_by_port:
            self.delay_sum_by_port = [0] * self.n_ports
        if not self.delay_count_by_port:
            self.delay_count_by_port = [0] * self.n_ports

    # -- recording hooks (called by the switch) --------------------------

    def record_arrival(self, packet: Packet) -> None:
        self.arrived += 1

    def record_accept(self, packet: Packet) -> None:
        self.accepted += 1

    def record_drop(self, packet: Packet) -> None:
        self.dropped += 1
        self.dropped_by_port[packet.port] += 1

    def record_push_out(self, victim: Packet) -> None:
        self.pushed_out += 1
        self.dropped_by_port[victim.port] += 1

    def record_transmissions(
        self, packets: Iterable[Packet], slot: Optional[int] = None
    ) -> None:
        """Record transmitted packets; with ``slot`` given, also track
        per-port queueing delay (transmission slot minus arrival slot).

        Delay statistics are meaningful only when packet ``arrival_slot``
        fields reflect the replayed timeline (true for generated
        workloads; repeated adversarial rounds reuse within-round slots).
        """
        for packet in packets:
            self.transmitted_packets += 1
            self.transmitted_value += packet.value
            self.transmitted_by_port[packet.port] += 1
            self.transmitted_value_by_port[packet.port] += packet.value
            if slot is not None and slot >= packet.arrival_slot:
                self.delay_sum_by_port[packet.port] += (
                    slot - packet.arrival_slot
                )
                self.delay_count_by_port[packet.port] += 1

    def record_flush(self, packets: Iterable[Packet]) -> None:
        for _ in packets:
            self.flushed += 1

    def record_slot(self, occupancy: int) -> None:
        self.slots_elapsed += 1
        self.occupancy_integral += occupancy
        self.occupancy_peak = max(self.occupancy_peak, occupancy)

    def record_slots(self, n: int, occupancy_sum: int, peak: int) -> None:
        """Account for ``n`` consecutive slots in one step.

        Equivalent to ``n`` calls of ``record_slot`` whose end-of-slot
        occupancies sum to ``occupancy_sum`` and peak at ``peak``. Used
        by the vectorized engine, which records a whole slot span at once.
        """
        self.slots_elapsed += n
        self.occupancy_integral += occupancy_sum
        if peak > self.occupancy_peak:
            self.occupancy_peak = peak

    def record_idle_slots(self, n: int) -> None:
        """Account for ``n`` consecutive empty-buffer slots in one step.

        Equivalent to ``n`` calls of ``record_slot(0)``: the occupancy
        integral gains zero and the peak cannot move, so only the slot
        counter advances. Used by the trace driver's slot fast-forwarding.
        """
        self.slots_elapsed += n

    # -- derived ----------------------------------------------------------

    @property
    def mean_occupancy(self) -> float:
        """Mean end-of-slot buffer occupancy over the run."""
        if self.slots_elapsed == 0:
            return 0.0
        return self.occupancy_integral / self.slots_elapsed

    def mean_delay(self, port: int) -> float:
        """Mean slots between arrival and transmission for ``port``
        (0.0 when nothing with delay tracking transmitted there)."""
        count = self.delay_count_by_port[port]
        if count == 0:
            return 0.0
        return self.delay_sum_by_port[port] / count

    @property
    def loss_rate(self) -> float:
        """Fraction of arrived packets that were dropped or pushed out."""
        if self.arrived == 0:
            return 0.0
        return (self.dropped + self.pushed_out) / self.arrived

    def objective(self, by_value: bool) -> float:
        """The paper's objective: packet count or total transmitted value."""
        if by_value:
            return self.transmitted_value
        return float(self.transmitted_packets)

    def as_dict(self) -> Dict[str, float]:
        """A flat snapshot suitable for CSV rows and logging."""
        return {
            "arrived": self.arrived,
            "accepted": self.accepted,
            "dropped": self.dropped,
            "pushed_out": self.pushed_out,
            "flushed": self.flushed,
            "transmitted_packets": self.transmitted_packets,
            "transmitted_value": self.transmitted_value,
            "slots_elapsed": self.slots_elapsed,
            "mean_occupancy": self.mean_occupancy,
            "occupancy_peak": self.occupancy_peak,
            "loss_rate": self.loss_rate,
        }

    def snapshot(self) -> Dict[str, object]:
        """The *complete* flat export: every counter, including the
        per-port lists and the raw occupancy integral.

        Unlike :meth:`as_dict` (a stable CSV/logging schema of derived
        headline numbers), a snapshot loses no information:
        :meth:`from_snapshot` reconstructs an equal ``SwitchMetrics``,
        which is the round-trip the trace-replay verifier relies on.
        JSON round-trips preserve it exactly (floats serialize via
        ``repr`` and ints stay ints).
        """
        return {
            "n_ports": self.n_ports,
            "arrived": self.arrived,
            "accepted": self.accepted,
            "dropped": self.dropped,
            "pushed_out": self.pushed_out,
            "flushed": self.flushed,
            "transmitted_packets": self.transmitted_packets,
            "transmitted_value": self.transmitted_value,
            "slots_elapsed": self.slots_elapsed,
            "occupancy_integral": self.occupancy_integral,
            "occupancy_peak": self.occupancy_peak,
            "transmitted_by_port": list(self.transmitted_by_port),
            "transmitted_value_by_port": list(
                self.transmitted_value_by_port
            ),
            "dropped_by_port": list(self.dropped_by_port),
            "delay_sum_by_port": list(self.delay_sum_by_port),
            "delay_count_by_port": list(self.delay_count_by_port),
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "SwitchMetrics":
        """Rebuild a ``SwitchMetrics`` equal to the one snapshotted."""
        n_ports = int(data["n_ports"])  # type: ignore[arg-type]
        metrics = cls(n_ports=n_ports)
        for name in (
            "arrived",
            "accepted",
            "dropped",
            "pushed_out",
            "flushed",
            "transmitted_packets",
            "slots_elapsed",
            "occupancy_integral",
            "occupancy_peak",
        ):
            setattr(metrics, name, int(data[name]))  # type: ignore[arg-type]
        metrics.transmitted_value = float(data["transmitted_value"])  # type: ignore[arg-type]
        for name in (
            "transmitted_by_port",
            "dropped_by_port",
            "delay_sum_by_port",
            "delay_count_by_port",
        ):
            values = [int(v) for v in data[name]]  # type: ignore[union-attr]
            if len(values) != n_ports:
                raise ValueError(
                    f"snapshot field {name} has {len(values)} entries "
                    f"for {n_ports} ports"
                )
            setattr(metrics, name, values)
        value_list = [float(v) for v in data["transmitted_value_by_port"]]  # type: ignore[union-attr]
        if len(value_list) != n_ports:
            raise ValueError(
                "snapshot field transmitted_value_by_port has "
                f"{len(value_list)} entries for {n_ports} ports"
            )
        metrics.transmitted_value_by_port = value_list
        return metrics
