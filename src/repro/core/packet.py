"""Packet model for the shared-memory switch.

A packet in this model is unit-sized (it always occupies exactly one slot of
the shared buffer) and carries three labels:

* ``port`` — the destination output port (0-based index into the switch's
  output queues; the paper uses 1-based labels).
* ``work`` — the number of processing cycles required before the packet can
  be transmitted (Section III of the paper). In the heterogeneous-value
  model of Section IV every packet has ``work == 1``.
* ``value`` — the intrinsic value of the packet (Section IV). In the
  heterogeneous-processing model of Section III every packet has
  ``value == 1.0`` and throughput counts packets.

``residual`` tracks the remaining work of an *admitted* packet and is the
only mutable field during a simulation. Traces are reused across policy
runs, so the engine never mutates trace packets directly — it admits a
:meth:`Packet.fresh_copy` instead.

``opt_accept`` is an optional clairvoyant annotation used by adversarial
traces: the lower-bound proofs in the paper prescribe an explicit admission
plan for OPT, and :class:`repro.opt.scripted.ScriptedPolicy` replays these
tags verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from repro.core.errors import TraceError
from repro.core.hotpath import hot_path

_PACKET_SEQ = count()


@dataclass(slots=True)
class Packet:
    """A unit-sized packet with a destination port, required work and value.

    Parameters
    ----------
    port:
        Destination output port, 0-based.
    work:
        Required processing cycles, ``>= 1``.
    value:
        Intrinsic value, ``> 0``.
    arrival_slot:
        The time slot during whose arrival phase this packet arrives.
    opt_accept:
        Optional clairvoyant admission tag for scripted OPT replays
        (``None`` when the trace carries no OPT plan).
    seq:
        A process-unique sequence number; assigned automatically and used
        only for debugging and stable identity in tests.
    residual:
        Remaining work. Initialized to ``work`` and decremented by the
        switch during transmission phases.
    """

    port: int
    work: int = 1
    value: float = 1.0
    arrival_slot: int = 0
    opt_accept: Optional[bool] = None
    seq: int = field(default_factory=lambda: next(_PACKET_SEQ))
    residual: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.port < 0:
            raise TraceError(f"packet port must be >= 0, got {self.port}")
        if self.work < 1:
            raise TraceError(f"packet work must be >= 1, got {self.work}")
        if not self.value > 0:
            raise TraceError(f"packet value must be > 0, got {self.value}")
        if self.residual < 0:
            self.residual = self.work

    @property
    def is_done(self) -> bool:
        """Whether the packet has received all its required processing."""
        return self.residual == 0

    @hot_path
    def fresh_copy(self) -> "Packet":
        """Return a copy with full residual work and a new sequence number.

        The switch admits fresh copies so that a single trace can be
        replayed against many policies without cross-contaminating
        residual work. Each admitted copy is a distinct packet entity —
        a trace template may arrive many times (repeated adversarial
        rounds), and per-packet instrumentation such as the Theorem 7
        mapping checker must be able to tell the admissions apart.

        The copy skips ``__init__``/``__post_init__`` re-validation: the
        template already passed it, and this runs once per admitted
        packet on the simulation hot path.
        """
        clone = object.__new__(Packet)
        clone.port = self.port
        clone.work = self.work
        clone.value = self.value
        clone.arrival_slot = self.arrival_slot
        clone.opt_accept = self.opt_accept
        clone.seq = next(_PACKET_SEQ)
        clone.residual = self.work
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "" if self.opt_accept is None else f" opt={self.opt_accept}"
        return (
            f"Packet(seq={self.seq}, port={self.port}, work={self.work}, "
            f"value={self.value}, residual={self.residual}, "
            f"slot={self.arrival_slot}{tag})"
        )
