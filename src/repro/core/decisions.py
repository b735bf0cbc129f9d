"""Admission decisions returned by buffer-management policies.

During the arrival phase the switch asks its policy what to do with each
arriving packet; the answer is a :class:`Decision`:

* ``ACCEPT`` — enqueue the packet at its destination queue (requires a free
  buffer slot).
* ``DROP`` — reject the arriving packet.
* ``PUSH_OUT`` — drop the *tail* packet of ``victim_port``'s queue to make
  room, then enqueue the arriving packet at its own destination queue. In
  the paper's terminology the tail packet is "the last packet" of the
  victim queue: the most recent arrival for FIFO queues, the lowest-value
  packet for value-model priority queues.

The ``STAT_*`` names say which switch statistic a threshold policy's
rule reads; the vectorized engine dispatches on them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Action(enum.Enum):
    """The three possible outcomes of an admission decision."""

    ACCEPT = "accept"
    DROP = "drop"
    PUSH_OUT = "push_out"


@dataclass(frozen=True, slots=True)
class Decision:
    """A policy's verdict for one arriving packet.

    Use the :data:`ACCEPT`/:data:`DROP` singletons or
    :func:`push_out` rather than constructing instances directly.
    """

    action: Action
    victim_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action is Action.PUSH_OUT and self.victim_port is None:
            raise ValueError("PUSH_OUT decision requires a victim port")
        if self.action is not Action.PUSH_OUT and self.victim_port is not None:
            raise ValueError(f"{self.action} decision cannot carry a victim")


#: Singleton decision: accept the arriving packet (buffer must have space).
ACCEPT = Decision(Action.ACCEPT)

#: Singleton decision: drop the arriving packet.
DROP = Decision(Action.DROP)


def push_out(victim_port: int) -> Decision:
    """Decision: drop the tail of ``victim_port``'s queue, then accept."""
    return Decision(Action.PUSH_OUT, victim_port)


#: The switch statistic a :class:`~repro.policies.base.ThresholdPolicy`
#: rule reads besides the arrival's own queue length ``own``:
#:
#: * ``STAT_CAP`` — none: a static per-port cap
#:   (:class:`~repro.policies.base.StaticThresholdPolicy`).
#: * ``STAT_FREE`` — the free (shared) buffer space.
#: * ``STAT_LONGER`` — how many queues are strictly longer than ``own``.
#: * ``STAT_AT_LEAST`` — ``(count, total length)`` of the queues at least
#:   ``own`` long, the arrival's own included.
#: * ``STAT_WORK_AT_LEAST`` — the same over total residual work, with
#:   ``own`` the arrival's queue work.
STAT_CAP = "cap"
STAT_FREE = "free"
STAT_LONGER = "longer"
STAT_AT_LEAST = "at_least"
STAT_WORK_AT_LEAST = "work_at_least"
