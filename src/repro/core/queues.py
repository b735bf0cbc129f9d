"""Output queues of the shared-memory switch.

Two disciplines are implemented, matching the two models of the paper:

* :class:`FifoQueue` — first-in-first-out, used in the heterogeneous-
  processing model (Section III). All packets in a queue require the same
  work, so FIFO is sufficient and the *tail* (push-out victim) is simply
  the most recent arrival.

* :class:`ValuePriorityQueue` — non-increasing value order, used in the
  heterogeneous-value model (Section IV). The head (next packet to
  transmit) is the most valuable admitted packet; the tail (push-out
  victim) is the least valuable one. Among equal values, older packets sit
  closer to the head, i.e. ties break FIFO.

Both queues maintain O(1) aggregates (length, total residual work, total
value, minimum value) that the policies consult on every arrival; keeping
them incremental is what makes long simulated runs cheap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from collections import deque
from itertools import islice
from typing import Iterator, List

from repro.core.errors import PolicyError, TraceError
from repro.core.hotpath import hot_path
from repro.core.packet import Packet


class OutputQueue(ABC):
    """Common interface of one output queue.

    The queue stores admitted packets between the buffer-management policy
    (which appends and evicts) and the transmission phase (which processes
    heads). Position 0 is the head of line.
    """

    __slots__ = ("port", "_total_work", "_total_value")

    def __init__(self, port: int) -> None:
        self.port = port
        self._total_work = 0
        self._total_value = 0.0

    # -- mutation -------------------------------------------------------

    @abstractmethod
    def admit(self, packet: Packet) -> None:
        """Insert an admitted packet at its discipline-defined position."""

    @abstractmethod
    def drop_tail(self) -> Packet:
        """Remove and return the tail packet (the push-out victim)."""

    @abstractmethod
    def process(self, cores: int) -> List[Packet]:
        """Run one transmission phase with ``cores`` per-queue cores.

        Each of the first ``min(cores, len(self))`` packets receives one
        processing cycle; packets whose residual work reaches zero are
        removed from the head and returned in transmission order.
        """

    @abstractmethod
    def clear(self) -> List[Packet]:
        """Remove and return all packets (used by periodic flushouts)."""

    # -- inspection ------------------------------------------------------

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __iter__(self) -> Iterator[Packet]:
        """Iterate packets from head of line to tail."""

    @abstractmethod
    def peek_head(self) -> Packet: ...

    @abstractmethod
    def peek_tail(self) -> Packet: ...

    @property
    def total_work(self) -> int:
        """Sum of residual work over queued packets (the paper's ``W_i``)."""
        return self._total_work

    @property
    def total_value(self) -> float:
        """Sum of values over queued packets."""
        return self._total_value

    @property
    def avg_value(self) -> float:
        """Average value in the queue (the paper's ``a_j``, used by MRD).

        Raises :class:`PolicyError` on an empty queue: the MRD rule is only
        defined over non-empty queues.
        """
        n = len(self)
        if n == 0:
            raise PolicyError(f"avg_value of empty queue {self.port}")
        return self._total_value / n

    @property
    def min_value(self) -> float:
        """Smallest packet value currently in the queue."""
        if len(self) == 0:
            raise PolicyError(f"min_value of empty queue {self.port}")
        return min(p.value for p in self)

    def _on_insert(self, packet: Packet) -> None:
        if packet.residual <= 0:
            raise TraceError(
                f"admitting packet with residual {packet.residual}; "
                "admit fresh copies only"
            )
        self._total_work += packet.residual
        self._total_value += packet.value

    def _on_remove(self, packet: Packet) -> None:
        self._total_work -= packet.residual
        self._total_value -= packet.value


class FifoQueue(OutputQueue):
    """FIFO output queue for the heterogeneous-processing model."""

    __slots__ = ("_items",)

    def __init__(self, port: int) -> None:
        super().__init__(port)
        self._items: deque[Packet] = deque()

    @hot_path
    def admit(self, packet: Packet) -> None:
        self._on_insert(packet)
        self._items.append(packet)

    @hot_path
    def drop_tail(self) -> Packet:
        if not self._items:
            raise PolicyError(f"push-out from empty queue {self.port}")
        victim = self._items.pop()
        self._on_remove(victim)
        return victim

    @hot_path
    def process(self, cores: int) -> List[Packet]:
        if cores < 1:
            raise PolicyError(f"process() needs cores >= 1, got {cores}")
        active = min(cores, len(self._items))
        for packet in islice(self._items, active):
            packet.residual -= 1
        self._total_work -= active
        done: List[Packet] = []
        while self._items and self._items[0].residual == 0:
            packet = self._items.popleft()
            self._total_value -= packet.value
            done.append(packet)
        return done

    def clear(self) -> List[Packet]:
        dropped = list(self._items)
        self._items.clear()
        self._total_work = 0
        self._total_value = 0.0
        return dropped

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._items)

    def peek_head(self) -> Packet:
        if not self._items:
            raise PolicyError(f"peek_head of empty queue {self.port}")
        return self._items[0]

    def peek_tail(self) -> Packet:
        if not self._items:
            raise PolicyError(f"peek_tail of empty queue {self.port}")
        return self._items[-1]


class ValuePriorityQueue(OutputQueue):
    """Value-ordered output queue for the heterogeneous-value model.

    Internally the packets are kept in a list sorted by ascending value, so
    that the *head of line* (most valuable packet) is the last element and
    the *tail* (least valuable, the push-out victim) is the first element.
    New packets are inserted with :func:`bisect.bisect_left` on the value,
    which places a new packet to the tail side of equal-valued older
    packets: equal values transmit in FIFO order and evict in LIFO order.
    """

    __slots__ = ("_items", "_values")

    def __init__(self, port: int) -> None:
        super().__init__(port)
        self._items: List[Packet] = []
        # Parallel list of values, kept sorted ascending, for O(log n)
        # insertion position lookup without key extraction on every probe.
        self._values: List[float] = []

    @hot_path
    def admit(self, packet: Packet) -> None:
        self._on_insert(packet)
        pos = bisect_left(self._values, packet.value)
        self._items.insert(pos, packet)
        self._values.insert(pos, packet.value)

    @hot_path
    def drop_tail(self) -> Packet:
        if not self._items:
            raise PolicyError(f"push-out from empty queue {self.port}")
        victim = self._items.pop(0)
        self._values.pop(0)
        self._on_remove(victim)
        return victim

    @hot_path
    def process(self, cores: int) -> List[Packet]:
        if cores < 1:
            raise PolicyError(f"process() needs cores >= 1, got {cores}")
        items = self._items
        length = len(items)
        active = min(cores, length)
        if active == 0:
            return []
        for idx in range(length - active, length):
            items[idx].residual -= 1
        self._total_work -= active
        # Every served packet that completes leaves, head first: at
        # C > 1 a packet overtaken in service by a more valuable
        # arrival can complete below an unfinished head.
        done: List[Packet] = []
        for idx in range(length - 1, length - active - 1, -1):
            if items[idx].residual == 0:
                packet = items.pop(idx)
                self._values.pop(idx)
                self._total_value -= packet.value
                done.append(packet)
        return done

    def clear(self) -> List[Packet]:
        dropped = list(reversed(self._items))
        self._items.clear()
        self._values.clear()
        self._total_work = 0
        self._total_value = 0.0
        return dropped

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Packet]:
        """Head (most valuable) to tail (least valuable)."""
        return iter(reversed(self._items))

    def peek_head(self) -> Packet:
        if not self._items:
            raise PolicyError(f"peek_head of empty queue {self.port}")
        return self._items[-1]

    def peek_tail(self) -> Packet:
        if not self._items:
            raise PolicyError(f"peek_tail of empty queue {self.port}")
        return self._items[0]

    @property
    def min_value(self) -> float:
        if not self._items:
            raise PolicyError(f"min_value of empty queue {self.port}")
        return self._values[0]
