"""Array-backed OPT surrogates, decision-identical to the ``bisect`` ones.

The reference surrogates (:mod:`repro.opt.surrogate`) keep one sorted
list of :class:`~repro.core.packet.Packet` objects and, per slot,
decrement a prefix (SRPT) or pop a suffix (MaxValue). At paper scale the
per-packet ``fresh_copy`` + ``insort`` + per-core prefix decrement
dominate the sweep's ``opt_run`` stage. These variants keep the same
logical single queue as flat columns and replace the per-core decrement
with O(completions) bookkeeping:

* :class:`VectorizedSrptSurrogate` partitions the sorted-by-residual
  queue at position ``cores`` into an *active* pool — stored as
  absolute completion ticks (``tick + residual``), so advancing one
  phase tick decrements every active packet at once — and a *waiting*
  pool stored as residuals (which do not change while waiting). The
  boundary is maintained exactly: inserts, evictions, completions, and
  promotions all preserve the order the reference's single sorted list
  would have, including ``bisect``'s placement of equal keys, so every
  admit/push-out/drop decision and every completion order match the
  reference bit for bit.

* :class:`VectorizedMaxValueSurrogate` keeps the ascending value column
  with a head pointer; eviction consumes the head, transmission pops
  the tail — no packet objects, no key lambdas.

Both are selected through ``make_surrogate(..., engine="vectorized")``
and expose the same :class:`~repro.opt.surrogate.System` surface plus
``run_slot_columns``, which ingests one slot of a
:class:`~repro.traffic.columnar.ColumnarTrace` without packet
materialization, and the base class's ``run_span`` over it, the
protocol :func:`repro.analysis.competitive.run_system` drives. Like
:class:`~repro.core.columnar.VectorizedSwitch`, ``run_slot`` returns
``[]``: transmissions are accounted in metrics only (the competitive
runner ignores the return value), and admitted entries carry no
sequence numbers. All
decision-relevant and metrics-relevant quantities — counters, per-port
drop/transmit splits, the float accumulation order of
``transmitted_value`` — are identical to the reference, which the
differential suite (``tests/test_surrogate_vectorized.py``) enforces.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

try:  # pure-stdlib installs fall back to the per-packet loop
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy leg
    np = None  # type: ignore[assignment]

from repro.core.config import SwitchConfig
from repro.core.errors import TraceError
from repro.core.hotpath import hot_path
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet

__all__ = ["VectorizedSrptSurrogate", "VectorizedMaxValueSurrogate"]

#: Head regions shorter than this are not worth compacting away.
_COMPACT_MIN = 512

#: Bursts at or below this size skip the vector filter: slicing,
#: comparing, and bincounting a handful of packets costs more than the
#: per-packet loop it replaces.
_BATCH_MIN = 32


class _ColumnSurrogate:
    """Shared surface of the two vectorized surrogate variants."""

    #: Handshake read by :func:`repro.analysis.competitive.run_system`:
    #: when set, ``run_span`` is fed the trace's cached
    #: int64/float64 arrays (:meth:`~repro.traffic.columnar.
    #: ColumnarTrace.array_columns`) instead of the canonical lists,
    #: which enables the batched congested-path filter below.
    prefers_array_columns = True

    def __init__(
        self, config: SwitchConfig, cores: Optional[int] = None
    ) -> None:
        """``cores`` defaults to the paper's ``n * C``."""
        self.config = config
        self.cores = (
            cores if cores is not None else config.n_ports * config.speedup
        )
        if self.cores < 1:
            raise TraceError(f"surrogate needs >= 1 core, got {self.cores}")
        self.buffer_size = config.buffer_size
        self.metrics = SwitchMetrics(n_ports=config.n_ports)
        self._port_up: List[bool] = [True] * config.n_ports
        self._n_down = 0

    @property
    def backlog(self) -> int:
        raise NotImplementedError

    def flush(self) -> int:
        raise NotImplementedError

    def fast_forward(self, n_slots: int) -> None:
        """Advance over ``n_slots`` idle slots (empty buffer required)."""
        if self.backlog:
            raise TraceError(
                f"fast_forward with {self.backlog} buffered packets"
            )
        self.metrics.record_idle_slots(n_slots)

    def set_port_state(self, port: int, up: bool) -> int:
        """Admin-up/down ``port``; returns the packets reclaimed.

        Mirrors :meth:`repro.opt.surrogate._SinglePQSurrogate.
        set_port_state`: buffered packets destined to a down port are
        removed (order-preserving, so the sort invariants survive) and
        accounted as flushed.
        """
        if not 0 <= port < self.config.n_ports:
            raise TraceError(
                f"port-state event for port {port}, switch has "
                f"{self.config.n_ports} ports"
            )
        up = bool(up)
        if up == self._port_up[port]:
            state = "up" if up else "down"
            raise TraceError(f"port {port} is already {state}")
        if up:
            self._port_up[port] = True
            self._n_down -= 1
            return 0
        self._port_up[port] = False
        self._n_down += 1
        removed = self._reclaim_port(port)
        if removed:
            self.metrics.flushed += removed
        return removed

    def _reclaim_port(self, port: int) -> int:
        """Remove every buffered packet for ``port``; return the count."""
        raise NotImplementedError

    def run_slot_columns(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
    ) -> List[Packet]:
        raise NotImplementedError

    def run_span(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        offsets: Sequence[int],
        s0: int,
        s1: int,
    ) -> int:
        """Run the trace slots ``[s0, s1)``, slot ``s`` being the column
        span ``[offsets[s], offsets[s + 1])``; returns the first slot
        not run. Like :meth:`repro.core.columnar.VectorizedSwitch.
        run_span` it stops at an arrival-free slot that starts on an
        empty buffer, which the caller fast-forwards."""
        run_slot_columns = self.run_slot_columns
        hi = offsets[s0]
        for s in range(s0, s1):
            lo = hi
            hi = offsets[s + 1]
            if lo == hi and not self.backlog:
                return s
            run_slot_columns(ports, works, values, arrivals, lo, hi)
        return s1


class VectorizedSrptSurrogate(_ColumnSurrogate):
    """Processing-model surrogate over an expiry-calendar partition.

    Logical state is the reference's single list sorted ascending by
    residual, split at position ``min(cores, len)``:

    * active pool — ``_act_exp`` holds absolute completion ticks
      (``tick + residual``), ``_act_rec`` the ``(port, value)``
      payloads, live region from ``_ah``. Sorted by tick; a phase is
      ``tick += 1`` plus popping heads whose tick arrived.
    * waiting pool — ``_wait_res`` holds residuals (constant while
      waiting), ``_wait_rec`` payloads, live region from ``_wh``.

    Invariant: the waiting pool is non-empty only while the active pool
    holds exactly ``cores`` packets, and concatenating active (as
    residuals ``exp - tick``) with waiting reproduces the reference
    list order exactly.
    """

    def __init__(
        self, config: SwitchConfig, cores: Optional[int] = None
    ) -> None:
        super().__init__(config, cores)
        self._tick = 0
        self._act_exp: List[int] = []
        self._act_rec: List[Tuple[int, float]] = []
        self._ah = 0
        self._wait_res: List[int] = []
        self._wait_rec: List[Tuple[int, float]] = []
        self._wh = 0
        # Maintained occupancy counter: computing the backlog from the
        # four pool bounds costs four ``len`` calls, and the admit path
        # reads it per packet. Accept +1, completion -1, push-out 0.
        self._size = 0

    @property
    def backlog(self) -> int:
        return self._size

    def flush(self) -> int:
        dropped = self._size
        self.metrics.flushed += dropped
        self._act_exp.clear()
        self._act_rec.clear()
        self._ah = 0
        self._wait_res.clear()
        self._wait_rec.clear()
        self._wh = 0
        self._size = 0
        return dropped

    def _reclaim_port(self, port: int) -> int:
        """Filter both pools, then restore the active/waiting boundary.

        Order-preserving removal keeps each pool sorted and keeps the
        concatenation (active residuals, then waiting) equal to the
        reference's filtered single list. Removals can leave the active
        pool short of ``cores`` while the waiting pool is non-empty, so
        waiting heads re-promote exactly as after a completion — the
        appended ticks are >= every surviving active tick.
        """
        act_exp = self._act_exp
        act_rec = self._act_rec
        keep = [
            j
            for j in range(self._ah, len(act_exp))
            if act_rec[j][0] != port
        ]
        removed = len(act_exp) - self._ah - len(keep)
        act_exp = [act_exp[j] for j in keep]
        act_rec = [act_rec[j] for j in keep]
        wait_res = self._wait_res
        wait_rec = self._wait_rec
        wkeep = [
            j
            for j in range(self._wh, len(wait_res))
            if wait_rec[j][0] != port
        ]
        removed += len(wait_res) - self._wh - len(wkeep)
        wait_res = [wait_res[j] for j in wkeep]
        wait_rec = [wait_rec[j] for j in wkeep]
        promote = min(self.cores - len(act_exp), len(wait_res))
        if promote > 0:
            tick = self._tick
            act_exp.extend(tick + res for res in wait_res[:promote])
            act_rec.extend(wait_rec[:promote])
            del wait_res[:promote]
            del wait_rec[:promote]
        self._act_exp = act_exp
        self._act_rec = act_rec
        self._ah = 0
        self._wait_res = wait_res
        self._wait_rec = wait_rec
        self._wh = 0
        self._size -= removed
        return removed

    @hot_path
    def _insert(self, residual: int, port: int, value: float) -> None:
        """Place one packet where the reference's ``insort`` would.

        ``bisect_right`` over the active ticks mirrors ``insort`` over
        the global residual list: when the key ties across the
        active/waiting boundary the active-side probe lands past the
        active tail, deferring to the waiting-side probe — exactly the
        reference's after-all-equals placement.
        """
        act_exp = self._act_exp
        ah = self._ah
        key = self._tick + residual
        if len(act_exp) - ah < self.cores:
            pos = bisect_right(act_exp, key, ah)
            act_exp.insert(pos, key)
            self._act_rec.insert(pos, (port, value))
            return
        pos = bisect_right(act_exp, key, ah)
        if pos < len(act_exp):
            # Belongs inside the active window: the previous active
            # tail (the largest active residual) demotes to the front
            # of the waiting pool, preserving the global order.
            act_exp.insert(pos, key)
            self._act_rec.insert(pos, (port, value))
            demoted_res = act_exp.pop() - self._tick
            demoted_rec = self._act_rec.pop()
            wh = self._wh
            if wh > 0:
                wh -= 1
                self._wait_res[wh] = demoted_res
                self._wait_rec[wh] = demoted_rec
                self._wh = wh
            else:
                self._wait_res.insert(0, demoted_res)
                self._wait_rec.insert(0, demoted_rec)
        else:
            wpos = bisect_right(self._wait_res, residual, self._wh)
            self._wait_res.insert(wpos, residual)
            self._wait_rec.insert(wpos, (port, value))

    @hot_path
    def _admit_fields(self, port: int, work: int, value: float) -> None:
        metrics = self.metrics
        if self._size < self.buffer_size:
            self._insert(work, port, value)
            self._size += 1
            metrics.accepted += 1
            return
        # Push out the largest-residual packet when the arrival is
        # strictly smaller; the global tail is the waiting tail when
        # the waiting pool is non-empty, else the active tail.
        lw = len(self._wait_res) - self._wh
        if self._size:
            if lw:
                victim_res = self._wait_res[-1]
            else:
                victim_res = self._act_exp[-1] - self._tick
            if victim_res > work:
                if lw:
                    self._wait_res.pop()
                    victim_port = self._wait_rec.pop()[0]
                else:
                    self._act_exp.pop()
                    victim_port = self._act_rec.pop()[0]
                metrics.pushed_out += 1
                metrics.dropped_by_port[victim_port] += 1
                self._insert(work, port, value)
                metrics.accepted += 1
                return
        metrics.dropped += 1
        metrics.dropped_by_port[port] += 1

    @hot_path
    def _transmit(self) -> None:
        """One phase: advance the tick, complete, refill from waiting.

        Completions pop from the active head in pool order — the same
        order the reference pops zero-residual heads — so the float
        accumulation order of ``transmitted_value`` matches exactly.
        Promoted packets enter with their full residual: the reference
        decrements only the first ``cores`` positions, and a promotion
        happens only after a completion freed one of those positions.
        """
        tick = self._tick + 1
        self._tick = tick
        act_exp = self._act_exp
        act_rec = self._act_rec
        ah = self._ah
        metrics = self.metrics
        end = len(act_exp)
        if ah < end and act_exp[ah] == tick:
            tx_by_port = metrics.transmitted_by_port
            txv_by_port = metrics.transmitted_value_by_port
            done = 0
            while ah < end and act_exp[ah] == tick:
                port, value = act_rec[ah]
                metrics.transmitted_value += value
                tx_by_port[port] += 1
                txv_by_port[port] += value
                ah += 1
                done += 1
            metrics.transmitted_packets += done
            self._size -= done
            self._ah = ah
            # Refill the freed active positions from the waiting head;
            # appending keeps the pool sorted (every waiting residual
            # is >= every active one, and the waiting pool ascends).
            wait_res = self._wait_res
            wait_rec = self._wait_rec
            wh = self._wh
            wend = len(wait_res)
            cores = self.cores
            live = len(act_exp) - ah
            while wh < wend and live < cores:
                act_exp.append(tick + wait_res[wh])
                act_rec.append(wait_rec[wh])
                wh += 1
                live += 1
            self._wh = wh
            if ah > _COMPACT_MIN and ah * 2 > len(act_exp):
                del act_exp[:ah]
                del act_rec[:ah]
                self._ah = 0
            if wh > _COMPACT_MIN and wh * 2 > len(wait_res):
                del wait_res[:wh]
                del wait_rec[:wh]
                self._wh = 0

    def run_slot(self, arrivals: Sequence[Packet]) -> List[Packet]:
        """One slot over packet objects; returns ``[]`` (fast mode)."""
        metrics = self.metrics
        if self._n_down:
            port_up = self._port_up
            dbp = metrics.dropped_by_port
            for packet in arrivals:
                metrics.arrived += 1
                if not port_up[packet.port]:
                    metrics.dropped += 1
                    dbp[packet.port] += 1
                    continue
                self._admit_fields(packet.port, packet.work, packet.value)
        else:
            for packet in arrivals:
                metrics.arrived += 1
                self._admit_fields(packet.port, packet.work, packet.value)
        self._transmit()
        metrics.record_slot(self.backlog)
        return []

    @hot_path
    def run_slot_columns(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
    ) -> List[Packet]:
        """One slot straight from trace columns (span ``[lo, hi)``).

        While any port is down the span takes the exact per-packet
        admit loop with the down filter in front: churn slots are rare
        and the batch filter's full-buffer monotonicity argument does
        not account for engine-level drops.

        With ndarray columns the congested case is batch-filtered.
        Once the buffer is full, the eviction threshold (the largest
        buffered residual) can only *decrease* during a slot's
        admission phase — an accept replaces the maximum with something
        strictly smaller, a drop changes nothing — so any arrival whose
        work is already ``>=`` the threshold at the start of the
        congested stretch is dead on arrival no matter what happens in
        between. Those are counted with one vector compare plus a
        bincount; only the arrivals below the threshold (the ones that
        can actually displace somebody) run the exact sequential admit.
        Every counter lands exactly where the per-packet loop puts it.
        """
        metrics = self.metrics
        m = hi - lo
        metrics.arrived += m
        if self._n_down:
            kp = ports[lo:hi]
            kw = works[lo:hi]
            kv = values[lo:hi]
            if np is not None and isinstance(kw, np.ndarray):
                kp = kp.tolist()
                kw = kw.tolist()
                kv = kv.tolist()
            port_up = self._port_up
            dbp = metrics.dropped_by_port
            for port, work, value in zip(kp, kw, kv):
                if not port_up[port]:
                    metrics.dropped += 1
                    dbp[port] += 1
                    continue
                self._admit_fields(port, work, value)
        elif m and np is not None and isinstance(works, np.ndarray):
            # The whole slot runs on hoisted pool locals: one attribute
            # load per slot instead of several per packet.
            act_exp = self._act_exp
            act_rec = self._act_rec
            wait_res = self._wait_res
            wait_rec = self._wait_rec
            ah = self._ah
            wh = self._wh
            tick = self._tick
            cores = self.cores
            insort = bisect_right
            i = lo
            free = self.buffer_size - self._size
            if free > 0:
                # Room left: the reference accepts unconditionally.
                stop = hi if m <= free else lo + free
                kp = ports[i:stop].tolist()
                kw = works[i:stop].tolist()
                kv = values[i:stop].tolist()
                for port, work, value in zip(kp, kw, kv):
                    # Same branch structure as ``_insert``, on locals.
                    key = tick + work
                    if len(act_exp) - ah < cores:
                        pos = insort(act_exp, key, ah)
                        act_exp.insert(pos, key)
                        act_rec.insert(pos, (port, value))
                    else:
                        pos = insort(act_exp, key, ah)
                        if pos < len(act_exp):
                            act_exp.insert(pos, key)
                            act_rec.insert(pos, (port, value))
                            demoted_res = act_exp.pop() - tick
                            demoted_rec = act_rec.pop()
                            if wh > 0:
                                wh -= 1
                                wait_res[wh] = demoted_res
                                wait_rec[wh] = demoted_rec
                            else:
                                wait_res.insert(0, demoted_res)
                                wait_rec.insert(0, demoted_rec)
                        else:
                            wpos = insort(wait_res, work, wh)
                            wait_res.insert(wpos, work)
                            wait_rec.insert(wpos, (port, value))
                metrics.accepted += stop - lo
                self._size += stop - lo
                i = stop
            if i < hi:
                n_rest = hi - i
                dbp = metrics.dropped_by_port
                if self._size:
                    # Congested stretch: the buffer stays exactly full
                    # (every accept evicts), no completions interleave,
                    # so the whole admit/evict state machine runs on
                    # the hoisted locals with a live threshold.
                    thr = (
                        wait_res[-1]
                        if len(wait_res) - wh
                        else act_exp[-1] - tick
                    )
                    if n_rest > _BATCH_MIN:
                        w = works[i:hi]
                        keep = w < thr
                        kept = np.flatnonzero(keep)
                        nk = len(kept)
                        if nk < n_rest:
                            metrics.dropped += n_rest - nk
                            counts = np.bincount(
                                ports[i:hi][~keep], minlength=len(dbp)
                            )
                            for port in np.flatnonzero(counts).tolist():
                                dbp[port] += int(counts[port])
                        if nk:
                            kp = ports[i:hi][keep].tolist()
                            kw = w[keep].tolist()
                            kv = values[i:hi][keep].tolist()
                        else:
                            kp = kw = kv = ()
                    else:
                        # Small rest: the vector setup costs more than
                        # it saves; the live-threshold loop below is
                        # already exact for unfiltered arrivals.
                        kp = ports[i:hi].tolist()
                        kw = works[i:hi].tolist()
                        kv = values[i:hi].tolist()
                    accepted = 0
                    dropped = 0
                    for port, work, value in zip(kp, kw, kv):
                        if work >= thr:
                            dropped += 1
                            dbp[port] += 1
                            continue
                        # Evict the buffered maximum (strictly
                        # larger): waiting tail, else active tail.
                        if len(wait_res) - wh:
                            wait_res.pop()
                            dbp[wait_rec.pop()[0]] += 1
                        else:
                            act_exp.pop()
                            dbp[act_rec.pop()[0]] += 1
                        accepted += 1
                        # Insert where the reference insort would
                        # (same branch structure as ``_insert``).
                        key = tick + work
                        if len(act_exp) - ah < cores:
                            pos = insort(act_exp, key, ah)
                            act_exp.insert(pos, key)
                            act_rec.insert(pos, (port, value))
                        else:
                            pos = insort(act_exp, key, ah)
                            if pos < len(act_exp):
                                act_exp.insert(pos, key)
                                act_rec.insert(pos, (port, value))
                                demoted_res = act_exp.pop() - tick
                                demoted_rec = act_rec.pop()
                                if wh > 0:
                                    wh -= 1
                                    wait_res[wh] = demoted_res
                                    wait_rec[wh] = demoted_rec
                                else:
                                    wait_res.insert(0, demoted_res)
                                    wait_rec.insert(0, demoted_rec)
                            else:
                                wpos = insort(wait_res, work, wh)
                                wait_res.insert(wpos, work)
                                wait_rec.insert(wpos, (port, value))
                        thr = (
                            wait_res[-1]
                            if len(wait_res) - wh
                            else act_exp[-1] - tick
                        )
                    metrics.accepted += accepted
                    metrics.pushed_out += accepted
                    metrics.dropped += dropped
                else:
                    # B == 0: nothing is ever admitted.
                    metrics.dropped += n_rest
                    counts = np.bincount(ports[i:hi], minlength=len(dbp))
                    for port in np.flatnonzero(counts).tolist():
                        dbp[port] += int(counts[port])
            self._wh = wh
        else:
            for i in range(lo, hi):
                self._admit_fields(ports[i], works[i], values[i])
        self._transmit()
        metrics.record_slot(self.backlog)
        return []


class VectorizedMaxValueSurrogate(_ColumnSurrogate):
    """Value-model surrogate over an ascending value column.

    ``_vals`` ascends; the live region starts at ``_h``. Eviction
    consumes the head (least valuable), transmission pops the tail
    (most valuable first), both matching the reference's pop order.
    """

    def __init__(
        self, config: SwitchConfig, cores: Optional[int] = None
    ) -> None:
        super().__init__(config, cores)
        self._vals: List[float] = []
        self._ports: List[int] = []
        self._h = 0

    @property
    def backlog(self) -> int:
        return len(self._vals) - self._h

    def flush(self) -> int:
        dropped = self.backlog
        self.metrics.flushed += dropped
        self._vals.clear()
        self._ports.clear()
        self._h = 0
        return dropped

    def _reclaim_port(self, port: int) -> int:
        """Filter the value column; order-preserving keeps it ascending."""
        vals = self._vals
        port_col = self._ports
        keep = [
            j for j in range(self._h, len(vals)) if port_col[j] != port
        ]
        removed = len(vals) - self._h - len(keep)
        if removed:
            self._vals = [vals[j] for j in keep]
            self._ports = [port_col[j] for j in keep]
            self._h = 0
        return removed

    @hot_path
    def _admit_fields(self, port: int, value: float) -> None:
        metrics = self.metrics
        vals = self._vals
        h = self._h
        if len(vals) - h < self.buffer_size:
            pos = bisect_right(vals, value, h)
            vals.insert(pos, value)
            self._ports.insert(pos, port)
            metrics.accepted += 1
            return
        if len(vals) - h and vals[h] < value:
            metrics.pushed_out += 1
            metrics.dropped_by_port[self._ports[h]] += 1
            h += 1
            self._h = h
            pos = bisect_right(vals, value, h)
            vals.insert(pos, value)
            self._ports.insert(pos, port)
            metrics.accepted += 1
            return
        metrics.dropped += 1
        metrics.dropped_by_port[port] += 1

    @hot_path
    def _transmit(self) -> None:
        vals = self._vals
        ports = self._ports
        h = self._h
        metrics = self.metrics
        count = len(vals) - h
        active = self.cores if self.cores < count else count
        if active:
            tx_by_port = metrics.transmitted_by_port
            txv_by_port = metrics.transmitted_value_by_port
            for _ in range(active):
                value = vals.pop()
                port = ports.pop()
                metrics.transmitted_value += value
                tx_by_port[port] += 1
                txv_by_port[port] += value
            metrics.transmitted_packets += active
        if h > _COMPACT_MIN and h * 2 > len(vals):
            del vals[:h]
            del ports[:h]
            self._h = 0

    def run_slot(self, arrivals: Sequence[Packet]) -> List[Packet]:
        """One slot over packet objects; returns ``[]`` (fast mode)."""
        metrics = self.metrics
        if self._n_down:
            port_up = self._port_up
            dbp = metrics.dropped_by_port
            for packet in arrivals:
                metrics.arrived += 1
                if not port_up[packet.port]:
                    metrics.dropped += 1
                    dbp[packet.port] += 1
                    continue
                self._admit_fields(packet.port, packet.value)
        else:
            for packet in arrivals:
                metrics.arrived += 1
                self._admit_fields(packet.port, packet.value)
        self._transmit()
        metrics.record_slot(self.backlog)
        return []

    @hot_path
    def run_slot_columns(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
    ) -> List[Packet]:
        """One slot straight from trace columns (span ``[lo, hi)``).

        Mirror image of the SRPT batch filter: once the buffer is full
        the eviction threshold (the *smallest* buffered value) can only
        *increase* during a slot's admission phase, so any arrival
        whose value is already ``<=`` the threshold at the start of the
        congested stretch is dead on arrival. See
        :meth:`VectorizedSrptSurrogate.run_slot_columns`.
        """
        metrics = self.metrics
        m = hi - lo
        metrics.arrived += m
        if self._n_down:
            # Churn fallback: see the SRPT twin.
            kp = ports[lo:hi]
            kv = values[lo:hi]
            if np is not None and isinstance(kv, np.ndarray):
                kp = kp.tolist()
                kv = kv.tolist()
            port_up = self._port_up
            dbp = metrics.dropped_by_port
            for port, value in zip(kp, kv):
                if not port_up[port]:
                    metrics.dropped += 1
                    dbp[port] += 1
                    continue
                self._admit_fields(port, value)
        elif m and np is not None and isinstance(values, np.ndarray):
            i = lo
            vals = self._vals
            port_col = self._ports
            h = self._h
            free = self.buffer_size - (len(vals) - h)
            insort = bisect_right
            if free > 0:
                stop = hi if m <= free else lo + free
                kp = ports[i:stop].tolist()
                kv = values[i:stop].tolist()
                for port, value in zip(kp, kv):
                    pos = insort(vals, value, h)
                    vals.insert(pos, value)
                    port_col.insert(pos, port)
                metrics.accepted += stop - lo
                i = stop
            if i < hi:
                n_rest = hi - i
                dbp = metrics.dropped_by_port
                if len(vals) - h:
                    # Congested stretch, mirrored from the SRPT path:
                    # the buffer stays full, the head (the eviction
                    # threshold) only moves up, everything runs on
                    # hoisted locals.
                    thr = vals[h]
                    if n_rest > _BATCH_MIN:
                        v = values[i:hi]
                        keep = v > thr
                        kept = np.flatnonzero(keep)
                        nk = len(kept)
                        if nk < n_rest:
                            metrics.dropped += n_rest - nk
                            counts = np.bincount(
                                ports[i:hi][~keep], minlength=len(dbp)
                            )
                            for port in np.flatnonzero(counts).tolist():
                                dbp[port] += int(counts[port])
                        if nk:
                            kp = ports[i:hi][keep].tolist()
                            kv = v[keep].tolist()
                        else:
                            kp = kv = ()
                    else:
                        # Small rest: see the SRPT twin.
                        kp = ports[i:hi].tolist()
                        kv = values[i:hi].tolist()
                    accepted = 0
                    dropped = 0
                    for port, value in zip(kp, kv):
                        if value <= thr:
                            dropped += 1
                            dbp[port] += 1
                            continue
                        dbp[port_col[h]] += 1
                        h += 1
                        pos = insort(vals, value, h)
                        vals.insert(pos, value)
                        port_col.insert(pos, port)
                        accepted += 1
                        thr = vals[h]
                    metrics.accepted += accepted
                    metrics.pushed_out += accepted
                    metrics.dropped += dropped
                    self._h = h
                else:
                    # B == 0: nothing is ever admitted.
                    metrics.dropped += n_rest
                    counts = np.bincount(ports[i:hi], minlength=len(dbp))
                    for port in np.flatnonzero(counts).tolist():
                        dbp[port] += int(counts[port])
        else:
            for i in range(lo, hi):
                self._admit_fields(ports[i], values[i])
        self._transmit()
        metrics.record_slot(self.backlog)
        return []
