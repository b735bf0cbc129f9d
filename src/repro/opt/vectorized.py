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

Each variant runs a span of slots in one loop, ``run_span`` (the
protocol :func:`repro.analysis.competitive.run_system` drives), over
the list columns of a :class:`~repro.traffic.trace.Trace`. Per slot,
arrivals to admin-down ports are dropped up front, and the rest fill
the buffer, push out its worst packet, or drop against a live eviction
threshold; the transmission phase follows inline. The pools, the
counters and the slot accounting stay in locals and are written once
per span. ``run_span`` is the variants' one slot entry point, and
``check_invariants`` audits the columns between spans, at the
``REPRO_CHECK_INVARIANTS`` cadence of ``run_system``.

Both are selected through ``make_surrogate(..., engine="vectorized")``
and expose the same :class:`~repro.opt.surrogate.System` surface. Like
:class:`~repro.core.columnar.VectorizedSwitch`, they account
transmissions in metrics only, and admitted entries carry no sequence
numbers. All
decision-relevant and metrics-relevant quantities — counters, per-port
drop/transmit splits, the float accumulation order of
``transmitted_value`` — are identical to the reference, which the
differential suite (``tests/test_surrogate_vectorized.py``) enforces.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.core.columnar import drop_down_arrivals
from repro.core.config import SwitchConfig
from repro.core.errors import TraceError
from repro.core.hotpath import hot_path
from repro.core.metrics import SwitchMetrics

__all__ = ["VectorizedSrptSurrogate", "VectorizedMaxValueSurrogate"]

#: Head regions shorter than this are not worth compacting away.
_COMPACT_MIN = 512

_INF = float("inf")


class _ColumnSurrogate:
    """Shared surface of the two vectorized surrogate variants."""

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

    def _check_ports(self, ports: Sequence[int]) -> None:
        """Churn accounting, and every buffered packet (``ports`` are
        their destinations) bound for a valid port that is up."""
        port_up = self._port_up
        assert self._n_down == port_up.count(False), (
            f"down-port count {self._n_down} != {port_up.count(False)}"
        )
        n = len(port_up)
        for port in ports:
            assert 0 <= port < n and port_up[port], (
                f"buffered packet for invalid or admin-down port {port}"
            )

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
        raise NotImplementedError


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

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any pool inconsistency.

        The head pointers lie within their columns and each column pair
        has equal lengths; the live active ticks do not decrease and all
        lie past the phase tick; the live waiting residuals do not
        decrease and none is below the largest active residual; the
        waiting pool holds packets only while ``cores`` are active;
        ``_size`` counts the live packets, at most ``B``; no packet of a
        down port is buffered. ``REPRO_CHECK_INVARIANTS`` runs this
        audit periodically through ``run_system``.
        """
        act_exp = self._act_exp
        wait_res = self._wait_res
        assert len(act_exp) == len(self._act_rec), "active columns skew"
        assert len(wait_res) == len(self._wait_rec), "waiting columns skew"
        assert 0 <= self._ah <= len(act_exp), (
            f"active head {self._ah} outside 0..{len(act_exp)}"
        )
        assert 0 <= self._wh <= len(wait_res), (
            f"waiting head {self._wh} outside 0..{len(wait_res)}"
        )
        active = act_exp[self._ah:]
        waiting = wait_res[self._wh:]
        assert active == sorted(active), "active ticks decrease"
        assert not active or active[0] > self._tick, (
            f"active tick {active[0]} not past the phase tick {self._tick}"
        )
        assert waiting == sorted(waiting), "waiting residuals decrease"
        if waiting:
            assert len(active) == self.cores, (
                f"{len(waiting)} packets wait while only {len(active)} "
                f"of {self.cores} cores are busy"
            )
            assert waiting[0] >= active[-1] - self._tick, (
                f"waiting residual {waiting[0]} below the largest active "
                f"residual {active[-1] - self._tick}"
            )
        size = len(active) + len(waiting)
        assert self._size == size, f"size counter {self._size} != {size}"
        assert size <= self.buffer_size, (
            f"{size} packets buffered, B = {self.buffer_size}"
        )
        self._check_ports(
            [rec[0] for rec in self._act_rec[self._ah:]]
            + [rec[0] for rec in self._wait_rec[self._wh:]]
        )

    @hot_path
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
        """Run the trace slots ``[s0, s1)`` straight from trace columns.

        Admission is the reference's: accept while there is room, else
        push out the largest-residual packet when it is strictly larger
        than the arrival's work, else drop. Once the buffer is full the
        threshold (that largest residual) is kept in a local: a drop
        leaves it unchanged, and it is re-read after each accept that
        leaves the buffer full.

        Each accept is placed where the reference's ``insort`` over the
        global residual list would put it. ``bisect_right`` over the
        active ticks lands past the active tail when the key ties across
        the active/waiting boundary, deferring to the waiting-side
        probe: the reference's after-all-equals placement. A packet that
        belongs inside a full active window demotes the active tail (the
        largest active residual) to the front of the waiting pool.

        A transmission phase advances the tick and completes the active
        heads whose tick arrived, in pool order (the order the reference
        pops zero-residual heads, so ``transmitted_value`` accumulates
        in the same float order). Promoted packets enter with their full
        residual: the reference decrements only the first ``cores``
        positions, and a promotion happens only after a completion freed
        one of those positions. The pools, the counters and the slot
        accounting stay in locals and are written once per span.
        """
        metrics = self.metrics
        dbp = metrics.dropped_by_port
        tx_by_port = metrics.transmitted_by_port
        txv_by_port = metrics.transmitted_value_by_port
        # Port state holds for the whole span: run_system cuts spans at
        # churn-event slots.
        port_up = self._port_up if self._n_down else None
        act_exp = self._act_exp
        act_rec = self._act_rec
        wait_res = self._wait_res
        wait_rec = self._wait_rec
        ah = self._ah
        wh = self._wh
        tick = self._tick
        cores = self.cores
        buffer_size = self.buffer_size
        size = self._size
        insort = bisect_right
        arrived = 0
        accepted = 0
        pushed = 0
        dropped = 0
        txp = 0
        txv = metrics.transmitted_value
        integral = 0
        peak = 0
        hi = offsets[s0]
        for s in range(s0, s1):
            lo = hi
            hi = offsets[s + 1]
            if hi > lo:
                arrived += hi - lo
                cp = ports
                cw = works
                cv = values
                first = lo
                end = hi
                if port_up is not None:
                    cp, cw, cv, _, end = drop_down_arrivals(
                        port_up, metrics, ports, works, values, None, lo, hi
                    )
                    first = 0
                # B == 0 keeps the buffer full and empty: no work is < 0.
                thr = 0
                if size and size == buffer_size:
                    thr = (
                        wait_res[-1] if len(wait_res) - wh
                        else act_exp[-1] - tick
                    )
                for i in range(first, end):
                    work = cw[i]
                    if size < buffer_size:
                        size += 1
                    elif work < thr:
                        # Push out the buffered maximum: the waiting
                        # tail, else the active tail.
                        if len(wait_res) - wh:
                            wait_res.pop()
                            dbp[wait_rec.pop()[0]] += 1
                        else:
                            act_exp.pop()
                            dbp[act_rec.pop()[0]] += 1
                        pushed += 1
                    else:
                        dropped += 1
                        dbp[cp[i]] += 1
                        continue
                    accepted += 1
                    key = tick + work
                    pos = insort(act_exp, key, ah)
                    if pos < len(act_exp) or len(act_exp) - ah < cores:
                        act_exp.insert(pos, key)
                        act_rec.insert(pos, (cp[i], cv[i]))
                        if len(act_exp) - ah > cores:
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
                        wait_rec.insert(wpos, (cp[i], cv[i]))
                    if size == buffer_size:
                        thr = (
                            wait_res[-1] if len(wait_res) - wh
                            else act_exp[-1] - tick
                        )
            elif not size:
                break
            # Transmission phase: advance the tick, complete, refill the
            # freed active positions from the waiting head; appending
            # keeps the pool sorted (every waiting residual is >= every
            # active one, and the waiting pool ascends).
            tick += 1
            end = len(act_exp)
            if ah < end and act_exp[ah] == tick:
                done = 0
                while ah < end and act_exp[ah] == tick:
                    port, value = act_rec[ah]
                    txv += value
                    tx_by_port[port] += 1
                    txv_by_port[port] += value
                    ah += 1
                    done += 1
                txp += done
                size -= done
                wend = len(wait_res)
                live = end - ah
                while wh < wend and live < cores:
                    act_exp.append(tick + wait_res[wh])
                    act_rec.append(wait_rec[wh])
                    wh += 1
                    live += 1
                if ah > _COMPACT_MIN and ah * 2 > len(act_exp):
                    del act_exp[:ah]
                    del act_rec[:ah]
                    ah = 0
                if wh > _COMPACT_MIN and wh * 2 > len(wait_res):
                    del wait_res[:wh]
                    del wait_rec[:wh]
                    wh = 0
            integral += size
            if size > peak:
                peak = size
        else:
            s = s1
        self._ah = ah
        self._wh = wh
        self._tick = tick
        self._size = size
        metrics.record_slots(s - s0, integral, peak)
        metrics.arrived += arrived
        metrics.accepted += accepted
        metrics.pushed_out += pushed
        metrics.dropped += dropped
        metrics.transmitted_packets += txp
        metrics.transmitted_value = txv
        return s


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

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any column inconsistency.

        The head pointer lies within the value column, the live values
        ascend, the port column runs parallel to them, the backlog is
        at most ``B``, and no packet of a down port is buffered.
        ``REPRO_CHECK_INVARIANTS`` runs this audit periodically through
        ``run_system``.
        """
        vals = self._vals
        assert len(self._ports) == len(vals), "value/port columns skew"
        assert 0 <= self._h <= len(vals), (
            f"head {self._h} outside 0..{len(vals)}"
        )
        live = vals[self._h:]
        assert live == sorted(live), "live values do not ascend"
        assert len(live) <= self.buffer_size, (
            f"{len(live)} packets buffered, B = {self.buffer_size}"
        )
        self._check_ports(self._ports[self._h:])

    @hot_path
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
        """Run the trace slots ``[s0, s1)`` straight from trace columns.

        Mirror image of :meth:`VectorizedSrptSurrogate.run_span`: once
        the buffer is full an arrival pushes out the head (the least
        valuable packet, the live threshold) when its value is strictly
        larger, else it is dropped. A transmission phase pops the
        ``min(cores, backlog)`` most valuable packets off the tail.
        """
        metrics = self.metrics
        dbp = metrics.dropped_by_port
        tx_by_port = metrics.transmitted_by_port
        txv_by_port = metrics.transmitted_value_by_port
        # Port state holds for the whole span: run_system cuts spans at
        # churn-event slots.
        port_up = self._port_up if self._n_down else None
        vals = self._vals
        port_col = self._ports
        h = self._h
        cores = self.cores
        buffer_size = self.buffer_size
        insort = bisect_right
        arrived = 0
        accepted = 0
        pushed = 0
        dropped = 0
        txp = 0
        txv = metrics.transmitted_value
        integral = 0
        peak = 0
        size = len(vals) - h
        hi = offsets[s0]
        for s in range(s0, s1):
            lo = hi
            hi = offsets[s + 1]
            if hi > lo:
                arrived += hi - lo
                cp = ports
                cv = values
                first = lo
                end = hi
                if port_up is not None:
                    cp, _w, cv, _, end = drop_down_arrivals(
                        port_up, metrics, ports, works, values, None, lo, hi
                    )
                    first = 0
                # B == 0 keeps the buffer full and empty: nothing
                # exceeds inf.
                thr = _INF
                if size and size == buffer_size:
                    thr = vals[h]
                for i in range(first, end):
                    value = cv[i]
                    if size < buffer_size:
                        size += 1
                    elif value > thr:
                        dbp[port_col[h]] += 1
                        h += 1
                        pushed += 1
                    else:
                        dropped += 1
                        dbp[cp[i]] += 1
                        continue
                    accepted += 1
                    pos = insort(vals, value, h)
                    vals.insert(pos, value)
                    port_col.insert(pos, cp[i])
                    if size == buffer_size:
                        thr = vals[h]
            elif not size:
                break
            # Transmission phase: the min(cores, size) most valuable
            # packets leave, tail first.
            served = cores if cores < size else size
            for _ in range(served):
                value = vals.pop()
                port = port_col.pop()
                txv += value
                tx_by_port[port] += 1
                txv_by_port[port] += value
            txp += served
            size -= served
            if h > _COMPACT_MIN and h * 2 > len(vals):
                del vals[:h]
                del port_col[:h]
                h = 0
            integral += size
            if size > peak:
                peak = size
        else:
            s = s1
        self._h = h
        metrics.record_slots(s - s0, integral, peak)
        metrics.arrived += arrived
        metrics.accepted += accepted
        metrics.pushed_out += pushed
        metrics.dropped += dropped
        metrics.transmitted_packets += txp
        metrics.transmitted_value = txv
        return s
