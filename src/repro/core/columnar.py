"""Vectorized batch-slot switch engine over flat per-port columns.

:class:`VectorizedSwitch` replaces
:class:`repro.core.switch.SharedMemorySwitch` for unobserved replays. It
keeps switch state as struct-of-arrays columns indexed by output port
(queue length, head residual, static work, and on priority queues a
value total) instead of per-packet objects in per-queue containers. The
reference engine stays the *oracle*: for every valid trace the two
engines make the same decisions, tie-breaks included, and reach
identical metrics and buffer contents, which the differential suite
and the golden metrics digests enforce.

Batching structure
------------------
The engine has one way to run slots, :meth:`VectorizedSwitch.run_span`,
which runs consecutive slots of a :class:`~repro.traffic.trace.Trace`,
each slot a column span of the trace.
:func:`repro.analysis.competitive.run_system` cuts a replay into spans
at its flushouts, its invariant checks and its churn-event slots. A
span binds the policy's kernel, then the transmission state, once, and
keeps the per-slot metrics in locals until it ends. The arrival
kernels are generators: a span creates its policy's kernel once,
which loads the trace columns, the per-port columns and the policy's
bind-time state, and each slot with arrivals is one ``send`` of the
slot index, after which the kernel re-reads only the state a slot
changes (the occupancy, the slot, the calendar tick and its own
victim structures). Port state holds for a span, so the kernel knows
once whether it must filter arrivals to down ports. A span stops
early at an arrival-free slot that starts on an empty buffer, which
``run_system`` fast-forwards, skipping any flushout inside the idle
stretch exactly as the reference replay does.

The arrival phase is processed per slot as one batch. While the buffer
has free space every push-out policy is greedy (``PushOutPolicy.admit``
returns ``ACCEPT`` without consulting ``congested``), so the leading
run of a burst that fits in the free space is bulk-accepted without a
policy call. Once the buffer is full, victim selection for the paper's
processing-model policies reduces to an argmax over per-port aggregate
columns; three specialized kernels evaluate it in O(1)-ish time per
arrival using integer victim codes with the tie-break baked in:

* **LQD** — per-length rank bitsets: ``masks[L]`` holds a bitmask of
  the *static ranks* of ports at queue length ``L``; the running
  maximum ``(maxl, topr)`` is the victim key ``(|Q_j|, w_j, j)``.
* **LWD** — a sorted list of integer codes ``(W_j + off) * n + r_j``
  whose order equals the lexicographic ``(W_j, w_j, j)`` order. The
  ``off`` counter absorbs the uniform one-unit work decrement every
  active queue receives per transmission phase, so codes stay valid
  without per-slot rewrites.
* **BPD / BPD₁** — a single bitmask of the static ranks of the ports
  holding at least ``min_victim_len`` packets (1, or 2 for BPD₁); the
  victim is its highest bit.

The *static rank* ``r_p`` of port ``p`` is its position in the
ascending ``(w_p, p)`` order, so comparing ranks compares the paper's
``(w_j, j)`` tie-break exactly; ranks are unique, hence no kernel ever
faces an unresolved tie.

A slot's arrivals come in same-port runs, and a drop changes nothing
these three kernels' drop tests read; the tests read no packet field
but the port (a FIFO packet's work is its port's, validated). So when
an arrival drops, the rest of its same-port run drops with it: the
kernel skips to ``i + runs[i]``, where ``runs`` is the trace's
:class:`~repro.traffic.trace.RunIndex` (per packet, the packets left in
its same-port run within its slot). A run broken by another port's
arrival is two runs.

No kernel counts a drop. The paper's model conserves packets per port:
arrived = accepted + rejected, and accepted = transmitted + pushed out
+ flushed + backlog. So :meth:`VectorizedSwitch.run_span` derives the
drop ledger once per span, from counted terms:
``dropped_by_port[p] = arrived_p - transmitted_p - |Q_p| - flushed_p``
(rejected and pushed-out packets of port ``p``) and ``dropped =
arrived - accepted``. The kernels count admissions and push-outs, the
transmission phase its completions, and ``flush`` and
``set_port_state`` the flushed packets per port; the span's arrivals
per port are one count over its column slice.

The value model's priority-queue layout has one more kernel for its
four push-out policies. It keeps a sorted list of per-port victim
keys, built with the reference's own keys and float operations, whose
last element is the victim:

* **LQD-V** — ``(|Q_j|, -tail_j, j)``; the arrival's own queue counts
  virtually one longer, and a virtual key above the top means DROP.
* **MVD / MVD₁** — ``(-min_j, |Q_j|, j)`` over queues of at least
  ``min_victim_len`` packets: the reference's minimum of
  ``(min_j, -|Q_j|, -j)``, negated exactly. Push out iff the victim's
  minimum is below the arrival's value.
* **MRD** — ``(|Q_j| / (V_j / |Q_j|), -min_j, j)``, gated on the global
  buffer minimum, which a sorted list of per-port minima holds.

Each policy has its own congested loop (MVD and MVD₁ share one). A
push-out pops the victim's key, which is the list's last element, and
files the victim's and the arrival's new keys inline (one when they
are the same port); a drop files none. The keys go stale instead of
being re-filed when the bulk-accepted run or a transmission phase that
completes a packet moves them: the arrival phase rebuilds them once,
right before the slot's first congested arrival, and only in a slot
that has one. MVD, MVD₁ and MRD decide each congested arrival on its
own, since they compare its value; LQD-V's test reads no arrival field
but the port, so its loop skips a dropped same-port run.

The transmission phase is batched as well, inside the span loop. A
FIFO queue of length ``L`` at speedup ``C`` serves its first
``min(C, L)`` packets one cycle each per slot, and since all its
packets need the same work, each of those *armed* packets completes at
a tick fixed when it is armed. The engine keeps a *multi-core expiry-tick
calendar*: every packet is scheduled once, at the absolute phase tick
where it completes, when it enters the first ``C`` positions (on
admission to a queue shorter than ``C``, or when a completion ahead of
it moves it up). Per port the calendar holds the head's tick and a
window of the ``min(C, L) - 1`` non-decreasing ticks behind it, empty
at ``C = 1``. Advancing the tick is the whole decrement, and a phase
costs O(completions) — one dict pop — instead of O(active ports). A
push-out of an armed tail pops the window's last tick, whose calendar
entry goes stale.

LWD keys on total residual work, which every queue loses uniformly
(one unit a phase) only at ``C = 1``; there an offset absorbs the
decrement. At ``C > 1`` a transmission phase leaves the codes stale,
as it leaves the value keys, and the next arrival phase rebuilds them
before anything else, since its bulk-accepted run files codes too.

The non-push-out threshold policies (NHST, NEST, NHDT, NHST-V, Greedy,
NHDT-W, Harmonic, DT) share one more kernel, on every queue layout.
Each policy states its rule once, as a pure function of the arrival's
queue length and one statistic (a static per-port cap, the free space,
the number of strictly longer queues, or the count and total of the
queues at least as long). The two length statistics come from a
sorted copy of the length column taken at the start of each arrival
phase: no queue shrinks in a non-push-out phase, and an admission
bumps one entry of the copy, so each statistic is a bisection. For
them the kernel calls the policy's own function through a memo keyed
by (own length, statistic) that lives as long as the policy's binding:
the function is pure and its capacity is the constant ``B`` here. DT
(free space) and NHDT-W (a scan of the queue works) call their rule
directly, and a static cap is read from the per-port table built at
bind time. No threshold formula is restated here. A drop moves neither
the own length, the statistic nor the occupancy, so a dropped
arrival's same-port run is skipped here too, and once an admission
fills the buffer the rest of the slot drops without a test.

Every replay runs a kernel. On the purely shared model a down port
changes no admission predicate (its queue is empty and the buffer
predicates read only ``B`` and the occupancy), so port churn keeps the
kernel bound: the kernel drops a slot's arrivals to down ports up
front, with :func:`drop_down_arrivals`.
Anything else — a split buffer model, the extensions LWD₁, MRD₁ and
Random, scripted OPT, a policy subclass the kernel table does not know
— has no kernel: :meth:`VectorizedSwitch.serves` says so,
:class:`repro.analysis.competitive.PolicySystem` builds the reference
engine for it, and the switch itself raises :class:`ConfigError`
rather than run a slow path.

Oracle contract and deviations
------------------------------
On valid traces the engine reaches the reference's decisions, metrics
and buffer contents. It runs whole slots only and emits no per-packet
events; a per-packet stream comes from the reference engine, which is
the one that accepts an observer. Documented deviations:

* Transmitted packets are accounted in metrics but not materialized
  as objects: ``run_span`` returns the first slot it did not run, not
  the transmissions.
* Trace validation is batched per whole trace (once per trace and
  switch shape, see :meth:`VectorizedSwitch.bind_columns`), so an
  *invalid* trace raises before any of its packets is processed,
  whereas the reference raises mid-burst.
  Valid traces are unaffected.
* Admissions draw no global packet sequence numbers (store entries
  carry ``seq 0``). Sequence numbers are debugging identity only:
  every decision-relevant and metrics-relevant quantity is seq-free.
* ``dropped`` and ``dropped_by_port`` are derived at the end of each
  span, not counted per drop, so they are exact between spans, which
  is where every caller reads them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.decisions import STAT_AT_LEAST, STAT_CAP, STAT_FREE, STAT_LONGER
from repro.core.errors import ConfigError, PolicyError, TraceError
from repro.core.hotpath import hot_path
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet
from repro.traffic.trace import RunIndex, port_runs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traffic.trace import Trace

#: Kernel identifiers. Kinds from ``K_LQDV`` up are the value-model
#: kernels (priority queues); ``_UNBOUND`` marks a switch whose derived
#: structures are not in sync with any policy yet.
_UNBOUND = 0
K_LQD = 1
K_LWD = 2
K_BPD = 3
K_THRESHOLD = 4
K_LQDV = 5
K_MVD = 6
K_MRD = 7

_NEG_INF = float("-inf")

_policy_classes: Optional[Dict[type, int]] = None


def _load_policy_classes() -> Dict[type, int]:
    """Late import of the kernel-bound policy classes, by exact type
    (avoids a core->policies cycle). Every registered policy except the
    extensions LWD1, MRD1 and Random is a key; a subclass that is not
    a key has no kernel and runs on the reference engine."""
    global _policy_classes
    if _policy_classes is None:
        from repro.policies.dynamic import DynamicThreshold, Harmonic
        from repro.policies.extensions import NHDTW
        from repro.policies.nonpushout import (
            NEST,
            NHDT,
            NHST,
            GreedyNonPushOut,
            NHSTValue,
        )
        from repro.policies.processing import BPD, BPD1, LQD, LWD
        from repro.policies.value import MRD, MVD, MVD1, LQDValue

        _policy_classes = {
            LQD: K_LQD,
            LWD: K_LWD,
            BPD: K_BPD,
            BPD1: K_BPD,
            LQDValue: K_LQDV,
            MVD: K_MVD,
            MVD1: K_MVD,
            MRD: K_MRD,
            NHST: K_THRESHOLD,
            NEST: K_THRESHOLD,
            NHDT: K_THRESHOLD,
            NHSTValue: K_THRESHOLD,
            GreedyNonPushOut: K_THRESHOLD,
            NHDTW: K_THRESHOLD,
            Harmonic: K_THRESHOLD,
            DynamicThreshold: K_THRESHOLD,
        }
    return _policy_classes


def _purely_shared(config: SwitchConfig) -> bool:
    model = config.buffer_model
    return model is None or model.is_purely_shared


def _kernel_kind(config: SwitchConfig, policy: Any) -> Optional[int]:
    """The kernel that serves ``policy`` on ``config``, or ``None``.

    Kernels assume the purely shared model's full-buffer predicate and
    the queue layout of their model: the push-out kernels of the
    processing model need FIFO queues, the value kernels priority
    queues. The threshold kernel files its admissions on either layout
    and so serves both.
    """
    if not _purely_shared(config):
        return None
    kind = _load_policy_classes().get(type(policy))
    if kind is None or kind == K_THRESHOLD:
        return kind
    by_value = config.discipline is QueueDiscipline.PRIORITY
    return kind if (kind >= K_LQDV) == by_value else None


def _new_packet(
    port: int,
    work: int,
    value: float,
    arrival_slot: int,
    seq: int,
    residual: int,
) -> Packet:
    """Materialize a Packet from column fields without re-validation."""
    packet = object.__new__(Packet)
    packet.port = port
    packet.work = work
    packet.value = value
    packet.arrival_slot = arrival_slot
    packet.opt_accept = None
    packet.seq = seq
    packet.residual = residual
    return packet


def drop_down_arrivals(
    port_up: Sequence[bool],
    metrics: Optional[SwitchMetrics],
    ports: Sequence[int],
    works: Sequence[int],
    values: Sequence[float],
    arrivals: Optional[Sequence[int]],
    lo: int,
    hi: int,
) -> Tuple[List[int], List[int], List[float], Optional[List[int]], int]:
    """Drop a slot's arrivals to admin-down ports up front.

    The reference drops them before its policy (or the OPT surrogate's
    admission rule) sees them, and a down port changes no admission
    predicate of the purely shared model, so only the arrival order of
    the survivors matters: they come back as fresh columns spanning
    ``[0, hi')``. The vectorized OPT surrogates pass their ``metrics``,
    where the drops are counted; the arrival kernels pass ``None``,
    since their switch derives its drop ledger at span end.
    """
    keep = []
    for i in range(lo, hi):
        if port_up[ports[i]]:
            keep.append(i)
        elif metrics is not None:
            metrics.dropped_by_port[ports[i]] += 1
    if metrics is not None:
        metrics.dropped += hi - lo - len(keep)
    return (
        [ports[i] for i in keep],
        [works[i] for i in keep],
        [values[i] for i in keep],
        None if arrivals is None else [arrivals[i] for i in keep],
        len(keep),
    )


def _no_arrivals(slot: int) -> None:
    """The arrival kernel of a span without arrivals, never called."""


class VectorizedSwitch:
    """Columnar batch-slot engine, decision-identical to the reference.

    State lives in flat per-port columns:

    * ``_lens`` — queue lengths.
    * ``_hexp`` / ``_wins`` / ``_sched`` / ``_tick`` — the FIFO
      multi-core calendar. A queue of length ``L`` has ``min(C, L)``
      armed packets, each scheduled once at the absolute phase tick
      where it completes: ``_hexp[p]`` is the head's tick and
      ``_wins[p]`` the non-decreasing ticks of the ``min(C, L) - 1``
      armed packets behind it (always empty at ``C = 1``). Advancing
      ``_tick`` serves every armed packet at once, so a phase costs
      O(completions).
    * ``_tv`` — per-port buffered value totals of the priority queues,
      maintained with the reference float operation order (MRD's keys
      read them, float residue included); FIFO queues keep none.
    * ``_works`` — static per-port work requirements.
    * ``_arrived_by_port`` / ``_flushed_by_port`` — per-port arrivals
      and flushed packets, the two counted terms of the derived drop
      ledger that the metrics do not keep (see :meth:`run_span`).

    A queue's residual work total is derived, never stored: from the
    calendar on FIFO queues, as the sum of the record residuals on
    priority queues (see :meth:`queue_work`).

    Packet payloads (value, arrival slot, sequence number, and — on
    priority queues — residual) live in flat per-port record stores,
    because push-out needs the victim's tail payload and metrics need
    per-packet value/delay on transmit.

    Only the purely shared buffer model is served, and binding a policy
    with no kernel raises :class:`ConfigError`: :meth:`serves` says
    which (config, policy) pairs run here, and
    :class:`repro.analysis.competitive.PolicySystem` builds the
    reference engine for the rest.
    """

    def __init__(self, config: SwitchConfig) -> None:
        if not _purely_shared(config):
            raise ConfigError(
                "the vectorized engine serves the purely shared buffer "
                "model only; run split buffer models on the reference "
                "engine (engine='reference')"
            )
        self.config = config
        self.metrics = SwitchMetrics(n_ports=config.n_ports)
        self.current_slot = 0
        self.occupancy = 0

        n = config.n_ports
        self._B = config.buffer_size
        self._by_value = config.discipline is QueueDiscipline.PRIORITY
        self._cores = config.speedup
        self._works: List[int] = list(config.works)
        self._lens: List[int] = [0] * n
        self._active: List[int] = []
        self._is_act: List[bool] = [False] * n

        # FIFO queues keep their armed packets on the expiry-tick
        # calendar; priority queues keep residuals in their records.
        self._tick = 0
        self._hexp: List[int] = [0] * n
        self._sched: Dict[int, List[int]] = {}

        if self._by_value:
            self._tv: List[float] = [0.0] * n
            self._vals: List[List[float]] = [[] for _ in range(n)]
            self._recs: List[List[List[Any]]] = [[] for _ in range(n)]
            self._stores: List[Deque[Any]] = []
            self._wins: List[List[int]] = []
        else:
            self._tv = []
            self._vals = []
            self._recs = []
            self._stores = [deque() for _ in range(n)]
            self._wins = [[] for _ in range(n)]

        # Static rank r_p = position of p in ascending (w_p, p) order;
        # comparing ranks compares the paper's (w_j, j) tie-break.
        order = sorted(range(n), key=lambda p: (self._works[p], p))
        self._porder: List[int] = order
        self._rank: List[int] = [0] * n
        for r, p in enumerate(order):
            self._rank[p] = r
        self._bit: List[int] = [1 << r for r in range(n)]
        self._nr = n

        # Kernel binding: which specialized arrival kernel (if any) is
        # active for the current policy object, and whether its derived
        # structures are in sync with the columns.
        self._kpolicy: Optional[Any] = None
        self._kkind = _UNBOUND
        self._kclean = False

        # LQD kernel state.
        self._masks: List[int] = []
        self._maxl = 0
        self._topr = -1
        # LWD kernel state. _ncode caches, per active port, the code
        # its queue would carry after accepting one more own-port
        # packet (pcode + w*n), so the congested drop test is a single
        # column read.
        self._codes: List[int] = []
        self._pcode: List[int] = [0] * n
        self._ncode: List[int] = [0] * n
        self._off = 0
        # BPD kernel state: the rank bitmask of victim candidates.
        self._nm = 0
        # Threshold kernel state: the policy's statistic, its rule, the
        # rule's results by packed (own, statistic) for the bound
        # policy, and (static caps only) the per-port cap table built
        # at bind time.
        self._tstat = STAT_CAP
        self._trule: Any = None
        self._tmemo: Dict[int, bool] = {}
        self._tcaps: List[float] = []
        # Value kernel state: the ascending victim-key list, each port's
        # filed key (None when not a candidate), and MRD's sorted
        # per-port minima.
        self._vkeys: List[Tuple[Any, ...]] = []
        self._vkey: List[Any] = [None] * n
        self._vmins: List[float] = []
        # BPD's and MVD's minimum victim-queue length (2 for BPD1/MVD1).
        self._mvl = 1
        # The ports column last validated for this switch (identity),
        # and the run index of its columns.
        self._valid_ports: Optional[Sequence[int]] = None
        self._index: Optional[RunIndex] = None
        # The counted terms the drop ledger derives from, besides the
        # metrics' own (see run_span): arrivals and flushed packets
        # per port.
        self._arrived_by_port: List[int] = [0] * n
        self._flushed_by_port: List[int] = [0] * n

        # Churn state. On the purely shared model a down port changes
        # no admission predicate: its arrivals are dropped before the
        # kernel runs and its queue stays empty.
        self._port_up: List[bool] = [True] * n
        self._n_down = 0

    @staticmethod
    def serves(config: SwitchConfig, policy: Any) -> bool:
        """Whether ``policy`` on ``config`` runs on this engine: a
        purely shared buffer model and a policy type with a kernel for
        the config's queue layout. Everything else runs on the
        reference engine."""
        return _kernel_kind(config, policy) is not None

    # ------------------------------------------------------------------
    # Column reads shared by diagnostics and tests
    # ------------------------------------------------------------------

    def _head_residual(self, port: int) -> int:
        """Residual work of the head packet of a non-empty FIFO queue:
        its expiry tick relative to the current phase tick."""
        return self._hexp[port] - self._tick

    def _arm(self, port: int, position: int) -> None:
        """Arm the packet at ``position < C`` of ``port``'s queue (the
        head at 0, else the window's new last entry): it completes
        ``w_p`` phases after the current one."""
        expiry = self._tick + self._works[port]
        if position:
            self._wins[port].append(expiry)
        else:
            self._hexp[port] = expiry
        bucket = self._sched.get(expiry)
        if bucket is None:
            self._sched[expiry] = [port]
        else:
            bucket.append(port)

    def _fifo_residuals(self, port: int) -> List[int]:
        """Per-packet residual work of a FIFO queue, head to tail: the
        armed packets' expiry ticks relative to the current tick, then
        the full work of every packet no core has reached yet."""
        length = self._lens[port]
        if not length:
            return []
        tick = self._tick
        win = self._wins[port]
        out = [self._hexp[port] - tick]
        out.extend(e - tick for e in win)
        out.extend([self._works[port]] * (length - 1 - len(win)))
        return out

    def queue_work(self, port: int) -> int:
        """The paper's ``W_i`` for ``port``, from columns.

        A FIFO total derives from the calendar: the armed packets'
        residuals plus the full work of the unarmed rest; a priority
        total is the sum of its records' residuals.
        """
        if self._by_value:
            return sum(rec[3] for rec in self._recs[port])
        length = self._lens[port]
        if length == 0:
            return 0
        tick = self._tick
        win = self._wins[port]
        work = self._hexp[port] - tick
        for e in win:
            work += e - tick
        return work + (length - 1 - len(win)) * self._works[port]

    def queue_state(self, port: int) -> List[Tuple[int, float, int]]:
        """Queue contents head-to-tail as ``(port, value, residual)``.

        The observable packet state used by the differential suite —
        identical to mapping packets of the reference engine's queue
        (sequence numbers excluded; they depend on engine interleaving).
        """
        if not 0 <= port < self.config.n_ports:
            raise PolicyError(f"queue_state of invalid port {port}")
        if self._by_value:
            return [
                (port, rec[0], rec[3]) for rec in reversed(self._recs[port])
            ]
        return [
            (port, rec[0], residual)
            for rec, residual in zip(
                self._stores[port], self._fifo_residuals(port)
            )
        ]

    def queue_packets(self, port: int) -> List[Packet]:
        """Materialized queue contents head-to-tail (tests, debugging)."""
        if self._by_value:
            return [
                _new_packet(port, rec[4], rec[0], rec[1], rec[2], rec[3])
                for rec in reversed(self._recs[port])
            ]
        work = self._works[port]
        return [
            _new_packet(port, work, rec[0], rec[1], rec[2], residual)
            for rec, residual in zip(
                self._stores[port], self._fifo_residuals(port)
            )
        ]

    # ------------------------------------------------------------------
    # Validation and kernel binding
    # ------------------------------------------------------------------

    def bind_columns(self, trace: "Trace") -> None:
        """Validate ``trace`` for this switch before its replay.

        The check runs once per (trace, config shape): the trace keeps
        the shapes it passed in its ``validated`` set, so the other
        replays of one sweep cell skip it, and the memo dies with the
        trace. The switch then trusts ``trace.ports`` in
        :meth:`run_span`, with the trace's run index, for its own
        lifetime only.
        """
        shape = (self._by_value, tuple(self._works))
        if shape not in trace.validated:
            self._validate_columns(trace.ports, trace.works, trace.values)
            trace.validated.add(shape)
        self._valid_ports = trace.ports
        self._index = trace.run_index

    @hot_path
    def _validate_columns(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
    ) -> None:
        """Validate whole trace columns before the first ingested slot.

        Columns carry no ``Packet.__post_init__`` guarding field ranges,
        so this also enforces the lower bounds (``port >= 0``,
        ``work >= 1``, ``value > 0``) besides the port range and the
        per-port work requirement. Columns arriving without
        :meth:`bind_columns` are checked on first sight and then
        trusted by identity. Unlike the reference (which validates as
        it offers), invalid columns raise before any packet of them
        lands.
        """
        if not ports:
            return
        n = self._nr
        if self._by_value:
            for i in range(len(ports)):
                p = ports[i]
                if not 0 <= p < n:
                    raise TraceError(
                        f"packet destined to port {p}, switch has "
                        f"{n} ports"
                    )
                if works[i] < 1:
                    raise TraceError(
                        f"packet work must be >= 1, got {works[i]}"
                    )
                if not values[i] > 0:
                    raise TraceError(
                        f"packet value must be > 0, got {values[i]}"
                    )
        else:
            wcol = self._works
            p = 0
            try:
                for i in range(len(ports)):
                    p = ports[i]
                    if p < 0:
                        raise IndexError
                    if works[i] != wcol[p]:
                        raise TraceError(
                            f"packet work {works[i]} violates per-port "
                            f"requirement w_{p}={wcol[p]} "
                            "(Section III model constraint)"
                        )
                    if not values[i] > 0:
                        raise TraceError(
                            f"packet value must be > 0, got {values[i]}"
                        )
            except IndexError:
                raise TraceError(
                    f"packet destined to port {p}, switch has "
                    f"{n} ports"
                ) from None

    def _bind(self, policy: Any) -> int:
        """The kernel kind for ``policy``, with its bind-time state."""
        kind = _kernel_kind(self.config, policy)
        if kind is None:
            layout = "priority" if self._by_value else "FIFO"
            raise ConfigError(
                f"the vectorized engine has no kernel for policy "
                f"{type(policy).__name__} on {layout} queues; run it on "
                "the reference engine (engine='reference', which "
                "PolicySystem selects for it)"
            )
        if kind == K_THRESHOLD:
            stat = policy.statistic
            self._tstat = stat
            if stat == STAT_CAP:
                self._trule = None
                self._tcaps = [
                    policy.cap(self.config, p) for p in range(self._nr)
                ]
            else:
                self._trule = policy.admits
                self._tcaps = []
            # admits is pure and its capacity is the constant B here, so
            # a result holds for the rest of this binding only. The
            # length statistics key it by (own, statistic) packed into
            # one int: own * n + longer for STAT_LONGER, and
            # (own * n + m - 1) * (B + 1) + joint for STAT_AT_LEAST. The
            # parts are bounded (longer < n, 1 <= m <= n, joint <= B),
            # so the packing is one-to-one and the kernel audit unpacks
            # every key to recompute its entry.
            self._tmemo = {}
        elif kind in (K_BPD, K_MVD):
            self._mvl = policy.min_victim_len
        return kind

    def _kernel_for(self, policy: Any) -> int:
        if policy is not self._kpolicy:
            self._kkind = self._bind(policy)
            self._kpolicy = policy
            self._kclean = False
        kind = self._kkind
        if not self._kclean:
            self._rebuild_kernel(kind)
            self._kclean = True
        return kind

    def _rebuild_kernel(self, kind: int) -> None:
        """Recompute derived kernel structures from the primary columns.

        Runs after a ``flush``, a port-state change or a policy change;
        the arrival kernels and transmission phases keep the structures
        incrementally synchronized.
        """
        lens = self._lens
        rank = self._rank
        bit = self._bit
        if kind == K_LQD:
            self._masks = [0] * (self._B + 2)
            masks = self._masks
            maxl = 0
            for p in self._active:
                length = lens[p]
                masks[length] |= bit[rank[p]]
                if length > maxl:
                    maxl = length
            self._maxl = maxl
            self._topr = (
                masks[maxl].bit_length() - 1 if maxl > 0 else -1
            )
        elif kind == K_LWD:
            self._off = 0
            nr = self._nr
            pcode = self._pcode
            ncode = self._ncode
            works = self._works
            codes: List[int] = []
            for p in self._active:
                code = self.queue_work(p) * nr + rank[p]
                pcode[p] = code
                ncode[p] = code + works[p] * nr
                codes.append(code)
            codes.sort()
            self._codes = codes
        elif kind == K_BPD:
            self._nm = self._bpd_mask()
        elif kind >= K_LQDV:
            self._vkeys, self._vkey, self._vmins = self._value_keys(kind)

    def _bpd_mask(self) -> int:
        """The rank bitmask of the queues holding at least
        ``min_victim_len`` packets, from the primary columns."""
        lens = self._lens
        rank = self._rank
        bit = self._bit
        mvl = self._mvl
        nm = 0
        for p in self._active:
            if lens[p] >= mvl:
                nm |= bit[rank[p]]
        return nm

    def _value_keys(
        self, kind: int
    ) -> Tuple[List[Tuple[Any, ...]], List[Any], List[float]]:
        """From-scratch value-kernel state: the sorted key list, each
        port's key (``None`` when the port is not a candidate), and
        (MRD only) the sorted per-port minima. The congested loops of
        :meth:`_arrive_value_cols` file the same keys inline, and the
        kernel audit compares every filed key with this rebuild."""
        lens = self._lens
        vals = self._vals
        active = self._active
        keys: List[Tuple[Any, ...]]
        if kind == K_LQDV:
            keys = [(lens[p], -vals[p][0], p) for p in active]
        elif kind == K_MVD:
            mvl = self._mvl
            keys = [
                (-vals[p][0], lens[p], p) for p in active if lens[p] >= mvl
            ]
        else:
            tv = self._tv
            keys = [
                (lens[p] / (tv[p] / lens[p]), -vals[p][0], p)
                for p in active
            ]
        key_of: List[Any] = [None] * self._nr
        for key in keys:
            key_of[key[2]] = key
        keys.sort()
        mins: List[float] = []
        if kind == K_MRD:
            mins = sorted(vals[p][0] for p in active)
        return keys, key_of, mins

    # ------------------------------------------------------------------
    # Whole slots
    # ------------------------------------------------------------------

    @hot_path
    def run_span(
        self,
        policy: Any,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        offsets: Sequence[int],
        s0: int,
        s1: int,
    ) -> int:
        """Run the trace slots ``[s0, s1)`` straight from flat columns.

        Slot ``s`` is the column span ``[offsets[s], offsets[s + 1])``
        of a :class:`repro.traffic.trace.Trace`: no ``Packet`` objects
        are constructed. ``arrivals`` is ``None`` when every packet's
        arrival slot is the slot it arrives in. This is the engine's one
        way to run slots.

        Returns the first slot not run. The loop stops early at an
        arrival-free slot that starts on an empty buffer: the caller
        fast-forwards such a stretch (:func:`repro.analysis.competitive.
        run_system` skips the flushouts inside it).

        The policy's kernel is bound first, which leaves its derived
        structures clean; a span with arrivals then creates the arrival
        kernel (see :meth:`_arrival_kernel`), which each slot with
        arrivals runs with one ``send``, and only then is the
        transmission state bound, once per span; flushes, port events
        and policy changes fall between spans. Two kernels let a
        transmission phase leave their structures stale (``_kclean``
        false) instead of re-filing them, and their arrival kernels
        rebuild what they read: the value kernels, whose keys every
        completion moves, rebuild right before a slot's first congested
        arrival, and LWD at ``C > 1``, where every queue loses
        ``min(C, L)`` work a phase, at the start of its next arrival
        phase. The structures the span binds for its transmission phase
        (LQD's bitsets, BPD's mask, LWD's codes at ``C = 1``) stay
        clean for the whole span. The slot count, the
        occupancy integral and peak, ``arrived`` and the transmission
        totals accumulate in locals, in the reference's order, and are
        written once per span (the slot accounting through
        :meth:`SwitchMetrics.record_slots`).

        No kernel counts a drop; a span with arrivals derives the drop
        ledger in its epilogue, from per-port conservation:
        ``dropped_by_port[p] = arrived_p - transmitted_p - |Q_p| -
        flushed_p`` and ``dropped = arrived - accepted``. The span's
        arrivals per port are one count over its column slice
        (:meth:`~repro.traffic.trace.RunIndex.port_counts`), and
        :meth:`flush` and :meth:`set_port_state` count the flushed
        packets per port. Between spans the ledger stays exact: a
        flush moves a queue's packets to its flushed count, and a
        transmission phase to its transmitted count.
        """
        first = offsets[s0]
        index: Optional[RunIndex] = None
        if offsets[s1] > first:
            index = self._index
            if (
                ports is not self._valid_ports
                or index is None
                or len(index.runs) != len(ports)
            ):
                # Columns not bound to this switch, or grown since:
                # validate them and index their runs.
                self._validate_columns(ports, works, values)
                self._valid_ports = ports
                index = self._index = RunIndex(ports, offsets)
        kind = self._kernel_for(policy)
        arrive = (
            self._arrival_kernel(
                kind, ports, works, values, arrivals, offsets, index.runs
            )
            if index is not None
            else _no_arrivals
        )
        cores = self._cores
        by_value = self._by_value
        lwd_stale = kind == K_LWD and cores > 1
        tkind = _UNBOUND if lwd_stale else kind
        metrics = self.metrics
        lens = self._lens
        tv = self._tv
        active = self._active
        is_act = self._is_act
        tx_by_port = metrics.transmitted_by_port
        txv_by_port = metrics.transmitted_value_by_port
        delay_sum = metrics.delay_sum_by_port
        delay_count = metrics.delay_count_by_port
        # FIFO transmission state (the multi-core calendar).
        sched = self._sched
        hexp = self._hexp
        stores = self._stores
        wins = self._wins
        wcol = self._works
        rank = self._rank
        bit = self._bit
        masks = self._masks
        codes = self._codes
        pcode = self._pcode
        below = self._mvl - 1
        # Priority transmission state.
        all_vals = self._vals
        all_recs = self._recs
        slot = self.current_slot
        arrived = metrics.arrived
        integral = 0
        peak = 0
        txp = metrics.transmitted_packets
        txv = metrics.transmitted_value
        hi = first
        for s in range(s0, s1):
            lo = hi
            hi = offsets[s + 1]
            if hi > lo:
                arrived += hi - lo
                self.current_slot = slot
                arrive(s)
            elif not self.occupancy:
                break
            if not active:
                pass
            elif by_value:
                # Priority transmission phase (value model). Each active
                # queue serves its min(C, L) most valuable packets one
                # cycle each, and completed packets leave.
                count = 0
                drained: List[int] = []
                if cores == 1:
                    # Only the top record is ever served, so no record
                    # below it can reach residual 0: a queue sends at
                    # most its top.
                    for p in active:
                        recs = all_recs[p]
                        rec = recs[-1]
                        if rec[3] > 1:
                            rec[3] -= 1
                            continue
                        recs.pop()
                        all_vals[p].pop()
                        value = rec[0]
                        tv[p] -= value
                        txv += value
                        txv_by_port[p] += value
                        arr = rec[1]
                        if slot >= arr:
                            delay_sum[p] += slot - arr
                            delay_count[p] += 1
                        nl = lens[p] - 1
                        lens[p] = nl
                        tx_by_port[p] += 1
                        count += 1
                        if not nl:
                            drained.append(p)
                else:
                    for p in active:
                        # Every served record that completes leaves,
                        # head first, like the reference queue: one
                        # overtaken in service by a more valuable
                        # arrival can complete below an unfinished head.
                        recs = all_recs[p]
                        length = lens[p]
                        c = cores if cores < length else length
                        nl = length
                        vals = all_vals[p]
                        for idx in range(length - 1, length - c - 1, -1):
                            rec = recs[idx]
                            rec[3] -= 1
                            if rec[3]:
                                continue
                            del recs[idx]
                            del vals[idx]
                            value = rec[0]
                            tv[p] -= value
                            txv += value
                            txv_by_port[p] += value
                            arr = rec[1]
                            if slot >= arr:
                                delay_sum[p] += slot - arr
                                delay_count[p] += 1
                            nl -= 1
                        if nl == length:
                            continue
                        lens[p] = nl
                        tx_by_port[p] += length - nl
                        count += length - nl
                        if not nl:
                            drained.append(p)
                if count:
                    txp += count
                    self.occupancy -= count
                    for p in drained:
                        del active[bisect_left(active, p)]
                        is_act[p] = False
                    if kind >= K_LQDV:
                        # Completions moved the lengths (and value
                        # totals) the value keys are built from: the
                        # next congested arrival phase rebuilds them.
                        self._kclean = False
            else:
                # FIFO transmission phase over the multi-core calendar.
                # Pops the current tick's bucket: advancing the tick is
                # the decrement of every armed packet. Entries can be
                # stale (the packet was pushed out or flushed), so each
                # port is checked against its live head expiry;
                # survivors complete in ascending port order like the
                # reference's active-set walk, heads while their expiry
                # is this tick (several at C > 1). A completion promotes
                # the next armed packet and arms the one entering the
                # first C positions.
                if lwd_stale:
                    self._kclean = False
                tick = self._tick + 1
                self._tick = tick
                bucket = sched.pop(tick, None)
                done: List[int] = []
                if bucket is None:
                    pass
                elif len(bucket) == 1:
                    p = bucket[0]
                    if is_act[p] and hexp[p] == tick:
                        done = bucket
                else:
                    bucket.sort()
                    last = -1
                    for p in bucket:
                        if p != last and is_act[p] and hexp[p] == tick:
                            done.append(p)
                        last = p
                if done:
                    nm = self._nm
                    drained = []
                    count = 0
                    for p in done:
                        store = stores[p]
                        nl = lens[p]
                        while True:
                            value, arr, _sq = store.popleft()
                            nl -= 1
                            count += 1
                            txv += value
                            tx_by_port[p] += 1
                            txv_by_port[p] += value
                            if slot >= arr:
                                delay_sum[p] += slot - arr
                                delay_count[p] += 1
                            if tkind == K_LQD:
                                r = rank[p]
                                masks[nl + 1] ^= bit[r]
                                if nl:
                                    masks[nl] |= bit[r]
                            elif tkind == K_BPD:
                                if nl == below:
                                    nm ^= bit[rank[p]]
                            if not nl:
                                del active[bisect_left(active, p)]
                                is_act[p] = False
                                if tkind == K_LWD:
                                    drained.append(p)
                                break
                            win = wins[p]
                            if win:
                                # C > 1: the next armed packet becomes
                                # the head, and the packet now at
                                # position C - 1 is armed.
                                if nl >= cores:
                                    e = tick + wcol[p]
                                    win.append(e)
                                    b = sched.get(e)
                                    if b is None:
                                        sched[e] = [p]
                                    else:
                                        b.append(p)
                                e = win.pop(0)
                                hexp[p] = e
                                if e == tick:
                                    continue
                            else:
                                e = tick + wcol[p]
                                hexp[p] = e
                                b = sched.get(e)
                                if b is None:
                                    sched[e] = [p]
                                else:
                                    b.append(p)
                            break
                        lens[p] = nl
                    txp += count
                    self.occupancy -= count
                    if tkind == K_LQD:
                        maxl = self._maxl
                        while maxl and not masks[maxl]:
                            maxl -= 1
                        self._maxl = maxl
                        self._topr = (
                            masks[maxl].bit_length() - 1 if maxl else -1
                        )
                    elif tkind == K_LWD:
                        for p in drained:
                            del codes[bisect_left(codes, pcode[p])]
                    elif tkind == K_BPD:
                        self._nm = nm
                if tkind == K_LWD:
                    self._off += 1
            occ = self.occupancy
            integral += occ
            if occ > peak:
                peak = occ
            slot += 1
        else:
            s = s1
        self.current_slot = slot
        metrics.record_slots(s - s0, integral, peak)
        metrics.arrived = arrived
        metrics.transmitted_packets = txp
        metrics.transmitted_value = txv
        end = offsets[s]
        if index is not None and end > first:
            # The drop ledger, derived from conservation (see above).
            n = self._nr
            counts = index.port_counts(first, end, n)
            arrived_by_port = self._arrived_by_port
            flushed_by_port = self._flushed_by_port
            dropped_by_port = metrics.dropped_by_port
            for p in range(n):
                a = arrived_by_port[p] + counts[p]
                arrived_by_port[p] = a
                dropped_by_port[p] = (
                    a - tx_by_port[p] - lens[p] - flushed_by_port[p]
                )
            metrics.dropped = arrived - metrics.accepted
        return s

    def _arrival_kernel(
        self,
        kind: int,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        offsets: Sequence[int],
        runs: Sequence[int],
    ) -> Callable[[int], None]:
        """The arrival kernel of ``kind`` bound to a span's columns and
        their run index: the ``send`` of its primed generator, which
        runs slot ``s``'s arrival phase per call."""
        kernel: Generator[None, int, None]
        cols = (ports, works, values, arrivals, offsets, runs)
        if kind == K_LQD:
            kernel = self._arrive_lqd_cols(*cols)
        elif kind == K_LWD:
            kernel = self._arrive_lwd_cols(*cols)
        elif kind == K_BPD:
            kernel = self._arrive_bpd_cols(*cols)
        elif kind == K_THRESHOLD:
            kernel = self._arrive_threshold_cols(*cols)
        else:
            kernel = self._arrive_value_cols(kind, *cols)
        next(kernel)
        return kernel.send

    def fast_forward(self, n_slots: int) -> None:
        """Advance over ``n_slots`` idle slots (empty buffer required)."""
        if n_slots < 0:
            raise TraceError(f"cannot fast-forward {n_slots} slots")
        if self.occupancy != 0:
            raise PolicyError(
                "fast_forward requires an empty buffer "
                f"(occupancy={self.occupancy})"
            )
        self.metrics.record_idle_slots(n_slots)
        self.current_slot += n_slots

    def flush(self) -> int:
        """Clear all queues without transmission credit; returns count."""
        count = self.occupancy
        flushed_by_port = self._flushed_by_port
        # Reset every port, not just active ones: the reference flush
        # clears all queues, zeroing float value totals exactly even on
        # queues that drained earlier and carry rounding residue.
        for port in range(self.config.n_ports):
            flushed_by_port[port] += self._lens[port]
            self._clear_port(port)
        # Calendar entries are left in place: every flushed port is
        # now inactive, so its entries fail the validity check when
        # their tick pops.
        self._active = []
        self.occupancy = 0
        self._kclean = False
        self.metrics.flushed += count
        return count

    def _clear_port(self, port: int) -> None:
        self._lens[port] = 0
        self._is_act[port] = False
        if self._by_value:
            self._tv[port] = 0.0
            self._vals[port].clear()
            self._recs[port].clear()
        else:
            self._stores[port].clear()
            self._wins[port].clear()

    def set_port_state(self, port: int, up: bool) -> int:
        """Admin-up/down ``port``; returns the packets reclaimed.

        Mirrors the reference engine exactly: down flushes the port's
        queue (accounted as flushed) and engine-drops subsequent
        arrivals (the arrival kernels drop them up front); redundant
        transitions are trace errors. A reclaimed queue invalidates the
        derived kernel structures, which the next span rebuilds.
        """
        if not 0 <= port < self.config.n_ports:
            raise TraceError(
                f"port-state event for port {port}, switch has "
                f"{self.config.n_ports} ports"
            )
        up = bool(up)
        if up == self._port_up[port]:
            state = "up" if up else "down"
            raise TraceError(
                f"port {port} is already {state} at slot {self.current_slot}"
            )
        self._kclean = False
        self._port_up[port] = up
        if up:
            self._n_down -= 1
            return 0
        self._n_down += 1
        count = self._lens[port]
        if count:
            self._clear_port(port)
            del self._active[bisect_left(self._active, port)]
            self.occupancy -= count
        self.metrics.flushed += count
        self._flushed_by_port[port] += count
        return count

    # ------------------------------------------------------------------
    # Arrival kernels (trace columns in, no Packet objects)
    # ------------------------------------------------------------------

    @hot_path
    def _arrive_lqd_cols(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        offsets: Sequence[int],
        runs: Sequence[int],
    ) -> Generator[None, int, None]:
        """LQD arrival kernel over the length columns.

        Victim key: ``(|Q_j| + [j = i], w_j, j)`` argmax, realized as
        the running maximum ``(maxl, topr)`` over per-length rank
        bitsets. The arrival's own queue counts virtually one longer;
        a strict win for the own queue means DROP (keys are unique, so
        the naive first-strict-max scan agrees exactly).
        """
        metrics = self.metrics
        lens = self._lens
        stores = self._stores
        sched = self._sched
        hexp = self._hexp
        active = self._active
        is_act = self._is_act
        wcol = self._works
        rank = self._rank
        porder = self._porder
        bit = self._bit
        masks = self._masks
        wins = self._wins
        cores = self._cores
        arm = self._arm
        cap = self._B
        # Port state holds for the whole span (run_system cuts spans at
        # churn-event slots): while a port is down, each slot's arrivals
        # to down ports are dropped up front, as in every kernel below.
        port_up = self._port_up if self._n_down else None
        cols = (ports, works, values, arrivals)
        while True:
            s = yield
            lo = offsets[s]
            hi = offsets[s + 1]
            if port_up is not None:
                ports, works, values, arrivals, hi = drop_down_arrivals(
                    port_up, None, *cols, lo, hi
                )
                runs = port_runs(ports, (0, hi))
                lo = 0
            tick = self._tick
            maxl = self._maxl
            topr = self._topr
            occ = self.occupancy
            slot = self.current_slot
            accepted = 0
            pushed = 0
            # Bulk-accept the leading run that fits in free space: every
            # push-out policy is greedy below capacity, and a congested
            # kernel never shrinks occupancy, so the split needs no
            # per-packet occupancy check in either loop.
            free = cap - occ
            split = lo
            if free > 0:
                nb = hi - lo
                take = free if free < nb else nb
                split = lo + take
                occ += take
                accepted += take
                for i in range(lo, split):
                    p = ports[i]
                    v = values[i]
                    a = arrivals[i] if arrivals is not None else slot
                    r = rank[p]
                    ol = lens[p]
                    nl = ol + 1
                    stores[p].append((v, a, 0))
                    lens[p] = nl
                    if ol:
                        masks[ol] ^= bit[r]
                        if ol < cores:
                            arm(p, ol)
                    else:
                        insort(active, p)
                        is_act[p] = True
                        e = tick + wcol[p]
                        hexp[p] = e
                        b = sched.get(e)
                        if b is None:
                            sched[e] = [p]
                        else:
                            b.append(p)
                    masks[nl] |= bit[r]
                    # No queue shrank: the maximum can only move up to nl
                    # (then the arrival's rank is alone there) or gain the
                    # arrival's bit at the same level.
                    if nl > maxl:
                        maxl = nl
                        topr = r
                    elif nl == maxl and r > topr:
                        topr = r
            i = split
            while i < hi:
                p = ports[i]
                r = rank[p]
                ol = lens[p]
                nl = ol + 1
                if nl > maxl or (nl == maxl and r > topr):
                    # A drop changes nothing this test reads, so the rest
                    # of the arrival's same-port run drops with it.
                    i += runs[i]
                    continue
                # Push out the tail of the max-key queue. The own queue
                # cannot be the victim here: had (nl, r) matched
                # (maxl, topr) the arrival would have been dropped above.
                t = porder[topr]
                masks[maxl] ^= bit[topr]
                vl = maxl - 1
                lens[t] = vl
                stores[t].pop()
                if vl:
                    masks[vl] |= bit[topr]
                    if vl < cores:
                        # The victim was armed: its calendar entry goes stale.
                        wins[t].pop()
                else:
                    del active[bisect_left(active, t)]
                    is_act[t] = False
                pushed += 1
                v = values[i]
                a = arrivals[i] if arrivals is not None else slot
                stores[p].append((v, a, 0))
                lens[p] = nl
                accepted += 1
                if ol:
                    masks[ol] ^= bit[r]
                    if ol < cores:
                        arm(p, ol)
                else:
                    insort(active, p)
                    is_act[p] = True
                    e = tick + wcol[p]
                    hexp[p] = e
                    b = sched.get(e)
                    if b is None:
                        sched[e] = [p]
                    else:
                        b.append(p)
                masks[nl] |= bit[r]
                # The old maximum lost its top rank and the arrival
                # entered at nl <= maxl; recompute downward (the own
                # bit at nl bounds the scan, so maxl stays >= 1).
                while not masks[maxl]:
                    maxl -= 1
                topr = masks[maxl].bit_length() - 1
                i += 1
            self.occupancy = occ
            self._maxl = maxl
            self._topr = topr
            metrics.accepted += accepted
            metrics.pushed_out += pushed

    @hot_path
    def _arrive_lwd_cols(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        offsets: Sequence[int],
        runs: Sequence[int],
    ) -> Generator[None, int, None]:
        """LWD arrival kernel over integer work codes.

        Victim key: ``(W_j + [j = i] w_i, w_j, j)`` argmax. Codes
        ``(W_j + off) * n + r_j`` preserve the lexicographic order
        because ranks are unique below ``n``; ``codes`` stays sorted
        ascending so its last element is the current victim key. At
        ``C > 1`` a transmission phase leaves the codes stale (see
        :meth:`run_span`), and a slot rebuilds them first, since the
        bulk-accepted run files codes too.
        """
        metrics = self.metrics
        lens = self._lens
        stores = self._stores
        sched = self._sched
        hexp = self._hexp
        active = self._active
        is_act = self._is_act
        wcol = self._works
        rank = self._rank
        porder = self._porder
        codes = self._codes
        pcode = self._pcode
        ncode = self._ncode
        nr = self._nr
        wins = self._wins
        cores = self._cores
        arm = self._arm
        cap = self._B
        port_up = self._port_up if self._n_down else None
        cols = (ports, works, values, arrivals)
        while True:
            s = yield
            lo = offsets[s]
            hi = offsets[s + 1]
            if port_up is not None:
                ports, works, values, arrivals, hi = drop_down_arrivals(
                    port_up, None, *cols, lo, hi
                )
                runs = port_runs(ports, (0, hi))
                lo = 0
            if not self._kclean:
                self._rebuild_kernel(K_LWD)
                self._kclean = True
                codes = self._codes
            off = self._off
            tick = self._tick
            occ = self.occupancy
            slot = self.current_slot
            accepted = 0
            pushed = 0
            # Split exactly like the LQD kernel: greedy bulk-accept of the
            # run that fits, then a congested loop with no occupancy check.
            free = cap - occ
            split = lo
            if free > 0:
                nb = hi - lo
                take = free if free < nb else nb
                split = lo + take
                occ += take
                accepted += take
                for i in range(lo, split):
                    p = ports[i]
                    w = wcol[p]
                    ol = lens[p]
                    if ol:
                        nc = ncode[p]
                        del codes[bisect_left(codes, pcode[p])]
                        if ol < cores:
                            arm(p, ol)
                    else:
                        nc = (w + off) * nr + rank[p]
                        insort(active, p)
                        is_act[p] = True
                        e = tick + w
                        hexp[p] = e
                        b = sched.get(e)
                        if b is None:
                            sched[e] = [p]
                        else:
                            b.append(p)
                    insort(codes, nc)
                    pcode[p] = nc
                    ncode[p] = nc + w * nr
                    stores[p].append(
                        (
                            values[i],
                            arrivals[i] if arrivals is not None else slot,
                            0,
                        )
                    )
                    lens[p] = ol + 1
            i = split
            while i < hi:
                p = ports[i]
                ol = lens[p]
                if ol:
                    nc = ncode[p]
                else:
                    nc = (wcol[p] + off) * nr + rank[p]
                top = codes[-1]
                if nc > top:
                    # The same-port run drops as one (see the LQD kernel).
                    i += runs[i]
                    continue
                t = porder[top % nr]
                codes.pop()
                vl = lens[t] - 1
                lens[t] = vl
                stores[t].pop()
                if vl:
                    if vl < cores:
                        # An armed tail takes only its residual with it.
                        tc = top - (wins[t].pop() - tick) * nr
                        ncode[t] = tc + wcol[t] * nr
                    else:
                        tc = top - wcol[t] * nr
                        # tc + wcol[t]*nr == top: the popped key is exactly
                        # the victim queue's next-accept code.
                        ncode[t] = top
                    pcode[t] = tc
                    insort(codes, tc)
                else:
                    del active[bisect_left(active, t)]
                    is_act[t] = False
                pushed += 1
                w = wcol[p]
                if ol:
                    del codes[bisect_left(codes, pcode[p])]
                    if ol < cores:
                        arm(p, ol)
                else:
                    insort(active, p)
                    is_act[p] = True
                    e = tick + w
                    hexp[p] = e
                    b = sched.get(e)
                    if b is None:
                        sched[e] = [p]
                    else:
                        b.append(p)
                insort(codes, nc)
                pcode[p] = nc
                ncode[p] = nc + w * nr
                stores[p].append(
                    (
                        values[i],
                        arrivals[i] if arrivals is not None else slot,
                        0,
                    )
                )
                lens[p] = ol + 1
                accepted += 1
                i += 1
            self.occupancy = occ
            metrics.accepted += accepted
            metrics.pushed_out += pushed

    @hot_path
    def _arrive_bpd_cols(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        offsets: Sequence[int],
        runs: Sequence[int],
    ) -> Generator[None, int, None]:
        """BPD/BPD₁ arrival kernel over the candidate bitmask.

        Victim key: ``(w_j, j)`` argmax over the queues holding at least
        ``min_victim_len`` packets (1 for BPD, 2 for BPD₁) — the highest
        set rank bit. Accept iff the arrival's own static key is <= the
        victim's (equality means the arrival raids its own queue's tail,
        exactly like the reference); no candidate at all means DROP.
        """
        metrics = self.metrics
        lens = self._lens
        stores = self._stores
        sched = self._sched
        hexp = self._hexp
        active = self._active
        is_act = self._is_act
        wcol = self._works
        rank = self._rank
        porder = self._porder
        bit = self._bit
        wins = self._wins
        cores = self._cores
        arm = self._arm
        # A queue joins the candidate mask when it grows from ``below``
        # to mvl packets and leaves it when it shrinks back to ``below``.
        below = self._mvl - 1
        cap = self._B
        port_up = self._port_up if self._n_down else None
        cols = (ports, works, values, arrivals)
        while True:
            s = yield
            lo = offsets[s]
            hi = offsets[s + 1]
            if port_up is not None:
                ports, works, values, arrivals, hi = drop_down_arrivals(
                    port_up, None, *cols, lo, hi
                )
                runs = port_runs(ports, (0, hi))
                lo = 0
            tick = self._tick
            nm = self._nm
            occ = self.occupancy
            slot = self.current_slot
            accepted = 0
            pushed = 0
            # Split exactly like the LQD kernel: greedy bulk-accept of the
            # run that fits, then a congested loop with no occupancy check.
            free = cap - occ
            split = lo
            if free > 0:
                nb = hi - lo
                take = free if free < nb else nb
                split = lo + take
                occ += take
                accepted += take
                for i in range(lo, split):
                    p = ports[i]
                    ol = lens[p]
                    stores[p].append(
                        (
                            values[i],
                            arrivals[i] if arrivals is not None else slot,
                            0,
                        )
                    )
                    lens[p] = ol + 1
                    if ol == below:
                        nm |= bit[rank[p]]
                    if ol:
                        if ol < cores:
                            arm(p, ol)
                    else:
                        insort(active, p)
                        is_act[p] = True
                        e = tick + wcol[p]
                        hexp[p] = e
                        b = sched.get(e)
                        if b is None:
                            sched[e] = [p]
                        else:
                            b.append(p)
            i = split
            while i < hi:
                p = ports[i]
                r = rank[p]
                vr = nm.bit_length() - 1
                if r > vr:
                    # The same-port run drops as one (see the LQD kernel).
                    i += runs[i]
                    continue
                t = porder[vr]
                vl = lens[t] - 1
                lens[t] = vl
                stores[t].pop()
                if vl == below:
                    nm ^= bit[vr]
                if not vl:
                    del active[bisect_left(active, t)]
                    is_act[t] = False
                elif vl < cores:
                    wins[t].pop()
                pushed += 1
                # Read the own length only now: when r == vr the arrival
                # raided its own queue's tail, shortening it by one.
                ol = lens[p]
                stores[p].append(
                    (
                        values[i],
                        arrivals[i] if arrivals is not None else slot,
                        0,
                    )
                )
                lens[p] = ol + 1
                accepted += 1
                if ol == below:
                    nm |= bit[r]
                if ol:
                    if ol < cores:
                        arm(p, ol)
                else:
                    insort(active, p)
                    is_act[p] = True
                    e = tick + wcol[p]
                    hexp[p] = e
                    b = sched.get(e)
                    if b is None:
                        sched[e] = [p]
                    else:
                        b.append(p)
                i += 1
            self.occupancy = occ
            self._nm = nm
            metrics.accepted += accepted
            metrics.pushed_out += pushed

    @hot_path
    def _arrive_value_cols(
        self,
        kind: int,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        offsets: Sequence[int],
        runs: Sequence[int],
    ) -> Generator[None, int, None]:
        """Value-model arrival kernel over the victim-key list.

        Bulk-accepts the run that fits like the processing kernels,
        which leaves the keys stale. Right before a slot's first
        congested arrival, stale keys are rebuilt once; from there each
        kernel's own loop reads the top key (and, for MRD, the smallest
        buffered minimum) to decide, and a push-out files the victim's
        and the arrival's new keys inline. The victim's key is the top
        of the list, so it is popped. A priority queue's tail is its
        least valuable packet: index 0 of the ascending per-port
        stores.
        """
        metrics = self.metrics
        lens = self._lens
        tv = self._tv
        all_vals = self._vals
        all_recs = self._recs
        active = self._active
        is_act = self._is_act
        keys = self._vkeys
        key_of = self._vkey
        mins = self._vmins
        below = self._mvl - 1
        cap = self._B
        key: Tuple[Any, ...]
        old: Optional[Tuple[Any, ...]]
        port_up = self._port_up if self._n_down else None
        cols = (ports, works, values, arrivals)
        while True:
            s = yield
            lo = offsets[s]
            hi = offsets[s + 1]
            if port_up is not None:
                ports, works, values, arrivals, hi = drop_down_arrivals(
                    port_up, None, *cols, lo, hi
                )
                runs = port_runs(ports, (0, hi))
                lo = 0
            occ = self.occupancy
            slot = self.current_slot
            accepted = 0
            pushed = 0
            free = cap - occ
            split = lo
            if free > 0:
                nb = hi - lo
                take = free if free < nb else nb
                split = lo + take
                occ += take
                accepted += take
                for i in range(lo, split):
                    p = ports[i]
                    v = values[i]
                    w = works[i]
                    vals = all_vals[p]
                    pos = bisect_left(vals, v)
                    vals.insert(pos, v)
                    a = arrivals[i] if arrivals is not None else slot
                    all_recs[p].insert(pos, [v, a, 0, w, w])
                    tv[p] += v
                    if not lens[p]:
                        insort(active, p)
                        is_act[p] = True
                    lens[p] += 1
                self._kclean = False
            if split < hi and not self._kclean:
                # The slot's first congested arrival: file fresh keys once.
                self._rebuild_kernel(kind)
                self._kclean = True
                keys = self._vkeys
                key_of = self._vkey
                mins = self._vmins
            if kind == K_LQDV:
                # Victim key (|Q_j|, -tail_j, j), the arrival's own queue
                # counted one longer. A drop changes nothing the test reads
                # (it reads no arrival field but the port), so the rest of
                # the same-port run drops with it, as in the LQD kernel. The
                # own queue is never the victim: its real key is below its
                # virtual one.
                i = split
                while i < hi:
                    p = ports[i]
                    top = keys[-1]
                    ol = lens[p]
                    tl = top[0]
                    # The virtual length decides unless it ties the top's;
                    # only then is the virtual key built (an empty queue's
                    # tail, -inf, never wins the tie).
                    if ol >= tl or (
                        ol + 1 == tl and ol and (tl, -all_vals[p][0], p) > top
                    ):
                        i += runs[i]
                        continue
                    keys.pop()
                    t = top[2]
                    tvals = all_vals[t]
                    vv = tvals.pop(0)
                    del all_recs[t][0]
                    tv[t] -= vv
                    vl = tl - 1
                    lens[t] = vl
                    if vl:
                        key = (vl, -tvals[0], t)
                        insort(keys, key)
                        key_of[t] = key
                    else:
                        key_of[t] = None
                        del active[bisect_left(active, t)]
                        is_act[t] = False
                    pushed += 1
                    if ol:
                        del keys[bisect_left(keys, key_of[p])]
                    else:
                        insort(active, p)
                        is_act[p] = True
                    v = values[i]
                    w = works[i]
                    vals = all_vals[p]
                    pos = bisect_left(vals, v)
                    vals.insert(pos, v)
                    a = arrivals[i] if arrivals is not None else slot
                    all_recs[p].insert(pos, [v, a, 0, w, w])
                    tv[p] += v
                    lens[p] = ol + 1
                    key = (ol + 1, -vals[0], p)
                    insort(keys, key)
                    key_of[p] = key
                    accepted += 1
                    i += 1
            elif kind == K_MVD:
                # Victim key (-min_j, |Q_j|, j) over queues of at least
                # mvl packets; push out iff the victim's minimum is below
                # the arrival's value.
                for i in range(split, hi):
                    v = values[i]
                    if not keys or -keys[-1][0] >= v:
                        continue
                    p = ports[i]
                    top = keys.pop()
                    t = top[2]
                    tvals = all_vals[t]
                    vv = tvals.pop(0)
                    del all_recs[t][0]
                    tv[t] -= vv
                    vl = top[1] - 1
                    lens[t] = vl
                    if not vl:
                        del active[bisect_left(active, t)]
                        is_act[t] = False
                    pushed += 1
                    if t != p:
                        # (When t == p the popped key was the arrival's.)
                        if vl > below:
                            key = (-tvals[0], vl, t)
                            insort(keys, key)
                            key_of[t] = key
                        else:
                            key_of[t] = None
                        old = key_of[p]
                        if old is not None:
                            del keys[bisect_left(keys, old)]
                    w = works[i]
                    vals = all_vals[p]
                    pos = bisect_left(vals, v)
                    vals.insert(pos, v)
                    a = arrivals[i] if arrivals is not None else slot
                    all_recs[p].insert(pos, [v, a, 0, w, w])
                    tv[p] += v
                    ol = lens[p]
                    if not ol:
                        insort(active, p)
                        is_act[p] = True
                    lens[p] = ol + 1
                    if ol >= below:
                        key = (-vals[0], ol + 1, p)
                        insort(keys, key)
                        key_of[p] = key
                    else:
                        key_of[p] = None
                    accepted += 1
            else:
                # MRD: victim key (|Q_j| / (V_j / |Q_j|), -min_j, j), gated
                # on the global buffer minimum mins[0]. The victim's tail
                # is its minimum, which leaves mins with it.
                for i in range(split, hi):
                    v = values[i]
                    if mins[0] >= v:
                        continue
                    p = ports[i]
                    top = keys.pop()
                    t = top[2]
                    tvals = all_vals[t]
                    vv = tvals.pop(0)
                    del all_recs[t][0]
                    tv[t] -= vv
                    del mins[bisect_left(mins, vv)]
                    vl = lens[t] - 1
                    lens[t] = vl
                    if not vl:
                        del active[bisect_left(active, t)]
                        is_act[t] = False
                    pushed += 1
                    old = None
                    if t != p:
                        # (When t == p the popped key and minimum were the
                        # arrival's.)
                        if vl:
                            m = tvals[0]
                            insort(mins, m)
                            key = (vl / (tv[t] / vl), -m, t)
                            insort(keys, key)
                            key_of[t] = key
                        else:
                            key_of[t] = None
                        old = key_of[p]
                        if old is not None:
                            del keys[bisect_left(keys, old)]
                    w = works[i]
                    vals = all_vals[p]
                    pos = bisect_left(vals, v)
                    vals.insert(pos, v)
                    a = arrivals[i] if arrivals is not None else slot
                    all_recs[p].insert(pos, [v, a, 0, w, w])
                    tv[p] += v
                    ol = lens[p]
                    if not ol:
                        insort(active, p)
                        is_act[p] = True
                    nl = ol + 1
                    lens[p] = nl
                    m = vals[0]
                    if old is None:
                        insort(mins, m)
                    elif not pos:
                        # The arrival is the queue's new minimum.
                        del mins[bisect_left(mins, -old[1])]
                        insort(mins, m)
                    key = (nl / (tv[p] / nl), -m, p)
                    insort(keys, key)
                    key_of[p] = key
                    accepted += 1
            self.occupancy = occ
            metrics.accepted += accepted
            metrics.pushed_out += pushed

    @hot_path
    def _arrive_threshold_cols(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        offsets: Sequence[int],
        runs: Sequence[int],
    ) -> Generator[None, int, None]:
        """Arrival kernel for the non-push-out threshold policies.

        While the buffer has space, each arrival reads its own queue
        length and the one statistic the policy's rule names, and the
        policy's own ``admits`` decides; a static-cap policy reads the
        ``cap`` table built at bind time instead. The length statistics
        come from a sorted copy of the length column taken at the start
        of each slot: no queue shrinks in a non-push-out arrival phase,
        and an admission bumps the last copy entry equal to the old
        length, which keeps the copy sorted. Their rule results go
        through the per-bind memo ``_tmemo`` (see :meth:`_bind`). Once
        the buffer is full every later arrival of the slot drops, like
        ``ThresholdPolicy.admit``'s ``can_accept`` test. An admission
        is filed inline on either queue layout, so the kernel serves
        both: a priority queue's ascending stores, or a FIFO queue's
        store and calendar.
        """
        metrics = self.metrics
        lens = self._lens
        active = self._active
        is_act = self._is_act
        by_value = self._by_value
        # Priority layout.
        tv = self._tv
        all_vals = self._vals
        all_recs = self._recs
        # FIFO layout.
        stores = self._stores
        sched = self._sched
        hexp = self._hexp
        wcol = self._works
        cores = self._cores
        arm = self._arm
        stat = self._tstat
        caps = self._tcaps
        rule = self._trule
        memo = self._tmemo
        config = self.config
        queue_work = self.queue_work
        n = self._nr
        cap = self._B
        radix = cap + 1
        sorts = stat == STAT_LONGER or stat == STAT_AT_LEAST
        srt: List[int] = []
        ok: Optional[bool]
        port_up = self._port_up if self._n_down else None
        cols = (ports, works, values, arrivals)
        while True:
            s = yield
            lo = offsets[s]
            hi = offsets[s + 1]
            if port_up is not None:
                ports, works, values, arrivals, hi = drop_down_arrivals(
                    port_up, None, *cols, lo, hi
                )
                runs = port_runs(ports, (0, hi))
                lo = 0
            tick = self._tick
            occ = self.occupancy
            slot = self.current_slot
            accepted = 0
            if sorts:
                srt = sorted(lens)
            # The loop runs while the buffer has space: every rule
            # below reads a buffer that is not full.
            i = lo if occ < cap else hi
            while i < hi:
                p = ports[i]
                own = lens[p]
                if stat == STAT_CAP:
                    ok = own < caps[p]
                elif stat == STAT_FREE:
                    ok = rule(config, cap, own, cap - occ)
                elif stat == STAT_LONGER:
                    j = bisect_right(srt, own)
                    key = own * n + n - j
                    ok = memo.get(key)
                    if ok is None:
                        ok = memo[key] = rule(config, cap, own, n - j)
                    if ok:
                        # The admission below: bump the last entry
                        # equal to own.
                        srt[j - 1] += 1
                elif stat == STAT_AT_LEAST:
                    j = bisect_left(srt, own)
                    joint = sum(srt[j:])
                    key = (own * n + n - 1 - j) * radix + joint
                    ok = memo.get(key)
                    if ok is None:
                        ok = memo[key] = rule(config, cap, own, (n - j, joint))
                    if ok:
                        srt[bisect_right(srt, own) - 1] += 1
                else:  # STAT_WORK_AT_LEAST
                    own = queue_work(p)
                    m = 0
                    joint = 0
                    for q in range(n):
                        work = queue_work(q)
                        if work >= own:
                            m += 1
                            joint += work
                    ok = rule(config, cap, own, (m, joint))
                if ok:
                    v = values[i]
                    a = arrivals[i] if arrivals is not None else slot
                    ol = lens[p]
                    lens[p] = ol + 1
                    if by_value:
                        w = works[i]
                        vals = all_vals[p]
                        pos = bisect_left(vals, v)
                        vals.insert(pos, v)
                        all_recs[p].insert(pos, [v, a, 0, w, w])
                        tv[p] += v
                        if not ol:
                            insort(active, p)
                            is_act[p] = True
                    else:
                        stores[p].append((v, a, 0))
                        if ol:
                            if ol < cores:
                                arm(p, ol)
                        else:
                            insort(active, p)
                            is_act[p] = True
                            e = tick + wcol[p]
                            hexp[p] = e
                            b = sched.get(e)
                            if b is None:
                                sched[e] = [p]
                            else:
                                b.append(p)
                    occ += 1
                    accepted += 1
                    if occ == cap:
                        # A full buffer admits nothing: the rest of the
                        # slot drops, like ThresholdPolicy.admit's
                        # can_accept test.
                        break
                    i += 1
                    continue
                # A drop changes nothing the rule reads (the own length,
                # the statistic, the occupancy), so the rest of the
                # arrival's same-port run drops with it.
                i += runs[i]
            self.occupancy = occ
            metrics.accepted += accepted

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any column/store inconsistency.

        Validates the columnar state against the per-packet record
        stores (the object view): lengths, occupancy, the priority
        queues' value totals, active-set/mask coherence, the calendar's
        armed windows, priority ordering, the packet ledger (see
        :meth:`_check_ledger`) — and, when a kernel is bound and clean,
        the derived victim-selection structures against a from-scratch
        rebuild. This is the check that ``REPRO_CHECK_INVARIANTS`` runs
        periodically through ``run_system``.
        """
        config = self.config
        n = config.n_ports
        total = 0
        for port in range(n):
            length = self._lens[port]
            assert length >= 0, f"negative length column at port {port}"
            total += length
            if self._by_value:
                vals = self._vals[port]
                recs = self._recs[port]
                assert len(vals) == length and len(recs) == length, (
                    f"port {port}: length column {length} != store "
                    f"{len(recs)}/{len(vals)}"
                )
                assert vals == sorted(vals), f"port {port}: values unsorted"
                expect_value = 0.0
                for value, rec in zip(vals, recs):
                    assert rec[0] == value, f"port {port}: vals/recs skew"
                    assert rec[3] >= 1, f"port {port}: residual < 1"
                    expect_value += value
                assert abs(expect_value - self._tv[port]) < 1e-9, (
                    f"port {port}: tracked value {self._tv[port]} != "
                    f"{expect_value}"
                )
            else:
                store = self._stores[port]
                assert len(store) == length, (
                    f"port {port}: length column {length} != store "
                    f"{len(store)}"
                )
                self._check_window(port)
        assert total == self.occupancy, (
            f"occupancy {self.occupancy} != column total {total}"
        )
        assert 0 <= self.occupancy <= config.buffer_size
        expect_active = [p for p in range(n) if self._lens[p] > 0]
        assert self._active == expect_active, (
            f"active set {self._active} != {expect_active}"
        )
        assert self._is_act == [self._lens[p] > 0 for p in range(n)]
        # Churn accounting (mirrors the reference).
        assert self._n_down == self._port_up.count(False)
        for port, port_up in enumerate(self._port_up):
            if not port_up:
                assert self._lens[port] == 0, (
                    f"admin-down port {port} has buffered packets"
                )
        self._check_ledger()
        if self._kclean:
            self._check_kernel_invariants()

    def _check_ledger(self) -> None:
        """Packet conservation over the metrics.

        Every arrival was accepted or dropped, and every accepted
        packet was transmitted, pushed out, flushed or is buffered.
        The drop ledger is derived from these terms (see
        :meth:`run_span`), so the counted ones (admissions, push-outs,
        transmissions, flushes) are checked against each other: a
        miscounted flush or push-out fails here rather than passing
        into the per-port drops.
        """
        m = self.metrics
        assert m.arrived == m.accepted + m.dropped, (
            f"arrived {m.arrived} != accepted {m.accepted} + dropped "
            f"{m.dropped}"
        )
        held = m.transmitted_packets + m.pushed_out + m.flushed
        assert m.accepted == held + self.occupancy, (
            f"accepted {m.accepted} != transmitted, pushed out and "
            f"flushed {held} + occupancy {self.occupancy}"
        )
        assert sum(m.dropped_by_port) == m.dropped + m.pushed_out, (
            f"per-port drops {m.dropped_by_port} do not sum to dropped "
            f"{m.dropped} + pushed out {m.pushed_out}"
        )
        for port, drops in enumerate(m.dropped_by_port):
            assert drops >= 0, f"port {port}: {drops} drops"

    def _check_window(self, port: int) -> None:
        """A FIFO queue's armed packets: ``min(C, L)`` of them, head
        first, with non-decreasing expiry ticks in ``(tick, tick + w]``,
        each on the calendar."""
        length = self._lens[port]
        win = self._wins[port]
        armed = min(self._cores, length)
        assert len(win) == max(armed - 1, 0), (
            f"port {port}: armed window holds {len(win)} ticks, "
            f"expected {max(armed - 1, 0)}"
        )
        if not length:
            return
        ticks = [self._hexp[port]] + win
        assert ticks == sorted(ticks), (
            f"port {port}: armed expiry ticks {ticks} not non-decreasing"
        )
        tick = self._tick
        work = self._works[port]
        for expiry in ticks:
            assert tick < expiry <= tick + work, (
                f"port {port}: residual {expiry - tick} outside 1..{work}"
            )
            on_calendar = self._sched.get(expiry, ()).count(port)
            assert on_calendar >= ticks.count(expiry), (
                f"port {port}: expiry {expiry} not on the transmission "
                "calendar"
            )

    def _check_kernel_invariants(self) -> None:
        """Derived kernel structures must match a from-scratch rebuild."""
        kind = self._kkind
        n = self.config.n_ports
        rank = self._rank
        bit = self._bit
        if kind == K_LQD:
            expect_masks = [0] * (self._B + 2)
            for p in self._active:
                expect_masks[self._lens[p]] |= bit[rank[p]]
            assert self._masks == expect_masks, "LQD length bitsets stale"
            expect_maxl = max(
                (self._lens[p] for p in self._active), default=0
            )
            assert self._maxl == expect_maxl, (
                f"LQD maxl {self._maxl} != {expect_maxl}"
            )
            if expect_maxl:
                expect_topr = expect_masks[expect_maxl].bit_length() - 1
                assert self._topr == expect_topr, (
                    f"LQD top rank {self._topr} != {expect_topr}"
                )
        elif kind == K_LWD:
            off = self._off
            nr = self._nr
            expect_codes = []
            for p in self._active:
                code = (self.queue_work(p) + off) * nr + rank[p]
                assert self._pcode[p] == code, (
                    f"LWD code for port {p}: {self._pcode[p]} != {code}"
                )
                expect_next = code + self._works[p] * nr
                assert self._ncode[p] == expect_next, (
                    f"LWD next-code for port {p}: "
                    f"{self._ncode[p]} != {expect_next}"
                )
                expect_codes.append(code)
            expect_codes.sort()
            assert self._codes == expect_codes, "LWD code list stale"
        elif kind == K_BPD:
            expect_nm = self._bpd_mask()
            assert self._nm == expect_nm, (
                f"BPD bitmask {self._nm:b} != {expect_nm:b}"
            )
        elif kind == K_THRESHOLD:
            policy: Any = self._kpolicy
            assert self._tstat == policy.statistic, (
                f"threshold kernel bound to statistic {self._tstat!r}, "
                f"policy reads {policy.statistic!r}"
            )
            if self._tstat == STAT_CAP:
                expect_caps = [
                    policy.cap(self.config, p) for p in range(n)
                ]
                assert self._tcaps == expect_caps, "threshold caps stale"
            else:
                assert self._trule == policy.admits, "threshold rule stale"
                for key, ok in self._tmemo.items():
                    stat: Any
                    if self._tstat == STAT_LONGER:
                        own, stat = divmod(key, n)
                    else:
                        rest, joint = divmod(key, self._B + 1)
                        own, m = divmod(rest, n)
                        stat = (m + 1, joint)
                    expect = policy.admits(self.config, self._B, own, stat)
                    assert ok == expect, (
                        f"threshold memo at own={own}, stat={stat}: "
                        f"{ok} != {expect}"
                    )
        elif kind >= K_LQDV:
            keys, key_of, mins = self._value_keys(kind)
            assert self._vkey == key_of, "value kernel per-port keys stale"
            assert self._vkeys == keys, "value kernel key list stale"
            assert self._vmins == mins, "MRD minimum list stale"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lens = ",".join(str(length) for length in self._lens)
        return (
            f"VectorizedSwitch(slot={self.current_slot}, "
            f"occupancy={self.occupancy}/{self.config.buffer_size}, "
            f"queues=[{lens}])"
        )


__all__ = ["VectorizedSwitch", "drop_down_arrivals"]
