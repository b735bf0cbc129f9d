"""Competitive-ratio measurement: drive ALG and OPT over the same trace.

An algorithm ALG is alpha-competitive when, for every arrival sequence, its
objective is at least ``1/alpha`` of the optimal offline objective. The
empirical analogue, used throughout the paper's Section V, replays a single
trace through both an online policy and an OPT reference and reports

    ``ratio = OPT objective / ALG objective  (>= 1 means ALG is worse)``.

Both systems see identical arrivals; they differ only in admission (and,
for the single-PQ surrogate, buffer architecture). Periodic *flushouts*
(Section V-A) clear both buffers every ``flush_every`` slots so that
transient backlog cannot dominate long runs.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet
from repro.opt.surrogate import System, make_surrogate
from repro.traffic.trace import Trace

if TYPE_CHECKING:
    from repro.core.switch import AdmissionPolicy, SharedMemorySwitch
    from repro.obs.observer import SlotObserver


#: Engine identifiers accepted by the ``engine=`` seam. ``reference``
#: is the per-packet object engine (the oracle); ``vectorized`` is the
#: columnar batch-slot engine of :mod:`repro.core.columnar`, decision-
#: identical by contract (see docs/VECTORIZED.md).
ENGINES = ("reference", "vectorized")


class PolicySystem:
    """A shared-memory switch driven by a buffer-management policy.

    Adapts the (switch, policy) pair to the :class:`~repro.opt.surrogate.
    System` interface shared with the OPT surrogates, so the runner can
    treat every contender uniformly.

    ``engine`` selects the simulation engine: ``"reference"`` (the
    per-packet oracle, where policies run their naive selectors) or
    ``"vectorized"`` (the columnar batch-slot engine, where victim
    selection is a column kernel). The vectorized engine serves the
    purely shared buffer model with a policy that has a kernel
    (:meth:`VectorizedSwitch.serves`); any other pair is built on the
    reference engine, which makes the same decisions by contract, and
    :attr:`engine` names the engine actually built. A system exposes
    the slot entry point of its engine only: ``run_slot`` (and
    ``attach_observer``) on the reference engine, ``run_span`` (and
    ``bind_columns``) on the vectorized one. Observers attach to the
    reference engine only: passing ``observer`` with
    ``engine="vectorized"`` raises :class:`ConfigError`.
    """

    def __init__(
        self,
        config: SwitchConfig,
        policy: AdmissionPolicy,
        *,
        observer: Optional[SlotObserver] = None,
        engine: str = "reference",
    ) -> None:
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if engine == "vectorized":
            from repro.core.columnar import VectorizedSwitch

            if observer is not None:
                raise ConfigError(
                    "observers attach to the reference engine only; "
                    "build this system with engine='reference' to "
                    "record per-packet events"
                )
            if not VectorizedSwitch.serves(config, policy):
                engine = "reference"
        if engine == "vectorized":
            switch = VectorizedSwitch(config)
            self.switch: Union[SharedMemorySwitch, VectorizedSwitch] = switch
            # Each engine advertises only its own slot entry point, as
            # an instance attribute, so the runner's ``getattr`` probe
            # picks the columnar span path here and the packet view
            # below. They refer to the switch, never to this system, so
            # no reference cycle keeps a replayed switch
            # alive until the next cyclic garbage collection.
            self.run_span = partial(switch.run_span, policy)
            self.bind_columns = switch.bind_columns
        else:
            from repro.core.switch import SharedMemorySwitch

            reference = SharedMemorySwitch(config, observer=observer)
            self.switch = reference
            self.run_slot = partial(reference.run_slot, policy=policy)
            # Only the per-packet engine emits observer events, so only
            # reference systems advertise ``attach_observer``;
            # ``run_system`` rejects an observer for any other system.
            self.attach_observer = reference.attach_observer
        #: The engine this system runs on (see the class docstring).
        self.engine = engine
        self.policy = policy

    @property
    def metrics(self) -> SwitchMetrics:
        return self.switch.metrics

    @property
    def backlog(self) -> int:
        return self.switch.occupancy

    def fast_forward(self, n_slots: int) -> None:
        self.switch.fast_forward(n_slots)

    def set_port_state(self, port: int, up: bool) -> int:
        """Forward a churn event to the switch; returns reclaimed count."""
        return self.switch.set_port_state(port, up)

    def flush(self) -> int:
        return self.switch.flush()

    def check_invariants(self) -> None:
        self.switch.check_invariants()


@dataclass(frozen=True)
class CompetitiveResult:
    """Outcome of one ALG-vs-OPT replay."""

    policy_name: str
    opt_name: str
    alg_objective: float
    opt_objective: float
    by_value: bool
    alg_metrics: SwitchMetrics
    opt_metrics: SwitchMetrics

    @property
    def ratio(self) -> float:
        """Empirical competitive ratio ``OPT / ALG`` (inf when ALG idle)."""
        if self.alg_objective <= 0:
            return float("inf") if self.opt_objective > 0 else 1.0
        return self.opt_objective / self.alg_objective

    def summary(self) -> str:
        return (
            f"{self.policy_name}: ratio={self.ratio:.4f} "
            f"(ALG={self.alg_objective:.1f}, {self.opt_name}="
            f"{self.opt_objective:.1f})"
        )


def invariant_check_interval() -> int:
    """The opt-in self-check cadence from ``REPRO_CHECK_INVARIANTS``.

    Unset, empty, or ``0`` disables checking (returns 0). ``1`` enables it
    at the default cadence of every 256 slots; any larger integer is used
    as the cadence directly. Invariant scans are O(B + n) each, which is
    why long runs opt in at an interval instead of paying per slot.
    """
    raw = os.environ.get("REPRO_CHECK_INVARIANTS", "").strip()
    if not raw:
        return 0
    try:
        interval = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_CHECK_INVARIANTS must be an integer, got {raw!r}"
        ) from None
    if interval <= 0:
        return 0
    return 256 if interval == 1 else interval


def run_system(
    system: System,
    trace: Trace,
    *,
    flush_every: Optional[int] = None,
    drain_slots: int = 0,
    observer: Optional[SlotObserver] = None,
) -> SwitchMetrics:
    """Replay a trace through one system, with optional flushouts/drain.

    Every system is driven in spans of slots (see :func:`_span_runner`):
    the trace is cut at the flushout and invariant-check boundaries and
    at churn-event slots, and each piece runs as one span. Systems with
    a ``run_span`` (the vectorized engines) replay the trace's columns,
    ``run_span(ports, works, values, arrivals, offsets, s0, s1)``; every
    other system replays the trace's cached packet view through its
    ``run_slot``. A span stops early at an arrival-free slot that starts
    on an empty buffer, and that idle stretch is fast-forwarded in one
    step (the switch is a fixed point of such slots, so the replay is
    observably identical; an attached observer sees the stretch as one
    explicit idle event). The drain runs through the same spans.
    Setting ``REPRO_CHECK_INVARIANTS`` runs the system's self-checks
    every K slots (see :func:`invariant_check_interval`). Passing
    ``observer`` attaches a :class:`~repro.obs.observer.SlotObserver`
    for the duration of the run; the system must expose
    ``attach_observer`` (reference-engine systems do; vectorized ones
    and the OPT surrogates do not).

    A replay continues the system's own slot clock: flushouts and
    invariant checks fall where the clock (``system.metrics.
    slots_elapsed``, read once on entry) crosses a multiple of their
    cadence, so a fresh system counts from the trace's first slot, and
    consecutive windows of a trace (:meth:`Trace.window`,
    :meth:`Trace.from_chunks` with the window's first slot) replayed
    through one system replay exactly like their concatenation,
    whatever the window length. Drain only the last window.
    """
    if flush_every is not None and flush_every < 1:
        raise ConfigError(f"flush_every must be >= 1, got {flush_every}")
    if observer is not None:
        attach = getattr(system, "attach_observer", None)
        if attach is None:
            raise ConfigError(
                f"{type(system).__name__} does not support observers"
            )
        attach(observer)
    check_every = invariant_check_interval()
    if check_every and not hasattr(system, "check_invariants"):
        check_every = 0
    # The system's slot clock on entry: trace slot ``s`` is clock slot
    # ``base + s``, and the cadences count on the clock.
    base = system.metrics.slots_elapsed

    # Port churn: events apply at the start of their slot, before that
    # slot's arrivals, on systems that support them. ``or None``
    # normalizes an empty mapping so static traces skip the machinery.
    port_events = trace.port_events or None
    set_port_state = None
    if port_events is not None:
        set_port_state = getattr(system, "set_port_state", None)
        if set_port_state is None:
            raise ConfigError(
                f"{type(system).__name__} does not support port churn "
                "(trace carries port_events)"
            )

    span = _span_runner(system, trace)
    offsets = trace.offsets
    n_slots = trace.n_slots
    event_slots = sorted(port_events) if port_events is not None else []
    slot = 0
    while slot < n_slots:
        if port_events is not None:
            events = port_events.get(slot)
            if events is not None:
                assert set_port_state is not None
                for event in events:
                    set_port_state(event.port, event.up)
        # The span ends at the next flushout, invariant check or
        # churn-event slot, whichever comes first.
        end = n_slots
        clock = base + slot
        if flush_every is not None:
            end = min(end, slot + flush_every - clock % flush_every)
        if check_every:
            end = min(end, slot + check_every - clock % check_every)
        k = bisect_right(event_slots, slot)
        if k < len(event_slots):
            end = min(end, event_slots[k])
        stop = span(slot, end)
        if stop < end:
            # An arrival-free slot on an empty buffer: skip the whole
            # idle stretch at once, up to the next slot with arrivals
            # or churn events, and the flushouts inside it. They would
            # clear an empty buffer, which counts nothing, though it
            # would zero the float rounding residue a drained queue's
            # value total keeps (MRD's key reads it); every system
            # skips the same boundaries, so the engines agree.
            slot = stop + 1
            while (
                slot < n_slots
                and offsets[slot + 1] == offsets[slot]
                and (port_events is None or slot not in port_events)
            ):
                slot += 1
            system.fast_forward(slot - stop)
            continue
        slot = end
        clock = base + slot
        if flush_every is not None and clock % flush_every == 0:
            system.flush()
        if check_every and clock % check_every == 0:
            system.check_invariants()
    return _drain(system, drain_slots, check_every)


def _span_runner(system: System, trace: Trace) -> Callable[[int, int], int]:
    """``span(s0, s1)``: run the trace slots ``[s0, s1)`` through
    ``system`` and return the first slot not run.

    A span stops early at an arrival-free slot that starts on an empty
    buffer, which the caller fast-forwards. Systems with a ``run_span``
    replay the trace's columns, after ``bind_columns`` (where exposed)
    has validated them; every other system replays the trace's cached
    packet view (:attr:`Trace.slots`) through its ``run_slot``.
    """
    run_span = getattr(system, "run_span", None)
    if run_span is None:
        return partial(_packet_span, system, trace.slots)
    bind = getattr(system, "bind_columns", None)
    if bind is not None:
        bind(trace)
    return partial(
        run_span,
        trace.ports,
        trace.works,
        trace.values,
        trace.arrivals,
        trace.offsets,
    )


def _packet_span(
    system: Any, slots: Sequence[Sequence[Packet]], s0: int, s1: int
) -> int:
    """:func:`_span_runner`'s span over packet bursts, slot by slot,
    for a system whose slot entry point is ``run_slot``."""
    run_slot = system.run_slot
    for slot in range(s0, s1):
        arrivals = slots[slot]
        if not arrivals and not system.backlog:
            return slot
        run_slot(arrivals)
    return s1


def _drain(
    system: System, drain_slots: int, check_every: int
) -> SwitchMetrics:
    """Run empty slots until the buffer empties (at most
    ``drain_slots``), then report.

    The drain is a trace of empty slots, run in spans cut at the
    invariant-check cadence, counted from the drain's start.
    """
    if drain_slots and system.backlog:
        span = _span_runner(
            system, Trace.from_columns([0] * (drain_slots + 1), [], [], [])
        )
        drained = 0
        while drained < drain_slots:
            end = drain_slots
            if check_every:
                end = min(end, drained + check_every - drained % check_every)
            if span(drained, end) < end:
                break
            drained = end
            if check_every and drained % check_every == 0:
                system.check_invariants()
    return system.metrics


def measure_competitive_ratio(
    policy: AdmissionPolicy,
    trace: Trace,
    config: SwitchConfig,
    *,
    by_value: Optional[bool] = None,
    opt: Union[str, System] = "surrogate",
    flush_every: Optional[int] = None,
    drain: bool = False,
    stage_seconds: Optional[Dict[str, float]] = None,
    engine: str = "reference",
) -> CompetitiveResult:
    """Replay ``trace`` through ``policy`` and an OPT reference.

    One-policy form of :func:`measure_policies`; see there for the
    parameters.
    """
    return measure_policies(
        [policy],
        trace,
        config,
        by_value=by_value,
        opt=opt,
        flush_every=flush_every,
        drain=drain,
        stage_seconds=stage_seconds,
        engine=engine,
    )[0]


def measure_policies(
    policies: Sequence[AdmissionPolicy],
    trace: Trace,
    config: SwitchConfig,
    *,
    by_value: Optional[bool] = None,
    opt: Union[str, System] = "surrogate",
    flush_every: Optional[int] = None,
    drain: bool = False,
    stage_seconds: Optional[Dict[str, float]] = None,
    engine: str = "reference",
) -> List[CompetitiveResult]:
    """Replay ``trace`` through each of ``policies`` and, once, through
    an OPT reference; one result per policy, in order.

    The OPT replay depends only on (config, trace, flushouts, drain),
    so every policy is scored against the same OPT metrics. Every
    replay is a call to this module's :func:`run_system`.

    Parameters
    ----------
    policies:
        The online buffer-management policies under test (none: no
        replay at all).
    trace:
        The common arrival sequence.
    config:
        Switch configuration shared by ALG and (for scripted OPT) OPT.
    by_value:
        Objective selector; defaults from the configured discipline
        (priority queues imply the value objective).
    opt:
        ``"surrogate"`` — the paper's single priority queue with ``n*C``
        cores (Section V-A); ``"scripted"`` — replay the trace's
        ``opt_accept`` tags on a normal switch (adversarial scenarios);
        or any pre-built :class:`~repro.opt.surrogate.System`.
    flush_every:
        Clear both buffers every this many slots (the paper's flushouts).
    drain:
        After the trace, run empty slots until both systems empty (bounded
        by ``B * k`` slots), crediting buffered packets.
    stage_seconds:
        Optional ``{stage: seconds}`` mapping; when given, the
        wall-clock of the ALG replays is added to its ``policy_run``
        entry and that of the OPT replay to ``opt_run`` — the split
        :class:`~repro.analysis.sweep.SweepStats` reports.
    engine:
        Simulation engine (``"reference"`` or ``"vectorized"``) for the
        ALG side *and* the OPT-PQ surrogate (which has an array-backed
        variant with the same decisions). The scripted replay stays on
        the reference engine. Decision parity between engines means the
        measured ratio is engine-independent by contract, so ``engine``
        is deliberately excluded from cache keys.
    """
    if not policies:
        return []
    if by_value is None:
        by_value = config.discipline is QueueDiscipline.PRIORITY

    if isinstance(opt, str):
        if opt == "surrogate":
            opt_system: System = make_surrogate(
                config, by_value, engine=engine
            )
            opt_name = "OPT-PQ"
        elif opt == "scripted":
            from repro.opt.scripted import ScriptedPolicy

            opt_system = PolicySystem(config, ScriptedPolicy())
            opt_name = "Scripted-OPT"
        else:
            raise ConfigError(f"unknown OPT reference {opt!r}")
    else:
        opt_system = opt
        opt_name = type(opt).__name__

    drain_slots = config.buffer_size * config.max_work if drain else 0

    started = time.perf_counter()
    alg_metrics: List[SwitchMetrics] = [
        run_system(
            PolicySystem(config, policy, engine=engine), trace,
            flush_every=flush_every, drain_slots=drain_slots,
        )
        for policy in policies
    ]
    alg_done = time.perf_counter()
    opt_metrics = run_system(
        opt_system, trace,
        flush_every=flush_every, drain_slots=drain_slots,
    )
    if stage_seconds is not None:
        for stage, seconds in (
            ("policy_run", alg_done - started),
            ("opt_run", time.perf_counter() - alg_done),
        ):
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    opt_objective = opt_metrics.objective(by_value)
    return [
        CompetitiveResult(
            policy_name=getattr(policy, "name", type(policy).__name__),
            opt_name=opt_name,
            alg_objective=metrics.objective(by_value),
            opt_objective=opt_objective,
            by_value=by_value,
            alg_metrics=metrics,
            opt_metrics=opt_metrics,
        )
        for policy, metrics in zip(policies, alg_metrics)
    ]


def run_scenario(scenario, drain: bool = False) -> CompetitiveResult:
    """Execute an adversarial scenario against its target policy.

    Convenience wrapper: builds the scenario's target policy by name,
    replays its trace against the scripted clairvoyant OPT, and returns
    the measured ratio (to compare with ``scenario.predicted_ratio``).

    ``drain`` defaults to off: the proofs count transmissions over the
    construction's period, and round lengths are engineered so OPT's
    buffer empties while the target policy is left holding the packets it
    mis-admitted — crediting those through a drain phase would understate
    the bound (in steady state the next round's burst reclaims that
    buffer space anyway).
    """
    from repro.policies import make_policy  # local import to avoid cycles

    policy = make_policy(scenario.target_policy)
    return measure_competitive_ratio(
        policy,
        scenario.trace,
        scenario.config,
        by_value=scenario.by_value,
        opt="scripted",
        drain=drain,
    )
