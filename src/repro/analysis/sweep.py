"""Parameter sweeps: competitive ratio as a function of k, B, or C.

Fig. 5 of the paper consists of nine such sweeps (three per traffic
regime). A sweep is declarative: a callable builds the switch
configuration for each parameter value, another builds the (seeded)
workload, and the runner measures every policy on the *same* trace per
(value, seed) pair — policies must be compared on identical arrivals for
the ratios to be comparable.

Execution model
---------------
The unit of work is a *cell*: one (parameter value, seed) pair. Within a
cell the trace is generated exactly once — from the cell's configuration
and its seed, nothing else — and replayed against every policy plus the
OPT surrogate, which is what makes per-policy ratios comparable. Cells
are mutually independent, so ``run_sweep(..., jobs=N)`` fans them out
over a :class:`concurrent.futures.ProcessPoolExecutor`; because each
worker re-derives its trace from the same ``(config, value, seed)``
triple the simulation is bit-for-bit identical to the serial path, and
results are reassembled in the canonical serial order (value, then seed,
then policy). The determinism contract is strict and tested: a parallel
run produces byte-identical CSV output to a serial run of the same spec.

Completed cells can be memoized in a content-addressed
:class:`~repro.analysis.cache.SweepCache`, letting interrupted
paper-scale runs resume and repeated panels skip straight to assembly.
Per-sweep throughput (cells/sec) and cache hit rate are collected in
:class:`SweepStats` and surfaced by the CLI and
``repro.experiments.report``.

Every cell funnels through :func:`repro.analysis.competitive.run_system`,
so sweeps inherit its fast-path behavior: idle empty-buffer stretches are
fast-forwarded, and setting ``REPRO_CHECK_INVARIANTS=K`` (exported to
worker processes automatically) runs the engine's O(B + n) self-checks
every ``K`` slots — cheap opt-in auditing for paper-scale runs without
per-slot scans.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.competitive import measure_policies
from repro.analysis.tracestore import TraceKeyFn, TraceStore
from repro.analysis.stats import Summary, summarize
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError, SweepExecutionError
from repro.policies import make_policy
from repro.resilience.faults import FaultInjector
from repro.resilience.supervisor import (
    CellTask,
    ResilienceStats,
    SupervisedExecutor,
    SupervisorOptions,
)
from repro.traffic.trace import Trace

if TYPE_CHECKING:
    import multiprocessing.context

    from repro.analysis.cache import SweepCache

ConfigFactory = Callable[[float], SwitchConfig]
TraceFactory = Callable[[SwitchConfig, float, int], Trace]
ProgressCallback = Callable[[str], None]


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter value, policy, seed) measurement."""

    param_value: float
    policy: str
    seed: int
    ratio: float
    alg_objective: float
    opt_objective: float


@dataclass
class SweepStats:
    """The one ledger of a :func:`run_sweep` call's telemetry.

    Its fields are the schema: cells, cache lookups, elapsed time,
    jobs, per-stage seconds and what the supervised executor absorbed.
    :meth:`summary` (CLI footers, report panels), ``repro profile`` and
    report.md's throughput table all render it, the last two through
    :meth:`ranked_stages`.

    ``cells_total`` counts (value, seed) pairs; a cell is *executed* when
    at least one of its policies had to be simulated (as opposed to all
    of them arriving from the cache). ``cache_hits``/``cache_misses``
    count per-(cell, policy) lookups, so a partially cached cell
    contributes to both.
    """

    cells_total: int = 0
    cells_executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    jobs: int = 1
    #: Accumulated wall-clock per pipeline stage across executed cells
    #: (``trace_gen`` / ``policy_run`` / ``opt_run``): each cell times
    #: its own stages and the runner folds them in as the cell
    #: completes. With ``jobs > 1`` the stages sum worker time, which
    #: can exceed ``elapsed_seconds``. Cached cells contribute nothing.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: What the supervised executor had to absorb (retries, timeouts,
    #: pool rebuilds, quarantined cells, ...): the executor's own
    #: counter sink, kept here as is. All zero on a clean run.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def cells_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.cells_total / self.elapsed_seconds

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    def ranked_stages(self) -> List[Tuple[str, float, float]]:
        """``(stage, seconds, share)`` per stage, hottest first.

        The first entry is the dominant stage. A share is the stage's
        fraction of the summed stage seconds (0.0 while that sum is 0).
        """
        total = sum(self.stage_seconds.values())
        return [
            (name, seconds, seconds / total if total > 0 else 0.0)
            for name, seconds in sorted(
                self.stage_seconds.items(),
                key=lambda item: item[1],
                reverse=True,
            )
        ]

    def summary(self) -> str:
        """One line for CLI footers and report appendices."""
        text = (
            f"{self.cells_total} cells in {self.elapsed_seconds:.2f}s "
            f"({self.cells_per_second:.2f} cells/s, jobs={self.jobs})"
        )
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            text += (
                f", cache {self.cache_hits}/{lookups} hits "
                f"({100 * self.cache_hit_rate:.0f}%)"
            )
        ranked = self.ranked_stages()
        if ranked:
            timed = ranked[0][1] > 0
            stages = ", ".join(
                f"{name} {seconds:.2f}s" + (f" ({share:.0%})" if timed else "")
                for name, seconds, share in ranked
            )
            text += f"; stages: {stages}"
            if timed:
                text += f"; dominant: {ranked[0][0]}"
        if self.resilience.any():
            text += f"; resilience: {self.resilience.summary()}"
        return text


@dataclass
class SweepResult:
    """All measurements of one sweep, with aggregation helpers."""

    name: str
    param_name: str
    points: List[SweepPoint] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats, compare=False)

    def policies(self) -> List[str]:
        seen: Dict[str, None] = {}
        for point in self.points:
            seen.setdefault(point.policy, None)
        return list(seen)

    def param_values(self) -> List[float]:
        seen: Dict[float, None] = {}
        for point in self.points:
            seen.setdefault(point.param_value, None)
        return sorted(seen)

    def series(self, policy: str) -> List[Tuple[float, Summary]]:
        """(parameter value, ratio summary across seeds) for one policy."""
        result = []
        for value in self.param_values():
            samples = [
                p.ratio
                for p in self.points
                if p.policy == policy and p.param_value == value
            ]
            if samples:
                result.append((value, summarize(samples)))
        return result

    def to_csv(self, path: Path | str) -> None:
        """Write the per-cell results as CSV, published atomically.

        The rows are rendered in memory and land via tmp + fsync +
        rename, so an interrupted run can never leave a truncated CSV
        for the byte-identity checks (serial vs parallel, resume) to
        trip over. Bytes are unchanged from the previous direct write
        (csv's default \\r\\n row terminator included).
        """
        from repro.resilience.atomic import atomic_write_text

        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(
            [
                self.param_name,
                "policy",
                "seed",
                "ratio",
                "alg_objective",
                "opt_objective",
            ]
        )
        for p in self.points:
            writer.writerow(
                [
                    p.param_value,
                    p.policy,
                    p.seed,
                    f"{p.ratio:.6f}",
                    f"{p.alg_objective:.3f}",
                    f"{p.opt_objective:.3f}",
                ]
            )
        atomic_write_text(path, buffer.getvalue())

    def format_table(self) -> str:
        """The sweep as a fixed-width table: one row per parameter value,
        one column per policy (mean ratio across seeds) — the same layout
        as a Fig. 5 panel read off as numbers."""
        policies = self.policies()
        header = [self.param_name.rjust(8)] + [p.rjust(9) for p in policies]
        lines = ["  ".join(header)]
        for value in self.param_values():
            cells = [f"{value:8g}"]
            for policy in policies:
                samples = [
                    pt.ratio
                    for pt in self.points
                    if pt.policy == policy and pt.param_value == value
                ]
                cells.append(
                    f"{summarize(samples).mean:9.4f}" if samples else " " * 9
                )
            lines.append("  ".join(cells))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Cell execution (shared by the serial and parallel paths)
# ----------------------------------------------------------------------


@dataclass
class _CellContext:
    """Everything a worker needs to measure one cell.

    Factories are often closures (the Fig. 5 panel builders are local
    functions), so this object cannot be pickled; the parallel path
    relies on fork inheritance instead — see :func:`_run_cell_in_worker`.
    """

    config_factory: ConfigFactory
    trace_factory: TraceFactory
    by_value: Optional[bool]
    flush_every: Optional[int]
    drain: bool
    #: Optional deterministic fault injector; inherited by forked pool
    #: workers along with the rest of the context.
    injector: Optional[FaultInjector] = None
    #: Cross-cell trace reuse (docs/PIPELINE.md): the content-key
    #: function and the store :func:`run_sweep` plans from it. Reuse
    #: is pure execution mechanics — it changes *when* a trace is
    #: generated, never *what* it contains — so neither field joins any
    #: cache key.
    trace_key: Optional[TraceKeyFn] = None
    trace_store: Optional[TraceStore] = None


def _execute_cell(
    ctx: _CellContext,
    value: float,
    seed: int,
    policy_names: Sequence[str],
    *,
    cell_index: int = 0,
    attempt: int = 0,
    in_worker: bool = False,
) -> Tuple[List[SweepPoint], Dict[str, float]]:
    """Measure ``policy_names`` on one (value, seed) cell.

    The trace is derived deterministically from (config, value, seed) and
    generated exactly once, so every policy in the cell sees identical
    arrivals — the invariant all ratio comparisons rest on. The OPT
    surrogate depends on the trace and config only, so it is replayed
    once per cell and every policy is scored against it. Both sides run
    on the vectorized engine wherever it serves the pair (the reference
    engine is the oracle, checked in ``benchmarks/test_engine_parity.py``).
    Serial and parallel runs both funnel through this function, which is
    what makes their outputs bit-for-bit identical.

    ``cell_index``/``attempt`` exist for the fault injector: crash,
    death, and hang faults fire at the top of the cell, corrupt faults
    mangle its result. A fault-free attempt of the same cell is
    untouched, which is what keeps chaos runs byte-identical to clean
    ones once every fault clause is exhausted.

    Returns the cell's points plus its per-stage wall-clock breakdown
    (``trace_gen`` / ``policy_run`` / ``opt_run``), which the runner
    folds into :attr:`SweepStats.stage_seconds`.
    """
    if ctx.injector is not None:
        ctx.injector.fire_in_cell(cell_index, attempt, allow_exit=in_worker)
    config = ctx.config_factory(value)
    started = time.perf_counter()
    store, key = ctx.trace_store, None
    if store is not None and ctx.trace_key is not None:
        key = ctx.trace_key(config, value, seed)
    if store is None or key is None:
        trace = ctx.trace_factory(config, value, seed)
    else:
        trace = store.get_or_build(
            key, lambda: ctx.trace_factory(config, value, seed)
        )
    stage_seconds = {"trace_gen": time.perf_counter() - started}
    outcomes = measure_policies(
        [make_policy(name) for name in policy_names],
        trace,
        config,
        by_value=ctx.by_value,
        opt="surrogate",
        flush_every=ctx.flush_every,
        drain=ctx.drain,
        stage_seconds=stage_seconds,
        engine="vectorized",
    )
    points = [
        SweepPoint(
            param_value=float(value),
            policy=policy_name,
            seed=seed,
            ratio=outcome.ratio,
            alg_objective=outcome.alg_objective,
            opt_objective=outcome.opt_objective,
        )
        for policy_name, outcome in zip(policy_names, outcomes)
    ]
    if ctx.injector is not None and ctx.injector.should(
        "corrupt", cell_index, attempt
    ):
        # Injected payload corruption: a NaN ratio up front and a
        # silently dropped policy at the back — both shapes the result
        # validator must catch.
        from dataclasses import replace

        points[0] = replace(points[0], ratio=float("nan"))
        points = points[:-1] if len(points) > 1 else points
    return points, stage_seconds


#: Cell context inherited by forked pool workers. Submitted arguments
#: must be picklable, but fork children share the parent's memory image
#: at creation time, so the (unpicklable) factories travel through this
#: module global instead of the call arguments.
_WORKER_CONTEXT: Optional[_CellContext] = None


def _run_cell_in_worker(
    cell_index: int,
    attempt: int,
    value: float,
    seed: int,
    policy_names: Tuple[str, ...],
) -> Tuple[List[SweepPoint], Dict[str, float]]:
    """Pool entry point: measure one cell using the forked context.

    The leading (index, attempt) pair is the supervised executor's
    worker-call contract; it lets the fault injector target specific
    cells and lets retried attempts escape exhausted fault clauses.
    """
    if _WORKER_CONTEXT is None:
        raise RuntimeError("worker forked without a context")
    return _execute_cell(
        _WORKER_CONTEXT,
        value,
        seed,
        policy_names,
        cell_index=cell_index,
        attempt=attempt,
        in_worker=True,
    )


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` where absent.

    :mod:`multiprocessing` is imported here, so a serial sweep never
    loads it.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` request: ``None``/1 serial, 0 = one per CPU.

    ``0`` counts the CPUs this process may run on (its affinity mask,
    so a ``taskset``- or cpuset-limited run is not oversubscribed),
    falling back to ``os.cpu_count()`` where the platform has no
    affinity call.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# Cache plumbing
# ----------------------------------------------------------------------


def _point_to_payload(point: SweepPoint) -> Dict[str, float]:
    return {
        "ratio": point.ratio,
        "alg_objective": point.alg_objective,
        "opt_objective": point.opt_objective,
    }


def _point_from_payload(
    payload: Mapping[str, float], value: float, seed: int, policy: str
) -> SweepPoint:
    return SweepPoint(
        param_value=float(value),
        policy=policy,
        seed=seed,
        ratio=float(payload["ratio"]),
        alg_objective=float(payload["alg_objective"]),
        opt_objective=float(payload["opt_objective"]),
    )


class _CellPlan:
    """Cache bookkeeping for one cell: hits up front, misses to run."""

    def __init__(
        self,
        value: float,
        seed: int,
        cached: Dict[str, SweepPoint],
        missing: Tuple[str, ...],
        keys: Dict[str, str],
    ) -> None:
        self.value = value
        self.seed = seed
        self.cached = cached
        self.missing = missing
        self.keys = keys


def _plan_trace_store(
    to_run: Sequence[_CellPlan],
    config_factory: ConfigFactory,
    trace_key: Optional[TraceKeyFn],
) -> Optional[TraceStore]:
    """The trace store for the cells that will run: each content key
    counted once per cell that uses it (``None`` keys opt out)."""
    if trace_key is None:
        return None
    uses = Counter(
        trace_key(config_factory(plan.value), plan.value, plan.seed)
        for plan in to_run
    )
    uses.pop(None, None)
    return TraceStore(uses)


def _plan_cells(
    param_values: Sequence[float],
    seeds: Sequence[int],
    policy_names: Sequence[str],
    config_factory: ConfigFactory,
    cache: Optional[SweepCache],
    cache_token: Optional[Mapping[str, object]],
    by_value: Optional[bool],
    flush_every: Optional[int],
    drain: bool,
) -> List[_CellPlan]:
    """Resolve every cell against the cache (all misses when disabled)."""
    plans: List[_CellPlan] = []
    for value in param_values:
        config = config_factory(value) if cache is not None else None
        for seed in seeds:
            cached: Dict[str, SweepPoint] = {}
            keys: Dict[str, str] = {}
            missing: List[str] = []
            for policy in policy_names:
                if cache is None:
                    missing.append(policy)
                    continue
                assert cache_token is not None  # validated by run_sweep
                key = cache.key(
                    config=config,
                    workload=cache_token,
                    policy=policy,
                    param_value=value,
                    seed=seed,
                    by_value=by_value,
                    flush_every=flush_every,
                    drain=drain,
                )
                keys[policy] = key
                payload = cache.get(key)
                if payload is None:
                    missing.append(policy)
                else:
                    cached[policy] = _point_from_payload(
                        payload, value, seed, policy
                    )
            plans.append(
                _CellPlan(value, seed, cached, tuple(missing), keys)
            )
    return plans


def _validate_cell_result(
    plan: _CellPlan, cell_result: Any
) -> Optional[str]:
    """Reject structurally wrong or non-finite cell payloads.

    Returns a diagnostic string when the payload is unusable (the
    supervisor counts it corrupt and retries the cell) and ``None``
    when it is sound. This is the read-side half of the end-to-end
    integrity story: the cache checksums entries at rest, this checks
    results in flight — whether mangled by a sick worker, a truncated
    pickle, or the ``corrupt`` fault injector.
    """
    try:
        points, stage_seconds = cell_result
    except (TypeError, ValueError):
        return f"cell result is not a (points, stages) pair: {cell_result!r}"
    if not isinstance(stage_seconds, Mapping):
        return f"cell stage breakdown is not a mapping: {stage_seconds!r}"
    got = [getattr(point, "policy", None) for point in points]
    if got != list(plan.missing):
        return (
            f"cell ({plan.value:g}, {plan.seed}) returned policies "
            f"{got!r}, expected {list(plan.missing)!r}"
        )
    for point in points:
        if (
            point.param_value != float(plan.value)
            or point.seed != plan.seed
        ):
            return (
                f"point {point.policy!r} belongs to cell "
                f"({point.param_value:g}, {point.seed}), not "
                f"({plan.value:g}, {plan.seed})"
            )
        for field_name in ("ratio", "alg_objective", "opt_objective"):
            number = getattr(point, field_name)
            if not isinstance(number, float) or not math.isfinite(number):
                return (
                    f"point {point.policy!r} has non-finite "
                    f"{field_name}={number!r}"
                )
    return None


# ----------------------------------------------------------------------
# The sweep runner
# ----------------------------------------------------------------------


def run_sweep(
    name: str,
    param_name: str,
    param_values: Sequence[float],
    config_factory: ConfigFactory,
    trace_factory: TraceFactory,
    policy_names: Sequence[str],
    *,
    seeds: Sequence[int] = (0,),
    by_value: Optional[bool] = None,
    flush_every: Optional[int] = None,
    drain: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    cache_token: Optional[Mapping[str, object]] = None,
    progress: Optional[ProgressCallback] = None,
    resilience: Optional[SupervisorOptions] = None,
    fault_injector: Optional[FaultInjector] = None,
    trace_key: Optional[TraceKeyFn] = None,
) -> SweepResult:
    """Measure every policy at every parameter value over every seed.

    The trace for a (value, seed) pair is generated once and replayed
    against all policies and the OPT surrogate.

    Parameters
    ----------
    jobs:
        Worker processes for cell execution. ``None``/1 run serially in
        this process; ``0`` means one worker per CPU core. Parallel runs
        produce byte-identical results to serial runs (cells are
        reassembled in the canonical value, seed, policy order).
    cache:
        Optional :class:`~repro.analysis.cache.SweepCache`; completed
        (cell, policy) measurements are reused, newly computed ones
        stored as each cell completes. Requires ``cache_token``. This
        is what makes an interrupted run resumable: SIGINT/SIGTERM
        surface as :class:`~repro.core.errors.SweepInterrupted` *after*
        completed cells were stored, and rerunning the same sweep on
        the same cache recomputes only the cells that had not
        finished.
    cache_token:
        JSON-serializable description of the workload generator behind
        ``trace_factory`` (experiment id, model, ``n_slots``, load, ...).
        It becomes part of the content address, so two sweeps share
        entries only when their traces are genuinely identical.
    progress:
        Called with one formatted line per completed cell — lightweight
        progress reporting for paper-scale runs.
    resilience:
        Supervision knobs (per-cell timeout, retry budget, backoff,
        pool-rebuild tolerance); defaults apply when omitted. Failures
        beyond the retry budget quarantine the cell and surface as
        :class:`~repro.core.errors.SweepExecutionError` carrying the
        partial result — completed cells are never discarded.
    fault_injector:
        Deterministic chaos source for tests and the CI chaos-smoke
        job; falls back to the ``REPRO_FAULTS`` environment spec when
        omitted. Injected faults are absorbed by the supervision layer,
        so a chaos run's output is byte-identical to a clean run's.
    trace_key:
        Cross-cell trace reuse (:mod:`repro.analysis.tracestore`).
        ``trace_key`` maps each cell's ``(config, value, seed)`` to a
        content key covering everything its generator consumes (a
        ``None`` key opts the cell out); cells sharing a key generate
        their trace once and replay the stored columns. The sweep owns
        its :class:`~repro.analysis.tracestore.TraceStore`: after the
        cache skips it counts each key's uses over the
        cells that will run, and the store drops a trace at its key's
        last use, so no trace outlives the cells that share it and a
        single-use key is never held. A cell retried after its key's
        last use rebuilds the trace. Forked ``jobs=N`` workers inherit
        the whole plan and count down their own copy, so a worker may
        hold a shared trace until it exits. Reuse is excluded from
        cache keys: it cannot change any cell's
        arrivals, only skip regenerating them — output is
        byte-identical to regenerating every trace, serial or
        parallel.
    """
    if not param_values:
        raise ConfigError("sweep needs at least one parameter value")
    if not policy_names:
        raise ConfigError("sweep needs at least one policy")
    if cache is not None and cache_token is None:
        raise ConfigError(
            "caching a sweep requires a cache_token describing the "
            "workload (see repro.analysis.cache)"
        )
    n_jobs = resolve_jobs(jobs)
    injector = (
        fault_injector
        if fault_injector is not None
        else FaultInjector.from_env()
    )
    if (
        cache is not None
        and injector is not None
        and cache.fault_injector is None
    ):
        cache.fault_injector = injector

    started = time.perf_counter()
    # A cache may be shared across sweeps (the report runs nine panels on
    # one); snapshot its counters so stats reflect this sweep only.
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    plans = _plan_cells(
        param_values,
        seeds,
        policy_names,
        config_factory,
        cache,
        cache_token,
        by_value,
        flush_every,
        drain,
    )
    to_run = [plan for plan in plans if plan.missing]

    computed: Dict[Tuple[float, int], Dict[str, SweepPoint]] = {}
    stats = SweepStats(cells_total=len(plans))

    ctx = _CellContext(
        config_factory=config_factory,
        trace_factory=trace_factory,
        by_value=by_value,
        flush_every=flush_every,
        drain=drain,
        injector=injector,
        trace_key=trace_key,
        trace_store=_plan_trace_store(to_run, config_factory, trace_key),
    )

    def finish_cell(
        plan: _CellPlan,
        cell_result: Tuple[Sequence[SweepPoint], Mapping[str, float]],
        done: int,
    ) -> None:
        points, stage_seconds = cell_result
        for stage, seconds in stage_seconds.items():
            stats.stage_seconds[stage] = (
                stats.stage_seconds.get(stage, 0.0) + seconds
            )
        by_policy = {point.policy: point for point in points}
        computed[(plan.value, plan.seed)] = by_policy
        if cache is not None:
            for policy, point in by_policy.items():
                cache.put(plan.keys[policy], _point_to_payload(point))
        if progress is not None:
            elapsed = time.perf_counter() - started
            rate = done / elapsed if elapsed > 0 else 0.0
            progress(
                f"{name}: cell {done}/{len(to_run)} "
                f"({param_name}={plan.value:g}, seed={plan.seed}) "
                f"[{rate:.2f} cells/s]"
            )

    mp_context = None
    if to_run and n_jobs > 1:
        mp_context = _fork_context()
        if mp_context is None:  # pragma: no cover - non-POSIX
            warnings.warn(
                "parallel sweeps need the 'fork' start method; "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            n_jobs = 1

    plan_by_key = {(plan.value, plan.seed): plan for plan in to_run}
    tasks = [
        CellTask(
            index=index,
            key=(plan.value, plan.seed),
            args=(plan.value, plan.seed, plan.missing),
        )
        for index, plan in enumerate(to_run)
    ]

    def local_fn(
        index: int,
        attempt: int,
        value: float,
        seed: int,
        missing: Tuple[str, ...],
    ) -> Tuple[List[SweepPoint], Dict[str, float]]:
        return _execute_cell(
            ctx, value, seed, missing,
            cell_index=index, attempt=attempt, in_worker=False,
        )

    executor = SupervisedExecutor(
        _run_cell_in_worker,
        local_fn,
        n_jobs=n_jobs,
        mp_context=mp_context,
        options=resilience,
        stats=stats.resilience,
        validate=lambda task, result: _validate_cell_result(
            plan_by_key[task.key], result
        ),
        on_complete=lambda task, result, done: finish_cell(
            plan_by_key[task.key], result, done
        ),
        injector=injector,
    )

    failures: List = []
    if tasks:
        global _WORKER_CONTEXT
        _WORKER_CONTEXT = ctx
        try:
            _, failures = executor.run(tasks)
        finally:
            _WORKER_CONTEXT = None

    # Reassemble in the canonical serial order regardless of completion
    # order or cache state, so output bytes never depend on scheduling.
    # With quarantined cells the result is partial: their points are
    # simply absent (and the error below carries the failure details).
    result = SweepResult(name=name, param_name=param_name)
    for plan in plans:
        fresh = computed.get((plan.value, plan.seed), {})
        for policy in policy_names:
            point = fresh.get(policy) or plan.cached.get(policy)
            if point is None:
                assert failures, (
                    f"cell ({plan.value}, {plan.seed}) lost policy "
                    f"{policy}"
                )
                continue
            result.points.append(point)

    stats.cells_executed = len(to_run)
    stats.jobs = n_jobs
    if cache is not None:
        stats.cache_hits = cache.hits - hits_before
        stats.cache_misses = cache.misses - misses_before
    stats.elapsed_seconds = time.perf_counter() - started
    result.stats = stats
    if failures:
        preview = "; ".join(str(failure) for failure in failures[:3])
        if len(failures) > 3:
            preview += f"; ... ({len(failures) - 3} more)"
        raise SweepExecutionError(
            f"sweep {name!r}: {len(failures)} of {len(plans)} cells "
            f"quarantined after exhausting retries ({preview})",
            failures=tuple(failures),
            result=result,
        )
    return result
