"""Supervised task execution: retries, timeouts, pool rebuilds.

Paper-scale sweeps run for hours over a ``ProcessPoolExecutor``; this
module is the layer that keeps them alive when individual cells crash,
hang, OOM, or return garbage. The :class:`SupervisedExecutor` wraps
the pool loop of :func:`repro.analysis.sweep.run_sweep` with:

* **per-cell wall-clock timeouts** — a cell that exceeds its budget has
  its worker processes killed and is retried on a fresh pool;
* **bounded retries with deterministic backoff** — failed attempts are
  rescheduled after ``base * factor**attempt`` seconds plus a
  deterministic jitter derived from (cell index, attempt), so two runs
  of the same chaos spec behave identically;
* **transparent pool rebuild** — a ``BrokenProcessPool`` (a worker died
  hard: segfault, OOM-kill, ``os._exit``) costs the in-flight cells one
  attempt each and the pool is rebuilt underneath them;
* **quarantine** — a cell that fails every attempt is set aside as a
  :class:`CellFailure` while the rest of the sweep completes;
* **graceful degradation** — when the pool keeps dying
  (``max_pool_rebuilds`` exceeded) the remaining cells run serially in
  the supervising process;
* **interrupt conversion** — SIGTERM is mapped onto SIGINT's
  ``KeyboardInterrupt``, and both are converted to
  :class:`~repro.core.errors.SweepInterrupted` *after* completed work
  has been handed to the caller's ``on_complete`` hook (which is what
  stores cells in the sweep cache), making Ctrl-C a clean,
  resumable exit instead of a pile of lost work.

Failure classification: :class:`~repro.core.errors.ReproError` and
``AssertionError`` are *deterministic* bugs — retrying cannot help, so
they re-raise immediately (completed cells were already flushed).
Everything else (injected faults, broken pools, timeouts, corrupt
payloads) is treated as transient and retried.

The executor is deliberately generic — tasks are opaque ``(index,
key, args)`` triples and results opaque objects — so chaos tests can
drive it directly, without a simulation behind it.
"""

from __future__ import annotations

import heapq
import signal
import threading
import time
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import SweepInterrupted
from repro.resilience.faults import FaultInjector, _hash01

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor


@dataclass
class SupervisorOptions:
    """Knobs of the supervised executor (CLI: ``--timeout/--retries``)."""

    #: Per-cell wall-clock budget in seconds (pool mode only; ``None``
    #: disables). A timed-out cell costs one attempt and a pool rebuild.
    timeout: Optional[float] = None
    #: Extra attempts after the first failure before quarantine.
    retries: int = 2
    #: Backoff: ``min(base * factor**attempt, max)`` seconds, stretched
    #: by up to ``jitter`` (fraction) of deterministic jitter.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.25
    #: Pool rebuilds tolerated before degrading to serial execution.
    max_pool_rebuilds: int = 3
    #: Poll granularity of the pool wait loop, seconds.
    poll_interval: float = 0.05

    def backoff_delay(self, index: int, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` of cell ``index``.

        Exponential in the attempt number, capped at ``backoff_max``,
        plus a jitter fraction derived by hashing (index, attempt) — no
        global RNG is consulted, so a chaos run's schedule is a pure
        function of its spec.
        """
        if attempt <= 0:
            return 0.0
        base = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        return base * (1.0 + self.backoff_jitter * _hash01(attempt, "backoff", index))


@dataclass
class ResilienceStats:
    """Counters of everything the supervisor had to absorb.

    The executor's counter sink; a sweep keeps it as
    :attr:`SweepStats.resilience <repro.analysis.sweep.SweepStats>`.
    """

    retries: int = 0          # attempts rescheduled after a failure
    timeouts: int = 0         # cells that exceeded the wall-clock budget
    failures: int = 0         # failed attempts of any transient kind
    corrupt_results: int = 0  # payloads rejected by validation
    pool_rebuilds: int = 0    # pools torn down (broken or timeout-killed)
    quarantined: int = 0      # cells that exhausted every attempt
    serial_fallbacks: int = 0 # 1 if execution degraded to serial

    def any(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        """Compact one-liner, e.g. ``2 retries, 1 timeout, 1 rebuild``."""
        parts = []
        for name, label in (
            ("retries", "retries"),
            ("timeouts", "timeouts"),
            ("corrupt_results", "corrupt results"),
            ("pool_rebuilds", "pool rebuilds"),
            ("quarantined", "quarantined"),
            ("serial_fallbacks", "serial fallback"),
        ):
            amount = getattr(self, name)
            if amount:
                parts.append(f"{amount} {label}")
        return ", ".join(parts) if parts else "clean"


@dataclass
class CellTask:
    """One unit of supervised work.

    ``index`` is the deterministic submission-order index the fault
    injector targets; ``key`` identifies the task to the caller;
    ``args`` travel to the worker function after (index, attempt).
    """

    index: int
    key: Any
    args: Tuple[Any, ...]
    attempt: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class CellFailure:
    """A quarantined cell: every attempt failed."""

    key: Any
    index: int
    attempts: int
    errors: Tuple[str, ...]

    def __str__(self) -> str:
        last = self.errors[-1] if self.errors else "unknown"
        return (
            f"cell {self.key} quarantined after {self.attempts} "
            f"attempts (last error: {last})"
        )


class _PoolDied(Exception):
    """Internal: the current pool must be torn down and rebuilt."""


def _is_deterministic(exc: BaseException) -> bool:
    """Errors retrying cannot fix: library errors and broken invariants."""
    from repro.core.errors import ReproError

    return isinstance(exc, (ReproError, AssertionError, TypeError))


class SupervisedExecutor:
    """Runs tasks to completion under retry/timeout/rebuild supervision.

    Parameters
    ----------
    pool_fn:
        Module-level (picklable) worker entry point, called in pool
        workers as ``pool_fn(index, attempt, *task.args)``.
    local_fn:
        Same contract, run in-process — the serial path and the
        degraded-pool fallback. May be a closure.
    n_jobs / mp_context:
        Worker count and multiprocessing context; ``n_jobs <= 1`` or a
        missing context selects pure in-process execution.
    options / stats:
        Supervision knobs and the counter sink.
    validate:
        Optional ``validate(task, result) -> Optional[str]``; a message
        marks the payload corrupt (counts as a transient failure).
    on_complete:
        ``on_complete(task, result, done_count)`` — invoked exactly once
        per task, in completion order, *before* any interrupt can
        surface; this is where callers store to the sweep cache.
    injector:
        Optional :class:`FaultInjector`; consulted for parent-side
        ``interrupt`` faults (worker-side faults fire inside the cell).
    """

    def __init__(
        self,
        pool_fn: Callable[..., Any],
        local_fn: Callable[..., Any],
        *,
        n_jobs: int = 1,
        mp_context=None,
        options: Optional[SupervisorOptions] = None,
        stats: Optional[ResilienceStats] = None,
        validate: Optional[Callable[[CellTask, Any], Optional[str]]] = None,
        on_complete: Optional[Callable[[CellTask, Any, int], None]] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self._pool_fn = pool_fn
        self._local_fn = local_fn
        self._n_jobs = n_jobs
        self._mp_context = mp_context
        self.options = options or SupervisorOptions()
        self.stats = stats if stats is not None else ResilienceStats()
        self._validate = validate
        self._on_complete = on_complete
        self._injector = injector
        self._completed = 0
        self._total = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self, tasks: Sequence[CellTask]
    ) -> Tuple[Dict[Any, Any], List[CellFailure]]:
        """Execute every task; returns (results by key, quarantined).

        Raises :class:`SweepInterrupted` on SIGINT/SIGTERM (or an
        injected interrupt) after in-flight completions were delivered.
        Deterministic errors re-raise immediately.
        """
        self._completed = 0
        self._total = len(tasks)
        results: Dict[Any, Any] = {}
        failures: List[CellFailure] = []
        queue: List[CellTask] = list(tasks)
        use_pool = (
            self._n_jobs > 1 and self._mp_context is not None and queue
        )
        with _term_as_interrupt():
            try:
                # Pool rounds with rebuilds, then a serial sweep of
                # whatever remains.
                while use_pool and queue:
                    try:
                        self._pool_round(queue, results, failures)
                    except _PoolDied:
                        self.stats.pool_rebuilds += 1
                        if (
                            self.stats.pool_rebuilds
                            > self.options.max_pool_rebuilds
                        ):
                            self.stats.serial_fallbacks = 1
                            use_pool = False
                if queue:
                    self._serial_round(queue, results, failures)
            except KeyboardInterrupt:
                raise SweepInterrupted(
                    f"sweep interrupted after {self._completed} of "
                    f"{self._total} cells; completed cells were flushed",
                    completed=self._completed,
                    total=self._total,
                ) from None
        return results, failures

    # ------------------------------------------------------------------
    # Completion / failure bookkeeping (shared by both rounds)
    # ------------------------------------------------------------------

    def _complete(
        self,
        task: CellTask,
        result: Any,
        results: Dict[Any, Any],
    ) -> None:
        """Validate and deliver one result; raises on injected interrupt."""
        if self._validate is not None:
            message = self._validate(task, result)
            if message is not None:
                self.stats.corrupt_results += 1
                raise _CorruptResult(message)
        results[task.key] = result
        self._completed += 1
        if self._on_complete is not None:
            self._on_complete(task, result, self._completed)
        if self._injector is not None and self._injector.should(
            "interrupt", self._completed
        ):
            raise KeyboardInterrupt

    def _record_failure(
        self,
        task: CellTask,
        exc: BaseException,
        retry_heap: List[Tuple[float, int, CellTask]],
        failures: List[CellFailure],
    ) -> None:
        """Charge one failed attempt; schedule a retry or quarantine."""
        self.stats.failures += 1
        task.errors.append(f"{type(exc).__name__}: {exc}")
        task.attempt += 1
        if task.attempt > self.options.retries:
            self.stats.quarantined += 1
            failures.append(
                CellFailure(
                    key=task.key,
                    index=task.index,
                    attempts=task.attempt,
                    errors=tuple(task.errors),
                )
            )
            return
        self.stats.retries += 1
        ready = time.monotonic() + self.options.backoff_delay(
            task.index, task.attempt
        )
        heapq.heappush(retry_heap, (ready, task.index, task))

    # ------------------------------------------------------------------
    # Serial round (jobs=1, non-POSIX, or degraded pool)
    # ------------------------------------------------------------------

    def _serial_round(
        self,
        queue: List[CellTask],
        results: Dict[Any, Any],
        failures: List[CellFailure],
    ) -> None:
        """In-process execution with the same retry/quarantine contract.

        Timeouts are not enforced here — there is no worker process to
        kill — so ``hang`` faults surface as slow failed attempts.
        """
        retry_heap: List[Tuple[float, int, CellTask]] = []
        pending = list(queue)
        queue.clear()
        while pending or retry_heap:
            if not pending:
                ready, _, task = heapq.heappop(retry_heap)
                delay = ready - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                pending.append(task)
            task = pending.pop(0)
            try:
                result = self._local_fn(task.index, task.attempt, *task.args)
                self._complete(task, result, results)
            except KeyboardInterrupt:
                raise
            except _CorruptResult as exc:
                self._record_failure(task, exc, retry_heap, failures)
            except BaseException as exc:
                if _is_deterministic(exc):
                    raise
                self._record_failure(task, exc, retry_heap, failures)

    # ------------------------------------------------------------------
    # Pool round (one pool lifetime)
    # ------------------------------------------------------------------

    def _pool_round(
        self,
        queue: List[CellTask],
        results: Dict[Any, Any],
        failures: List[CellFailure],
    ) -> None:
        """Drive tasks over one ProcessPoolExecutor until it drains.

        Raises :class:`_PoolDied` when the pool must be rebuilt (broken
        pool or a timeout kill); unfinished tasks are pushed back onto
        ``queue`` first, so the caller can simply loop.
        """
        # The process-pool stack is imported here, so a serial run
        # never loads it.
        from concurrent.futures import (
            FIRST_COMPLETED,
            BrokenExecutor,
            ProcessPoolExecutor,
            wait,
        )

        options = self.options
        max_workers = min(self._n_jobs, max(len(queue), 1))
        pool = ProcessPoolExecutor(
            max_workers=max_workers, mp_context=self._mp_context
        )
        inflight: Dict[Future, CellTask] = {}
        deadlines: Dict[Future, Optional[float]] = {}
        retry_heap: List[Tuple[float, int, CellTask]] = []

        def requeue_unfinished() -> None:
            queue.extend(inflight.values())
            inflight.clear()
            queue.extend(task for _, _, task in retry_heap)
            retry_heap.clear()

        drained = False
        try:
            while queue or retry_heap or inflight:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    queue.append(heapq.heappop(retry_heap)[2])
                # Submission window = pool width: every submitted future
                # is (approximately) running, which is what makes the
                # per-cell deadline meaningful.
                while queue and len(inflight) < max_workers:
                    task = queue.pop(0)
                    future = pool.submit(
                        self._pool_fn, task.index, task.attempt, *task.args
                    )
                    inflight[future] = task
                    deadlines[future] = (
                        now + options.timeout
                        if options.timeout is not None
                        else None
                    )
                if not inflight:
                    # Only backoffs remain; sleep until the nearest one.
                    time.sleep(
                        max(0.0, retry_heap[0][0] - time.monotonic())
                        if retry_heap
                        else options.poll_interval
                    )
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=options.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task = inflight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        result = future.result()
                        self._complete(task, result, results)
                    except KeyboardInterrupt:
                        raise
                    except BrokenExecutor as exc:
                        # A worker died hard. Every in-flight cell was
                        # plausibly running on this pool: charge each
                        # one attempt, then rebuild.
                        self._record_failure(task, exc, retry_heap, failures)
                        for other_future, other in list(inflight.items()):
                            self._record_failure(
                                other, exc, retry_heap, failures
                            )
                            inflight.pop(other_future)
                        requeue_unfinished()
                        raise _PoolDied from exc
                    except _CorruptResult as exc:
                        self._record_failure(task, exc, retry_heap, failures)
                    except BaseException as exc:
                        if _is_deterministic(exc):
                            raise
                        self._record_failure(task, exc, retry_heap, failures)
                # Deadline scan: kill the pool if any cell overran.
                now = time.monotonic()
                timed_out = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline is not None
                    and deadline < now
                    and future in inflight
                ]
                if timed_out:
                    for future in timed_out:
                        task = inflight.pop(future)
                        deadlines.pop(future, None)
                        self.stats.timeouts += 1
                        self._record_failure(
                            task,
                            TimeoutError(
                                f"cell exceeded the {options.timeout}s "
                                f"wall-clock budget"
                            ),
                            retry_heap,
                            failures,
                        )
                    # Untimed in-flight cells are requeued uncharged.
                    requeue_unfinished()
                    raise _PoolDied
            drained = True
        except (KeyboardInterrupt, _PoolDied):
            # Cells still running in workers are abandoned; the
            # shutdown below kills them, so a hung cell cannot stall
            # the rebuild or the clean exit.
            raise
        except BaseException:
            requeue_unfinished()
            raise
        finally:
            _shutdown_pool(pool, drained)


class _CorruptResult(RuntimeError):
    """A result payload that failed validation (transient: retried)."""


#: Seconds an idle worker of a drained pool gets to exit on the
#: shutdown sentinel before it is killed.
_EXIT_GRACE = 5.0


def _shutdown_pool(pool: ProcessPoolExecutor, drained: bool) -> None:
    """Tear a pool down completely: workers, then its threads.

    The next pool forks its workers from this process, and a fork taken
    while another thread holds a lock leaves the child blocked on that
    lock forever. So this returns only once the pool's management and
    queue-feeder threads have ended, and that needs every worker gone.
    A pool that did not drain still has cells running (hung, abandoned
    by an interrupt or an error) and its workers are killed at once;
    idle workers of a drained pool exit on the shutdown sentinel, and
    any that has not within :data:`_EXIT_GRACE` is killed too.

    ``ProcessPoolExecutor`` has no public API for either, so this
    reaches into ``_processes`` and ``_executor_manager_thread``
    deliberately; both are stable across the supported CPython
    versions. SIGKILL, not SIGTERM: workers fork with
    :class:`_term_as_interrupt`'s handler installed, and a worker
    blocked inside C code never runs it.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    if not drained:
        for process in processes:
            process.kill()
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken pools may object
        pass
    deadline = time.monotonic() + _EXIT_GRACE
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join()
    if manager is not None:
        manager.join()


class _term_as_interrupt:
    """Context manager mapping SIGTERM onto ``KeyboardInterrupt``.

    Installed only in the main thread (signal handlers cannot be set
    elsewhere); restores the previous handler on exit. This is what
    turns a supervisor-level preemption (SLURM, Kubernetes, systemd)
    into the same clean, resumable exit as Ctrl-C.
    """

    def __enter__(self) -> "_term_as_interrupt":
        self._previous = None
        if threading.current_thread() is threading.main_thread():
            def _raise(_signum, _frame):
                raise KeyboardInterrupt
            try:
                self._previous = signal.signal(signal.SIGTERM, _raise)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                self._previous = None
        return self

    def __exit__(self, *_exc: object) -> None:
        if self._previous is not None:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
