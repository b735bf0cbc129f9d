"""Deterministic, seeded fault injection for sweep execution.

This is the test harness behind the supervised executor: it makes
worker cells crash, die, hang, return corrupted payloads, or tear
cache writes at *chosen, reproducible* points, so every recovery path
in :mod:`repro.resilience.supervisor` (and the chaos test suite /
CI chaos-smoke job driving it) exercises real failures instead of
mocks.

Spec grammar
------------
A spec is a ``;``-separated list of clauses (whitespace ignored)::

    spec    := clause (";" clause)*
    clause  := mode "@" target ("x" count)?     -- fire at cell indices
             | mode "%" prob                    -- fire pseudo-randomly
             | "seed=" int                      -- seeds the "%" clauses
             | "delay=" seconds                 -- hang duration (s)
    target  := int ("," int)* | "*"
    mode    := crash | die | hang | corrupt | torn | interrupt

Examples::

    crash@0             cell 0 raises on its first attempt
    crash@0,3x2         cells 0 and 3 raise on their first two attempts
    die@1               cell 1 kills its worker process (BrokenProcessPool)
    hang@2;delay=120    cell 2 sleeps 120 s (tripping the cell timeout)
    corrupt@4           cell 4 returns a mangled payload once
    torn@0              the first cache write is torn mid-file
    interrupt@3         the run is interrupted after 3 completed cells
    crash%0.1;seed=7    ~10% of cells crash on their first attempt

Determinism contract
--------------------
``should(mode, index, attempt)`` is a *pure function* of the spec and
its arguments — the injector keeps no mutable state. That makes it
safe to inherit across ``fork`` into pool workers and across pool
rebuilds: a retried attempt sees ``attempt + 1`` and the fault stops
firing once the clause's count is exhausted, which is what lets an
injected chaos run converge to output byte-identical to a fault-free
run. Indexed clauses fire on attempts ``0 .. count-1``; ``*`` targets
fire on *every* attempt (for quarantine and pool-death testing);
probability clauses fire only on attempt 0.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.core.errors import ResilienceError

#: Environment variable carrying the fault spec (set by
#: ``--inject-faults``; inherited by forked pool workers).
FAULTS_ENV = "REPRO_FAULTS"

#: Recognized fault modes; all act inside cell execution and cache
#: writes.
FAULT_MODES = ("crash", "die", "hang", "corrupt", "torn", "interrupt")


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault injector.

    Deliberately *not* a :class:`~repro.core.errors.ReproError`: the
    supervisor treats library errors as deterministic bugs (fail fast)
    and everything else as transient (retry) — injected faults must
    land in the transient bucket to exercise the retry machinery.
    """


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause: fire ``mode`` at ``indices`` (or with prob)."""

    mode: str
    indices: Optional[FrozenSet[int]]  # None means "*" (every index)
    count: int = 1  # attempts 0..count-1 fire; ignored for "*"
    prob: Optional[float] = None  # probability clause (attempt 0 only)

    def matches(self, index: int, attempt: int, seed: int) -> bool:
        if self.prob is not None:
            return attempt == 0 and _hash01(seed, self.mode, index) < self.prob
        if self.indices is None:  # "*": every index, every attempt
            return True
        return index in self.indices and attempt < self.count


def _hash01(seed: int, mode: str, index: int) -> float:
    """Deterministic hash of (seed, mode, index) mapped into [0, 1)."""
    digest = hashlib.sha256(f"{seed}:{mode}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """Decides, deterministically, which (cell, attempt) pairs fail how.

    Construct via :meth:`parse` (spec string) or :meth:`from_env`
    (``REPRO_FAULTS``). ``delay`` is the sleep applied by ``hang``
    faults; keep it above the supervisor's cell timeout to simulate a
    true hang, or small to simulate a slow-then-failing worker.
    """

    def __init__(
        self,
        clauses: Tuple[FaultClause, ...],
        *,
        seed: int = 0,
        delay: float = 3600.0,
    ) -> None:
        self.clauses = tuple(clauses)
        self.seed = seed
        self.delay = delay

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Parse a fault spec (see the module docstring for the grammar).

        Raises :class:`~repro.core.errors.ResilienceError` on malformed
        input so the CLI fails fast instead of silently running an
        un-faulted chaos job.
        """
        clauses = []
        seed = 0
        delay = 3600.0
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = _parse_int(clause[5:], "seed", spec)
            elif clause.startswith("delay="):
                delay = _parse_float(clause[6:], "delay", spec)
                if delay < 0:
                    raise ResilienceError(
                        f"fault spec {spec!r}: delay must be >= 0"
                    )
            elif "%" in clause:
                mode, _, prob_text = clause.partition("%")
                prob = _parse_float(prob_text, "probability", spec)
                if not 0.0 <= prob <= 1.0:
                    raise ResilienceError(
                        f"fault spec {spec!r}: probability {prob} not in "
                        f"[0, 1]"
                    )
                clauses.append(
                    FaultClause(_check_mode(mode, spec), None, prob=prob)
                )
            elif "@" in clause:
                mode, _, target = clause.partition("@")
                mode = _check_mode(mode, spec)
                count = 1
                if "x" in target:
                    target, _, count_text = target.rpartition("x")
                    count = _parse_int(count_text, "count", spec)
                    if count < 1:
                        raise ResilienceError(
                            f"fault spec {spec!r}: count must be >= 1"
                        )
                if target.strip() == "*":
                    indices = None
                else:
                    indices = frozenset(
                        _parse_int(item, "cell index", spec)
                        for item in target.split(",")
                    )
                    if any(i < 0 for i in indices):
                        raise ResilienceError(
                            f"fault spec {spec!r}: cell indices must be >= 0"
                        )
                clauses.append(FaultClause(mode, indices, count=count))
            else:
                raise ResilienceError(
                    f"fault spec {spec!r}: clause {clause!r} is neither "
                    f"'mode@indices', 'mode%prob', 'seed=', nor 'delay='"
                )
        return cls(tuple(clauses), seed=seed, delay=delay)

    @classmethod
    def from_env(cls, env: str = FAULTS_ENV) -> Optional["FaultInjector"]:
        """The injector described by ``$REPRO_FAULTS``, or ``None``."""
        spec = os.environ.get(env)
        if not spec:
            return None
        return cls.parse(spec)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def should(self, mode: str, index: int, attempt: int = 0) -> bool:
        """Whether ``mode`` fires for (``index``, ``attempt``). Pure."""
        return any(
            clause.mode == mode and clause.matches(index, attempt, self.seed)
            for clause in self.clauses
        )

    def fire_in_cell(
        self, index: int, attempt: int, *, allow_exit: bool
    ) -> None:
        """Apply crash/die/hang faults at the top of a cell execution.

        ``allow_exit`` is True only inside pool worker processes —
        in-process (serial) execution downgrades ``die`` to a raised
        fault so an injected worker death can never kill the
        supervising process itself.
        """
        if self.should("crash", index, attempt):
            raise InjectedFault(
                f"injected crash in cell {index} (attempt {attempt})"
            )
        if self.should("die", index, attempt):
            if allow_exit:
                os._exit(86)  # hard death: no exception crosses the pipe
            raise InjectedFault(
                f"injected worker death in cell {index} (attempt {attempt}) "
                f"downgraded to a crash: not in a worker process"
            )
        if self.should("hang", index, attempt):
            time.sleep(self.delay)
            raise InjectedFault(
                f"injected hang in cell {index} (attempt {attempt}) woke "
                f"after {self.delay}s"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(clauses={self.clauses!r}, seed={self.seed}, "
            f"delay={self.delay})"
        )


def _check_mode(mode: str, spec: str) -> str:
    mode = mode.strip()
    if mode not in FAULT_MODES:
        raise ResilienceError(
            f"fault spec {spec!r}: unknown mode {mode!r}; known: "
            + ", ".join(FAULT_MODES)
        )
    return mode


def _parse_int(text: str, what: str, spec: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ResilienceError(
            f"fault spec {spec!r}: bad {what} {text.strip()!r}"
        ) from exc


def _parse_float(text: str, what: str, spec: str) -> float:
    try:
        return float(text.strip())
    except ValueError as exc:
        raise ResilienceError(
            f"fault spec {spec!r}: bad {what} {text.strip()!r}"
        ) from exc
