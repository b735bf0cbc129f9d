"""Farm job specs: how a worker rebuilds a sweep's cell context.

The local pool path ships unpicklable closures to workers by fork
inheritance; a socket worker on another host has no shared memory
image, so a farm job is the *declarative* replacement: a JSON-
serializable ``(kind, spec)`` pair that names a registered builder
plus everything it needs to reconstruct the exact cell function —
``FarmJob("fig5", {"panel": 4, "n_slots": ..., ...})`` rebuilds the
same factories :func:`repro.experiments.fig5.run_panel` uses, so a
farmed cell is bit-for-bit the cell the serial path would compute.

When the spec carries a ``cache_dir``, the worker resolves each leased
policy against the shared content-addressed
:class:`~repro.analysis.cache.SweepCache` before computing (and stores
fresh measurements after) — the cache is the farm's shared artifact
store, checksummed on read at both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.errors import FarmError
from repro.resilience.faults import FaultInjector

#: Job wire-format version; bumped on incompatible changes.
JOB_SCHEMA_VERSION = 1

#: ``runner(index, attempt, value, seed, policies) -> (points, stages)``
CellRunner = Callable[
    [int, int, float, int, Tuple[str, ...]],
    Tuple[List[Any], Dict[str, float]],
]

#: ``builder(spec, injector, allow_exit) -> CellRunner``
JobBuilder = Callable[
    [Mapping[str, Any], Optional[FaultInjector], bool], CellRunner
]

_BUILDERS: Dict[str, JobBuilder] = {}


@dataclass(frozen=True)
class FarmJob:
    """A JSON-serializable recipe for rebuilding cell execution."""

    kind: str
    spec: Mapping[str, Any]

    def to_wire(self) -> Dict[str, Any]:
        return {
            "schema": JOB_SCHEMA_VERSION,
            "kind": self.kind,
            "spec": dict(self.spec),
        }


def register_job_kind(kind: str) -> Callable[[JobBuilder], JobBuilder]:
    """Register a builder for a job kind (decorator)."""

    def decorate(builder: JobBuilder) -> JobBuilder:
        _BUILDERS[kind] = builder
        return builder

    return decorate


def build_cell_runner(
    job: Mapping[str, Any],
    *,
    injector: Optional[FaultInjector] = None,
    allow_exit: bool = True,
) -> CellRunner:
    """Resolve a wire-format job into its cell runner.

    ``injector`` is the *worker's* fault injector: crash/die/hang/
    corrupt faults fire inside the rebuilt cell exactly as they do in
    pool workers. ``allow_exit=False`` (in-process test workers)
    downgrades ``die`` so an injected death cannot kill the host
    process.
    """
    schema = job.get("schema")
    if schema != JOB_SCHEMA_VERSION:
        raise FarmError(
            f"farm job has schema {schema!r}; this worker speaks "
            f"{JOB_SCHEMA_VERSION}"
        )
    kind = job.get("kind")
    builder = _BUILDERS.get(str(kind))
    if builder is None:
        raise FarmError(
            f"unknown farm job kind {kind!r}; known: "
            + ", ".join(sorted(_BUILDERS))
        )
    spec = job.get("spec")
    if not isinstance(spec, Mapping):
        raise FarmError(f"farm job spec is not an object: {spec!r}")
    return builder(spec, injector, allow_exit)


@register_job_kind("fig5")
def _build_fig5_runner(
    spec: Mapping[str, Any],
    injector: Optional[FaultInjector],
    allow_exit: bool,
) -> CellRunner:
    """Rebuild a Fig. 5 panel cell, mirroring ``run_panel`` exactly."""
    from repro.analysis.cache import SweepCache
    from repro.analysis.competitive import DEFAULT_ENGINE
    from repro.analysis.sweep import (
        _CellContext,
        _execute_cell,
        _point_from_payload,
        _point_to_payload,
    )
    from repro.experiments.fig5 import (
        PANELS,
        _panel_factories,
        panel_cache_token,
    )

    try:
        panel = int(spec["panel"])
        n_slots = int(spec["n_slots"])
        load = float(spec["load"])
        flush_every = (
            int(spec["flush_every"])
            if spec.get("flush_every") is not None
            else None
        )
        engine = str(spec.get("engine") or DEFAULT_ENGINE)
        cache_dir = spec.get("cache_dir")
    except (KeyError, TypeError, ValueError) as exc:
        raise FarmError(f"malformed fig5 farm job spec: {exc}") from exc
    panel_spec = PANELS.get(panel)
    if panel_spec is None:
        raise FarmError(f"fig5 farm job names unknown panel {panel}")
    config_factory, trace_factory, _trace_key = _panel_factories(
        panel_spec, n_slots, load
    )
    by_value = panel_spec.model != "processing"
    ctx = _CellContext(
        config_factory=config_factory,
        trace_factory=trace_factory,
        by_value=by_value,
        flush_every=flush_every,
        drain=False,
        injector=injector,
        engine=engine,
    )
    cache = SweepCache(cache_dir) if cache_dir else None
    token = (
        panel_cache_token(panel_spec, n_slots, load)
        if cache is not None
        else None
    )

    def run(
        index: int,
        attempt: int,
        value: float,
        seed: int,
        policies: Tuple[str, ...],
    ) -> Tuple[List[Any], Dict[str, float]]:
        cached: Dict[str, Any] = {}
        keys: Dict[str, str] = {}
        if cache is not None:
            config = config_factory(value)
            for policy in policies:
                key = cache.key(
                    config=config,
                    workload=token,
                    policy=policy,
                    param_value=value,
                    seed=seed,
                    by_value=by_value,
                    flush_every=flush_every,
                    drain=False,
                )
                keys[policy] = key
                payload = cache.get(key)
                if payload is not None:
                    cached[policy] = _point_from_payload(
                        payload, value, seed, policy
                    )
        missing = tuple(p for p in policies if p not in cached)
        stages: Dict[str, float] = {}
        fresh: Dict[str, Any] = {}
        if missing:
            points, stages = _execute_cell(
                ctx,
                value,
                seed,
                missing,
                cell_index=index,
                attempt=attempt,
                in_worker=allow_exit,
            )
            fresh = {point.policy: point for point in points}
            if cache is not None:
                for policy, point in fresh.items():
                    # Never store a non-finite measurement (e.g. the
                    # ``corrupt`` fault's NaN): the coordinator rejects
                    # the result and retries, and the retry must find a
                    # clean cache, not a poisoned one.
                    if policy in keys and all(
                        math.isfinite(getattr(point, name))
                        for name in (
                            "ratio",
                            "alg_objective",
                            "opt_objective",
                        )
                    ):
                        cache.put(keys[policy], _point_to_payload(point))
        # Reassemble in lease order so the coordinator-side shape
        # validation (points == plan.missing, in order) holds whether a
        # policy came from the shared cache or a fresh simulation.
        merged = []
        for policy in policies:
            point = fresh.get(policy) or cached.get(policy)
            if point is not None:
                merged.append(point)
        return merged, stages

    return run
