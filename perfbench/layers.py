"""Outside-in layer trace for the Fig. 5 sweep benchmark.

The spans are recorded from the benchmark's side: :meth:`Tracer.install`
wraps the functions the sweep calls at each layer boundary (module
attributes and class methods) and leaves the program's own files
untouched. A wrapped call records one span --
request id, span id, parent span id, layer name, start, end -- in
memory, and :meth:`Tracer.layer_self_seconds` derives each layer's self
time (its spans' durations minus the part covered by child spans).

Layers, outermost first, as one ``repro run fig5-N`` executes them:

``sweep``      the whole CLI call (root span, opened by the benchmark);
               its self time is the executor: argument parsing, cell
               planning, the supervised executor, reassembly, tables
``csv_write``  ``SweepResult.to_csv`` (atomic CSV publish)
``cache_io``   ``SweepCache.get`` / ``SweepCache.put`` (cold cache)
``cell``       ``repro.analysis.sweep._execute_cell``: one (value, seed)
``trace_gen``  the MMPP generators the Fig. 5 panel factories call
``alg_run``    ``run_system`` over a :class:`PolicySystem` (ALG replay)
``arrival``    ``SharedMemorySwitch.arrival_phase`` (admission, victims)
``transmit``   ``SharedMemorySwitch.transmission_phase``
``opt_run``    ``run_system`` over the OPT surrogate

The ``alg_run`` / ``opt_run`` spans are opened by the benchmark's one
``run_system`` wrapper (``run.ReplayHook``), which also counts packets.
A hook whose target no longer exists is skipped, so its layer reads 0.
Cache lookups are counted by the program itself (``SweepStats``); the
``to_csv`` hook keeps each sweep's stats.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: (request, span id, parent span id or -1, layer, start, end)
Span = Tuple[int, int, int, str, float, float]

LAYERS = (
    "sweep",
    "csv_write",
    "cache_io",
    "cell",
    "trace_gen",
    "alg_run",
    "arrival",
    "transmit",
    "opt_run",
)


class Tracer:
    """In-memory span recorder with a call stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = 0
        self._stack: List[int] = []
        self._next_id = 0
        self._undo: List[Callable[[], None]] = []
        #: ``SweepStats`` of every sweep whose CSV was written.
        self.stats: List = []

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span of ``layer``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                (self.request, span_id, parent, layer, start, end)
            )

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer, summed over every recorded span."""
        child_time: Dict[int, float] = defaultdict(float)
        for _req, _sid, parent, _layer, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for _req, sid, _parent, layer, start, end in self.spans:
            totals[layer] = totals.get(layer, 0.0) + (
                end - start - child_time[sid]
            )
        return totals

    def layer_calls(self) -> Counter:
        return Counter(span[3] for span in self.spans)

    def write_spans(self, path, request: int) -> None:
        """Write the spans of one request as JSON lines."""
        keys = ("request", "span", "parent", "layer", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span[0] == request:
                    handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append(lambda: setattr(owner, attr, original))

    def _hook(self, owner, attr: str, layer: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                return self.span(layer, original, *args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer boundary the default sweep path crosses."""
        from repro.analysis import sweep
        from repro.analysis.cache import SweepCache
        from repro.analysis.sweep import SweepResult
        from repro.core.switch import SharedMemorySwitch
        from repro.experiments import fig5

        def make_to_csv(original):
            def wrapper(result, *args, **kwargs):
                self.stats.append(result.stats)
                return self.span(
                    "csv_write", original, result, *args, **kwargs
                )

            return wrapper

        self._patch(SweepResult, "to_csv", make_to_csv)
        self._hook(SweepCache, "get", "cache_io")
        self._hook(SweepCache, "put", "cache_io")
        self._hook(sweep, "_execute_cell", "cell")
        # The panel factories resolve their generator from the fig5
        # namespace when the panel runs, so wrapping the names there
        # catches every trace the sweep generates.
        for name in dir(fig5):
            if name.endswith("_workload") and callable(getattr(fig5, name)):
                self._hook(fig5, name, "trace_gen")

        self._hook(SharedMemorySwitch, "arrival_phase", "arrival")
        self._hook(SharedMemorySwitch, "transmission_phase", "transmit")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def per_layer_metrics(
    tracer: Tracer, sweeps: int, points: int, packets: float, seconds: float
) -> Dict[str, Tuple[float, str]]:
    """The ``--trace 1`` metrics of ``sweeps`` traced sweeps.

    ``points``, ``packets`` (ALG arrivals replayed) and ``seconds`` are
    those of one mean sweep; self times are averaged over all sweeps.
    """
    self_s = tracer.layer_self_seconds()
    calls = tracer.layer_calls()
    metrics: Dict[str, Tuple[float, str]] = {
        "traced_packets_per_s": (packets / seconds, "1/s"),
        "traced_points_per_s": (points / seconds, "1/s"),
        "executor_self_ms": (1e3 * self_s["sweep"] / sweeps, "ms"),
    }
    for layer in LAYERS[1:]:
        metrics[f"{layer}_self_ms"] = (1e3 * self_s[layer] / sweeps, "ms")
    metrics["trace_gens_per_cell"] = (
        calls["trace_gen"] / max(1, calls["cell"]),
        "ratio",
    )
    lookups = sum(s.cache_hits + s.cache_misses for s in tracer.stats)
    metrics["cache_calls_per_point"] = (
        lookups / max(1, len(tracer.stats) * points),
        "count",
    )
    return metrics
