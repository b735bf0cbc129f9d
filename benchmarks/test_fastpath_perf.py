"""Engine floors: the vectorized engine against the reference engine.

Every floor times both engines on the same pinned panel *in the same
process*, so it gates the engine, not the host: a committed baseline
would gate on machine speed. The two sides' runs alternate, so a spell
of contention on a shared host slows both; each side keeps its best of
N runs, which absorbs scheduler noise (single runs vary up to 2x), and
a 25% fence absorbs the rest: a floor ``F`` passes when the vectorized
side runs at least ``F * 0.75`` times the reference side's slots/s.
Each floor also asserts that the two engines reach equal per-policy
objectives, so a fast engine that decides differently fails too.

* Engine floors (:func:`repro.bench.run_panel_bench`): every ``-small``
  panel at floor 1, so it holds 75% of the reference engine's rate,
  and the large-``n`` panels at the margin the column
  kernels buy, 98x, 27x and 7x, at 10x their pinned slot counts so the
  runs clear timer granularity. A large-panel floor below its fence
  means a kernel stopped binding and the engine fell back to
  per-arrival scans. ``dynamic-split-small`` has no floor: a split
  buffer has no kernel, so both sides would run the reference engine
  (``tests/test_bench.py`` pins that fallback, and the golden fixture
  its metrics on both engines).
* OPT-surrogate floors (``make_surrogate``): the array-backed
  surrogate must keep 2x over the ``bisect`` oracle on the large
  panels, which every Fig. 5 cell replays once per trace.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.competitive import ENGINES, run_system
from repro.bench import PANELS, run_panel_bench
from repro.core.config import QueueDiscipline
from repro.opt.surrogate import make_surrogate

from conftest import run_once

#: Fractional fence under every floor.
FENCE = 0.25

#: The small panels the vectorized engine serves (no reserved slots).
SMALL_PANELS = tuple(
    name
    for name, panel in PANELS.items()
    if name.endswith("-small") and not panel.reserved_per_port
)

LARGE_PANELS = (
    "adversarial-proc-large",
    "mmpp-proc-large",
    "adversarial-value-large",
)

#: (panel, slots scale, floor, reference repeats, vectorized repeats).
ENGINE_FLOORS = [(name, 1.0, 1.0, 3, 3) for name in SMALL_PANELS] + [
    ("adversarial-proc-large", 10.0, 98.0, 3, 5),
    ("mmpp-proc-large", 10.0, 27.0, 3, 5),
    ("adversarial-value-large", 10.0, 7.0, 3, 5),
]

SURROGATE_FLOOR = 2.0
SURROGATE_SCALE = 10.0
SURROGATE_REPEATS = 3


def _best_panel_runs(panel, scale, reference_repeats, vectorized_repeats):
    """Each engine's best run of ``panel``, the two engines' runs
    interleaved so that a spell of host contention hits both sides."""
    repeats = {
        "reference": reference_repeats,
        "vectorized": vectorized_repeats,
    }
    runs = {engine: [] for engine in ENGINES}
    for i in range(max(repeats.values())):
        for engine in ENGINES:
            if i < repeats[engine]:
                runs[engine].append(
                    run_panel_bench(panel, engine, slots_scale=scale)
                )
    best = {
        engine: max(runs[engine], key=lambda result: result.slots_per_s)
        for engine in ENGINES
    }
    return best["reference"], best["vectorized"]


def _shortfall(name, ratio, floor):
    return (
        f"{name}: vectorized runs {ratio:.2f}x the reference engine, "
        f"below floor {floor:g}x less the {FENCE:.0%} fence "
        f"({floor * (1 - FENCE):.2f}x)"
    )


@pytest.mark.parametrize(
    "name, scale, floor, reference_repeats, vectorized_repeats",
    ENGINE_FLOORS,
    ids=[floor[0] for floor in ENGINE_FLOORS],
)
def test_vectorized_engine_holds_its_floor(
    benchmark, name, scale, floor, reference_repeats, vectorized_repeats
):
    panel = PANELS[name]
    reference, vectorized = run_once(
        benchmark,
        lambda: _best_panel_runs(
            panel, scale, reference_repeats, vectorized_repeats
        ),
    )
    assert vectorized.objectives() == reference.objectives()
    ratio = vectorized.slots_per_s / reference.slots_per_s
    benchmark.extra_info["reference_slots_per_s"] = round(
        reference.slots_per_s, 1
    )
    benchmark.extra_info["vectorized_slots_per_s"] = round(
        vectorized.slots_per_s, 1
    )
    benchmark.extra_info["ratio"] = round(ratio, 2)
    assert ratio >= floor * (1 - FENCE), _shortfall(name, ratio, floor)


def _best_surrogate_runs(trace, config, by_value):
    """Each surrogate's best replay seconds and its objective, the two
    engines' replays interleaved; the trace and the packet view the
    reference surrogate reads are built outside the timer."""
    _ = trace.slots
    times = {engine: [] for engine in ENGINES}
    objectives = {}
    for _ in range(SURROGATE_REPEATS):
        for engine in ENGINES:
            system = make_surrogate(config, by_value, engine=engine)
            started = time.perf_counter()
            metrics = run_system(system, trace)
            times[engine].append(time.perf_counter() - started)
            objectives[engine] = metrics.objective(by_value)
    return {engine: min(times[engine]) for engine in ENGINES}, objectives


@pytest.mark.parametrize("name", LARGE_PANELS)
def test_vectorized_surrogate_holds_its_floor(benchmark, name):
    panel = PANELS[name]
    trace = panel.trace(SURROGATE_SCALE)
    config = panel.config()
    by_value = config.discipline is QueueDiscipline.PRIORITY
    seconds, objectives = run_once(
        benchmark, lambda: _best_surrogate_runs(trace, config, by_value)
    )
    assert objectives["vectorized"] == objectives["reference"]
    ratio = seconds["reference"] / seconds["vectorized"]
    benchmark.extra_info["reference_s"] = round(seconds["reference"], 4)
    benchmark.extra_info["vectorized_s"] = round(seconds["vectorized"], 4)
    benchmark.extra_info["ratio"] = round(ratio, 2)
    assert ratio >= SURROGATE_FLOOR * (1 - FENCE), _shortfall(
        name, ratio, SURROGATE_FLOOR
    )
