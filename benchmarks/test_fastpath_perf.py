"""Regression gate for the production (vectorized) simulation engine.

Three layers of protection, from machine-independent to absolute:

1. **Head-to-head** — the vectorized engine must beat the naive O(n)
   reference engine on the adversarial large-``n`` panel by a wide
   margin *on the same machine in the same process*. This catches an
   engine that silently degenerates to per-packet scans, regardless of
   host speed.
2. **Determinism drift** — every panel's per-policy objectives on the
   vectorized engine must equal the values recorded in the committed
   ``BENCH_seed.json`` (produced by the naive engine before any
   acceleration existed). Any mismatch means the production engine
   changed simulation *decisions*, not just speed.
3. **Absolute throughput** — on the vectorized engine the small panels
   must stay within 25% of the committed baseline rates, and the
   adversarial large-``n`` panel must hold a 2x speedup over them; the
   naive engine with no observer attached must hold 97% of them. These
   compare against numbers recorded on the development machine; on much
   slower hardware rerun ``repro bench --tag seed --mode naive`` to
   re-pin.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import (
    PANELS,
    compare_speedup,
    load_report,
    run_bench,
    run_obs_bench,
    run_panel_bench,
    select_panels,
)

from conftest import run_once

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_seed.json"


@pytest.fixture(scope="module")
def seed_report():
    return load_report(BASELINE_PATH)


def test_fast_beats_naive_head_to_head(benchmark):
    panel = PANELS["adversarial-proc-large"]
    naive = run_panel_bench(panel, mode="naive", slots_scale=0.2)
    vectorized = run_once(
        benchmark,
        lambda: run_panel_bench(panel, mode="vectorized", slots_scale=0.2),
    )
    benchmark.extra_info["vectorized_slots_per_s"] = round(
        vectorized.slots_per_s, 1
    )
    benchmark.extra_info["naive_slots_per_s"] = round(naive.slots_per_s, 1)
    # Measured 66-127x on a 2-vCPU VM; 10x leaves room for noise while
    # still catching column kernels that stopped binding.
    assert vectorized.slots_per_s >= 10 * naive.slots_per_s


def test_objectives_match_seed_recordings(seed_report):
    # The seed report was produced by the naive engine before any
    # acceleration existed: equal objectives here prove the production
    # engine is decision-identical across engine versions, not merely
    # self-consistent.
    for name, base_panel in seed_report["panels"].items():
        result = run_panel_bench(PANELS[name], mode="vectorized")
        expected = {
            t["policy"]: t["objective"] for t in base_panel["per_policy"]
        }
        actual = {t.policy: t.objective for t in result.timings}
        assert actual == expected, f"objective drift on panel {name}"


def test_no_regression_vs_seed_on_small_panels(benchmark, seed_report):
    report = run_once(
        benchmark,
        lambda: run_bench(
            select_panels(["small"]), tag="gate", mode="vectorized"
        ),
    )
    regressions = compare_speedup(
        report, seed_report, min_speedup=1.0, tolerance=0.25
    )
    assert not regressions, "; ".join(str(r) for r in regressions)


def test_adversarial_large_holds_2x_speedup(benchmark, seed_report):
    panel = PANELS["adversarial-proc-large"]
    result = run_once(
        benchmark, lambda: run_panel_bench(panel, mode="vectorized")
    )
    base = float(
        seed_report["panels"]["adversarial-proc-large"]["slots_per_s"]
    )
    benchmark.extra_info["slots_per_s"] = round(result.slots_per_s, 1)
    benchmark.extra_info["seed_slots_per_s"] = base
    assert result.slots_per_s >= 2.0 * base


def test_disabled_observer_holds_fastpath_rates(benchmark, seed_report):
    """The observability fence: with no observer attached, the naive
    reference engine must stay within 3% of ``BENCH_seed.json``, the
    same engine mode recorded before the observer existed. The disabled
    path adds exactly one ``is None`` check per arrival; anything slower
    than 3% means hot-path work crept in. Best-of-5 per panel absorbs
    scheduler noise — single runs on this hardware already wander by ~3%.
    """

    def best_of_five():
        best = {}
        for name in seed_report["panels"]:
            best[name] = max(
                run_panel_bench(PANELS[name], mode="naive").slots_per_s
                for _ in range(5)
            )
        return best

    rates = run_once(benchmark, best_of_five)
    failures = []
    for name, base_panel in seed_report["panels"].items():
        base = float(base_panel["slots_per_s"])
        rate = rates[name]
        benchmark.extra_info[name] = round(rate, 1)
        if rate < 0.97 * base:
            failures.append(
                f"{name}: {rate:.1f} slots/s < 97% of baseline {base:.1f}"
            )
    assert not failures, "; ".join(failures)


def test_recording_overhead_reported_not_gated(benchmark):
    """JSONL recording costs what it costs — the contract is only that
    the cost is *measured and published* (BENCH_obs.json), never paid by
    disabled runs. This records the current numbers into the benchmark
    artifact; the sole hard assertion is that recording left the
    simulation unchanged (``run_obs_bench`` raises otherwise).
    """
    report = run_once(
        benchmark,
        lambda: run_obs_bench(
            select_panels(["small"]), tag="perf-gate", slots_scale=0.5
        ),
    )
    for name, panel in report["panels"].items():
        benchmark.extra_info[f"{name}_overhead_pct"] = panel[
            "recording_overhead_pct"
        ]
        benchmark.extra_info[f"{name}_trace_bytes"] = panel["trace_bytes"]
        assert panel["events"] > 0
        assert panel["trace_bytes"] > 0
