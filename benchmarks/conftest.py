"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table/figure element of the paper and
*prints the series it produces* (run pytest with ``-s`` to see them inline;
they are also attached to the benchmark records via ``extra_info``).

Benchmarks default to laptop-scale runs (hundreds to thousands of slots
instead of the paper's 2*10^6); set ``SHMEM_BENCH_SLOTS`` to scale up.
"""

from __future__ import annotations

import os

#: Default simulated slots per benchmark run; override via environment.
BENCH_SLOTS = int(os.environ.get("SHMEM_BENCH_SLOTS", "800"))


def run_once(benchmark, func):
    """Execute ``func`` exactly once under benchmark timing.

    Fig. 5 panels are deterministic given their seed, so repeating rounds
    only wastes wall-clock; one timed round per benchmark is the right
    trade-off for a simulation harness.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


def record_series(benchmark, result, label):
    """Print a sweep's ratio table and attach it to the benchmark record."""
    table = result.format_table()
    print(f"\n=== {label} ===")
    print(table)
    benchmark.extra_info["series"] = {
        policy: [
            (value, round(summary.mean, 4))
            for value, summary in result.series(policy)
        ]
        for policy in result.policies()
    }


def record_scenario(benchmark, scenario, outcome):
    """Print and record a lower-bound scenario's measured vs predicted."""
    print(
        f"\n=== {scenario.name} ({scenario.theorem}) ===\n"
        f"target policy   : {scenario.target_policy}\n"
        f"predicted ratio : {scenario.predicted_ratio:.4f}\n"
        f"measured ratio  : {outcome.ratio:.4f}"
    )
    benchmark.extra_info["predicted_ratio"] = round(scenario.predicted_ratio, 4)
    benchmark.extra_info["measured_ratio"] = round(outcome.ratio, 4)
