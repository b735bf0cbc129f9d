"""Engine parity: the reference engine is the oracle of every cell.

Every Fig. 5 cell and every dynamic-suite cell measures on the
vectorized engine (``repro run``, ``report``, ``profile``). These tests
replay the same cells through :func:`measure_policies` once per engine
and require the same ALG objective, OPT objective and ratio for every
policy, and the same metrics snapshot for ALG and OPT: a kernel or
surrogate whose decisions drift from the per-packet oracle fails here
even where the ratio rounds alike.

* Every Fig. 5 panel at 120 slots on seed 0, the whole grid.
* Long legs on seeds 0 and 1, across the 500-slot flushout: fig5-2
  (C = 1 FIFO spans), fig5-3 (C > 1, the multi-core calendar), fig5-4
  (the C = 1 priority phase), fig5-6 (C > 1 priority) and fig5-7
  (value = port). The vectorized side runs under an invariant audit
  every 7 slots (``REPRO_CHECK_INVARIANTS=7``), which cuts its spans
  off the flushout grid and audits the OPT surrogate too.
* The dynamic suite's spike and flap rows on the shared and the split
  buffer, at 240 and 600 slots, the vectorized side under the same
  audit: port churn through the arrival kernels and the surrogate span
  loops.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.competitive import ENGINES, measure_policies
from repro.experiments.fig5 import PANELS, _panel_factories
from repro.experiments.scenarios import DEFAULT_POLICIES, workload_matrix
from repro.policies import make_policy

#: ``REPRO_CHECK_INVARIANTS`` on the audited vectorized replays: every
#: 7 slots, off the 500-slot flushout grid.
AUDIT = "7"

#: (panel, slots, seeds, invariant cadence on the vectorized side).
FIG5_LEGS = [(panel, 120, (0,), None) for panel in sorted(PANELS)] + [
    (2, 600, (0, 1), AUDIT),
    (3, 500, (0, 1), AUDIT),
    (4, 600, (0, 1), AUDIT),
    (6, 600, (0, 1), AUDIT),
    (7, 600, (0, 1), AUDIT),
]

#: The Fig. 5 panels' load and flushout cadence (``run_panel``'s).
LOAD = 3.0
FLUSH_EVERY = 500

DYNAMIC_SLOTS = (240, 600)


def _snapshot(metrics):
    # JSON text, so a NaN counter compares equal to itself.
    return json.dumps(metrics.snapshot(), sort_keys=True)


def _measure(monkeypatch, engine, audit, policies, trace, config, **kwargs):
    """One cell on one engine: per policy, its objectives, ratio and
    ALG and OPT metrics snapshots."""
    with monkeypatch.context() as patch:
        if audit is None:
            patch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        else:
            patch.setenv("REPRO_CHECK_INVARIANTS", audit)
        outcomes = measure_policies(
            [make_policy(name) for name in policies],
            trace,
            config,
            engine=engine,
            **kwargs,
        )
    return {
        name: (
            outcome.alg_objective,
            outcome.opt_objective,
            outcome.ratio,
            _snapshot(outcome.alg_metrics),
            _snapshot(outcome.opt_metrics),
        )
        for name, outcome in zip(policies, outcomes)
    }


def _assert_engines_agree(monkeypatch, label, audit, *cell, **kwargs):
    reference, vectorized = (
        _measure(
            monkeypatch,
            engine,
            audit if engine == "vectorized" else None,
            *cell,
            **kwargs,
        )
        for engine in ENGINES
    )
    for policy, want in reference.items():
        assert vectorized[policy] == want, f"{label} [{policy}]"


@pytest.mark.parametrize(
    "panel, slots, seeds, audit",
    FIG5_LEGS,
    ids=[f"fig5-{leg[0]}-{leg[1]}" for leg in FIG5_LEGS],
)
def test_fig5_cells_agree(monkeypatch, panel, slots, seeds, audit):
    spec = PANELS[panel]
    config_factory, trace_factory, _ = _panel_factories(spec, slots, LOAD)
    for value in spec.param_values:
        config = config_factory(value)
        for seed in seeds:
            _assert_engines_agree(
                monkeypatch,
                f"{spec.experiment_id} {spec.param_name}={value} "
                f"seed={seed}",
                audit,
                spec.policies,
                trace_factory(config, value, seed),
                config,
                by_value=spec.model != "processing",
                flush_every=FLUSH_EVERY,
            )


@pytest.mark.parametrize("slots", DYNAMIC_SLOTS)
def test_dynamic_cells_agree(monkeypatch, slots):
    for workload, model, config, trace in workload_matrix(n_slots=slots):
        _assert_engines_agree(
            monkeypatch,
            f"dynamic {workload}/{model} at {slots} slots",
            AUDIT,
            DEFAULT_POLICIES,
            trace,
            config,
            by_value=False,
        )
