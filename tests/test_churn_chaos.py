"""Churn chaos: port teardown with occupied queues, end to end.

Two contracts are pinned for the dynamic scenario family:

* **Observability survives churn.** Recording a run whose ports go
  admin-down while their queues are occupied must replay byte-equal
  through :class:`~repro.obs.replay.TraceReplayer`: every reclaimed
  packet is accounted as flushed, the conservation identity holds, and
  a tampered ``pstate`` event is *rejected* (a verifier that cannot
  reject a broken teardown verifies nothing).

* **Sweeps over churn workloads stay deterministic.** ``run_sweep``
  over port-flap traces must produce byte-identical rows and CSV output
  serial vs parallel, with no cache, a cold cache, and a warm cache —
  and the reference engine must reproduce every cell the sweep measured
  on the vectorized engine.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.cache import SweepCache
from repro.analysis.competitive import measure_policies
from repro.analysis.sweep import run_sweep
from repro.core.config import SwitchConfig
from repro.obs import ConservationError, record_trace, replay_trace
from repro.policies import make_policy
from repro.traffic.dynamic import lqd_churn_collapse, port_flap_workload

#: The dynamic-scenario policy roster (see docs/SCENARIOS.md).
CHURN_POLICIES = ("LQD", "Harmonic", "DT")


def _flap_config() -> SwitchConfig:
    # work=4: each packet needs four cycles, so near-saturating Bernoulli
    # arrivals outrun the service rate and queues are occupied when the
    # flap tears their port down.
    return SwitchConfig.uniform(4, 24, work=4)


def _flap_trace(config: SwitchConfig, *, load: float = 0.9, seed: int = 3):
    return port_flap_workload(
        config, 160, load=load, flap_period=40, down_time=10, seed=seed
    )


def _record(policy_name, trace, config):
    buffer = io.StringIO()
    live = record_trace(make_policy(policy_name), trace, config, buffer)
    buffer.seek(0)
    return live, buffer


# ----------------------------------------------------------------------
# Replay + conservation under teardown
# ----------------------------------------------------------------------


class TestChurnReplay:
    @pytest.mark.parametrize("policy_name", CHURN_POLICIES)
    def test_flap_replay_byte_equal(self, policy_name):
        config = _flap_config()
        trace = _flap_trace(config)
        live, buffer = _record(policy_name, trace, config)
        result = replay_trace(buffer)
        result.verify()
        assert result.metrics == live
        # The workload is built to tear ports down over occupied
        # queues; a flush-free run would mean the chaos never happened.
        assert live.flushed > 0

    @pytest.mark.parametrize("policy_name", CHURN_POLICIES)
    def test_flap_conservation_identity(self, policy_name):
        config = _flap_config()
        trace = _flap_trace(config)
        live, buffer = _record(policy_name, trace, config)
        result = replay_trace(buffer)
        assert live.arrived == live.accepted + live.dropped
        assert (
            live.accepted
            - live.transmitted_packets
            - live.pushed_out
            - live.flushed
            == result.final_backlog
        )

    def test_churn_collapse_flush_count_is_exact(self):
        # On the churn-collapse adversary LQD equalizes to B/2 per
        # port, transmits T from port 0, then loses the rest to the
        # teardown: exactly B/2 - T packets reclaimed as flushed.
        scenario = lqd_churn_collapse(buffer_size=240, down_slot=30)
        live, buffer = _record("LQD", scenario.trace, scenario.config)
        result = replay_trace(buffer)
        result.verify()
        assert live.flushed == 240 // 2 - 30
        assert result.metrics == live

    def test_tampered_pstate_count_rejected(self):
        config = _flap_config()
        trace = _flap_trace(config)
        _, buffer = _record("LQD", trace, config)
        lines = buffer.getvalue().splitlines()
        tampered = []
        broke = False
        for line in lines:
            event = json.loads(line)
            if (
                not broke
                and event.get("t") == "pstate"
                and not event["up"]
                and event["count"] > 0
            ):
                event["count"] -= 1  # claim one reclaimed packet fewer
                broke = True
            tampered.append(json.dumps(event))
        assert broke, "workload produced no occupied-queue teardown"
        with pytest.raises(ConservationError):
            replay_trace(io.StringIO("\n".join(tampered) + "\n"))

    def test_double_down_pstate_rejected(self):
        config = _flap_config()
        trace = _flap_trace(config)
        _, buffer = _record("LQD", trace, config)
        lines = buffer.getvalue().splitlines()
        tampered = []
        broke = False
        for line in lines:
            tampered.append(line)
            event = json.loads(line)
            if not broke and event.get("t") == "pstate" and not event["up"]:
                dup = dict(event, count=0)
                tampered.append(json.dumps(dup))  # port is already down
                broke = True
        assert broke
        with pytest.raises(ConservationError):
            replay_trace(io.StringIO("\n".join(tampered) + "\n"))


# ----------------------------------------------------------------------
# Sweep determinism over churn workloads
# ----------------------------------------------------------------------


CHURN_LOADS = (0.8, 1.4)
CHURN_SEEDS = (0, 1)


def _churn_config(load):
    return SwitchConfig.uniform(4, 24, work=4)


def _churn_trace(config, load, seed):
    return port_flap_workload(
        config, 120, load=load, flap_period=30, down_time=8, seed=seed
    )


def _churn_sweep(*, jobs=None, cache=None):
    return run_sweep(
        "churn-chaos",
        "load",
        CHURN_LOADS,
        config_factory=_churn_config,
        trace_factory=_churn_trace,
        policy_names=CHURN_POLICIES,
        seeds=CHURN_SEEDS,
        by_value=False,
        jobs=jobs,
        cache=cache,
        cache_token={
            "workload": "port-flap",
            "n_slots": 120,
            "flap_period": 30,
            "down_time": 8,
        },
    )


def _csv_bytes(result, tmp_path, name):
    path = tmp_path / name
    result.to_csv(path)
    return path.read_bytes()


class TestChurnSweepDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return _churn_sweep()

    def test_parallel_identical_to_serial(self, serial, tmp_path):
        parallel = _churn_sweep(jobs=4)
        assert parallel.points == serial.points
        assert _csv_bytes(parallel, tmp_path, "par.csv") == _csv_bytes(
            serial, tmp_path, "ser.csv"
        )

    def test_cold_cache_identical(self, serial, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cold = _churn_sweep(jobs=4, cache=cache)
        assert cold.points == serial.points
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == 12

    def test_warm_cache_identical(self, serial, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        _churn_sweep(jobs=2, cache=cache)
        warm = _churn_sweep(jobs=4, cache=cache)
        assert warm.points == serial.points
        assert warm.stats.cells_executed == 0
        assert warm.stats.cache_hits == 12
        assert _csv_bytes(warm, tmp_path, "warm.csv") == _csv_bytes(
            serial, tmp_path, "ser.csv"
        )

    def test_engines_agree_cell_for_cell(self, serial):
        # The sweep measures on the vectorized engine; the reference
        # engine (the oracle) must reproduce every point exactly.
        points = {(p.param_value, p.seed, p.policy): p for p in serial.points}
        for load in CHURN_LOADS:
            for seed in CHURN_SEEDS:
                config = _churn_config(load)
                outcomes = measure_policies(
                    [make_policy(name) for name in CHURN_POLICIES],
                    _churn_trace(config, load, seed),
                    config,
                    by_value=False,
                    engine="reference",
                )
                for name, outcome in zip(CHURN_POLICIES, outcomes):
                    point = points[(load, seed, name)]
                    assert (
                        outcome.alg_objective,
                        outcome.opt_objective,
                        outcome.ratio,
                    ) == (
                        point.alg_objective,
                        point.opt_objective,
                        point.ratio,
                    )
