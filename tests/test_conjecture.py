"""Tests for the MRD-conjecture explorer (exact ratios vs true OPT)."""

import pytest

from repro.analysis.conjecture import (
    adversarial_search,
    evaluate_instance,
    probe_policy,
    random_arrivals,
)
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError

np = pytest.importorskip("numpy", exc_type=ImportError)


class TestEvaluateInstance:
    def test_exact_on_hand_solved_instance(self):
        # One port, B = 1: values 1 then 5 in one slot. True OPT keeps the
        # 5 (value 5 transmitted in the slot, plus... B=1: accepts 1,
        # pushes for 5 is not possible for OPT (non-push-out) -- OPT just
        # takes the 5. MVD accepts 1 then pushes it out for the 5: also 5.
        config = SwitchConfig.uniform(
            1, 1, work=1, discipline=QueueDiscipline.PRIORITY
        )
        result = evaluate_instance(
            "MVD", config, (((0, 1.0), (0, 5.0)),)
        )
        assert result.opt_objective == 5.0
        assert result.alg_objective == 5.0
        assert result.ratio == 1.0

    def test_greedy_suboptimal_instance(self):
        # Greedy fills B = 1 with the value-1 packet and must drop the 5.
        config = SwitchConfig.uniform(
            1, 1, work=1, discipline=QueueDiscipline.PRIORITY
        )
        result = evaluate_instance(
            "Greedy", config, (((0, 1.0), (0, 5.0)),)
        )
        assert result.alg_objective == 1.0
        assert result.ratio == 5.0

    def test_idle_instance(self):
        config = SwitchConfig.uniform(
            2, 2, work=1, discipline=QueueDiscipline.PRIORITY
        )
        result = evaluate_instance("MRD", config, ((), ()))
        assert result.ratio == 1.0


class TestRandomArrivals:
    def test_respects_budget_and_ranges(self):
        rng = np.random.default_rng(0)
        arrivals = random_arrivals(
            rng, n_ports=3, n_slots=5, max_burst=4, max_value=6,
            total_budget=10,
        )
        assert len(arrivals) == 5
        total = sum(len(burst) for burst in arrivals)
        assert total <= 10
        for burst in arrivals:
            assert len(burst) <= 4
            for port, value in burst:
                assert 0 <= port < 3
                assert 1 <= value <= 6


class TestProbe:
    def test_ratios_at_least_one(self):
        report = probe_policy("MRD", trials=40, seed=1)
        assert all(r >= 1.0 - 1e-9 for r in report.ratios)
        assert report.worst_ratio >= 1.0

    def test_mrd_stays_small_on_tiny_instances(self):
        """Evidence for the conjecture: over hundreds of exact tiny
        instances MRD's worst ratio stays a small constant."""
        report = probe_policy("MRD", trials=150, seed=2)
        assert report.worst_ratio < 1.6

    def test_greedy_worse_than_mrd(self):
        mrd = probe_policy("MRD", trials=80, seed=3)
        greedy = probe_policy("Greedy", trials=80, seed=3)
        assert greedy.worst_ratio > mrd.worst_ratio

    def test_needs_trials(self):
        with pytest.raises(ConfigError):
            probe_policy("MRD", trials=0)

    def test_summary_mentions_policy(self):
        report = probe_policy("LQD-V", trials=5, seed=0)
        assert "LQD-V" in report.summary()


class TestProcessingProbe:
    def test_lwd_within_theorem7_window(self):
        """Exact tiny-instance probe of Theorem 7 from below: LWD's worst
        observed ratio lies in [1, 2]."""
        from repro.analysis.conjecture import probe_processing_policy

        report = probe_processing_policy(
            "LWD", works=(1, 3, 5), buffer_size=5, n_slots=6,
            max_burst=5, total_budget=16, trials=60, seed=1,
        )
        assert 1.0 <= report.worst_ratio <= 2.0

    def test_hill_climb_finds_bpd_suboptimality(self):
        from repro.analysis.conjecture import processing_adversarial_search

        bpd = processing_adversarial_search(
            "BPD", restarts=3, steps_per_restart=40, seed=2,
        )
        assert bpd.ratio > 1.1

    def test_lwd_hill_climb_respects_bound(self):
        from repro.analysis.conjecture import processing_adversarial_search

        found = processing_adversarial_search(
            "LWD", works=(1, 3, 5), buffer_size=5, n_slots=6,
            max_burst=5, total_budget=16, restarts=3,
            steps_per_restart=40, seed=1,
        )
        assert found.ratio <= 2.0

    def test_probe_validates_trials(self):
        from repro.analysis.conjecture import probe_processing_policy
        from repro.core.errors import ConfigError as CE

        with pytest.raises(CE):
            probe_processing_policy("LWD", trials=0)


class TestAdversarialSearch:
    def test_hill_climb_at_least_matches_random_start(self):
        found = adversarial_search(
            "Greedy", restarts=2, steps_per_restart=25, seed=4
        )
        assert found.ratio >= 1.0
        # Greedy's k-competitiveness shows even on tiny instances: the
        # climb should find something clearly suboptimal.
        assert found.ratio > 1.2

    def test_search_is_deterministic(self):
        a = adversarial_search("MRD", restarts=2, steps_per_restart=15, seed=5)
        b = adversarial_search("MRD", restarts=2, steps_per_restart=15, seed=5)
        assert a.ratio == b.ratio
        assert a.arrivals == b.arrivals

    def test_mrd_resists_the_climb(self):
        """The climb plateaus low for MRD — consistent with (though of
        course not proving) the paper's O(1) conjecture."""
        found = adversarial_search(
            "MRD", restarts=3, steps_per_restart=40, seed=6
        )
        assert found.ratio < 1.7
