"""Tests for the statistics helpers."""

import math

import pytest

from repro.analysis.stats import geometric_mean, summarize
from repro.core.errors import ConfigError


class TestSummarize:
    def test_single_sample(self):
        summary = summarize([2.5])
        assert summary.mean == 2.5
        assert summary.std == 0.0
        assert summary.ci95_half_width == 0.0

    def test_mean_and_std(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.n == 3

    def test_ci_bounds(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.ci_low == pytest.approx(
            summary.mean - summary.ci95_half_width
        )
        assert summary.ci_high > summary.ci_low

    @pytest.mark.parametrize(
        "samples, t",
        [([1.0, 2.0], 12.7062), ([1.0, 2.0, 3.0], 4.3027)],
    )
    def test_small_samples_use_student_t(self, samples, t):
        # Two and three samples: 1 and 2 degrees of freedom, whose
        # 97.5% quantiles are 6.5x and 2.2x the normal 1.96.
        summary = summarize(samples)
        assert summary.ci95_half_width == pytest.approx(
            t * summary.std / math.sqrt(len(samples)), rel=1e-9
        )

    def test_large_samples_use_normal_quantile(self):
        samples = [1.0, 2.0] * 16
        summary = summarize(samples)
        assert summary.ci95_half_width == pytest.approx(
            1.96 * summary.std / math.sqrt(32)
        )

    def test_ci_narrows_with_samples(self):
        narrow = summarize([1.0, 2.0] * 50)
        wide = summarize([1.0, 2.0])
        assert narrow.ci95_half_width < wide.ci95_half_width

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])

    def test_str(self):
        assert "n=2" in str(summarize([1.0, 2.0]))


class TestGeometricMean:
    def test_matches_log_average(self):
        samples = [1.0, 2.0, 4.0]
        assert geometric_mean(samples) == pytest.approx(2.0)

    def test_requires_positive(self):
        with pytest.raises(ConfigError):
            geometric_mean([1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            geometric_mean([])

    def test_leq_arithmetic_mean(self):
        samples = [1.3, 2.7, 0.9, 5.0]
        assert geometric_mean(samples) <= sum(samples) / len(samples)
