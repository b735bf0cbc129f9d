"""Small statistics helpers for replicated simulation runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ConfigError

#: Two-sided 95% Student-t quantiles (the 97.5% point) for 1..30
#: degrees of freedom; beyond 30 the normal 1.96 is used.
_T975 = (
    12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
    2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
    2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
    2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
)


@dataclass(frozen=True)
class Summary:
    """Mean, spread, and a Student-t 95% confidence interval."""

    n: int
    mean: float
    std: float
    ci95_half_width: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci95_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci95_half_width

    def __str__(self) -> str:
        return f"{self.mean:.4f} +/- {self.ci95_half_width:.4f} (n={self.n})"


def summarize(samples: Sequence[float]) -> Summary:
    """Summarize replicated measurements (e.g. ratios across seeds).

    The 95% interval is ``t * std / sqrt(n)`` with ``t`` the two-sided
    97.5% Student-t quantile for ``n - 1`` degrees of freedom, from a
    table for 1..30 degrees of freedom and the normal 1.96 beyond. A
    single sample has a zero-width interval.
    """
    if not samples:
        raise ConfigError("cannot summarize an empty sample set")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return Summary(n=1, mean=mean, std=0.0, ci95_half_width=0.0)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    t = _T975[n - 2] if n - 1 <= len(_T975) else 1.96
    half_width = t * std / math.sqrt(n)
    return Summary(n=n, mean=mean, std=std, ci95_half_width=half_width)


def geometric_mean(samples: Sequence[float]) -> float:
    """Geometric mean, natural for ratio-valued measurements."""
    if not samples:
        raise ConfigError("cannot average an empty sample set")
    if any(x <= 0 for x in samples):
        raise ConfigError("geometric mean requires positive samples")
    return math.exp(sum(math.log(x) for x in samples) / len(samples))
