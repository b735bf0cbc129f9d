"""Small shared math helpers used by policies and theory formulas."""

from __future__ import annotations

from functools import lru_cache

#: Euler-Mascheroni constant, appearing in the BPD lower bound (Theorem 5).
EULER_GAMMA = 0.5772156649015329


@lru_cache(maxsize=None)
def harmonic_number(m: int) -> float:
    """The m-th harmonic number ``H_m = 1 + 1/2 + ... + 1/m`` (``H_0 = 0``).

    Each value is a plain left-to-right loop, cached per ``m`` because
    the reference engine's NHDT and Harmonic rules read harmonic
    numbers on every arrival.
    """
    if m < 0:
        raise ValueError(f"harmonic number of negative m={m}")
    if m == 0:
        return 0.0
    total = 0.0
    for i in range(1, m + 1):
        total += 1.0 / i
    return total


def harmonic_range(lo: int, hi: int) -> float:
    """``1/lo + 1/(lo+1) + ... + 1/hi`` (0 when the range is empty).

    Appears as ``beta_{k,m} = H_k - H_{k-m}`` in Theorem 4 and similar
    partial harmonic sums throughout the lower-bound constructions.
    """
    if hi < lo:
        return 0.0
    return sum(1.0 / i for i in range(lo, hi + 1))
