"""Markov-modulated Poisson process (MMPP) on-off traffic sources.

Section V-A of the paper: *"The traffic is generated as the interleaving of
500 independent sources. Each source is an on-off bursty process modeled by
a Markov-modulated Poisson process (MMPP); it has packet rate lambda_on in
the 'on' state and does not emit packets in the 'off' state."*

Each source is a two-state Markov chain over slots. In the ON state it
emits ``Poisson(rate_on)`` packets per slot; in OFF it emits none. Sojourn
times are geometric with the configured means, making the traffic bursty at
the time scale of ``mean_on_slots``.

:class:`MmppSource` is the scalar reference implementation (used in unit
tests and examples); :class:`MmppFleet` advances many independent sources
per step using vectorized numpy operations, which is what makes
paper-scale runs (500 sources, 10^5+ slots) practical in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

try:  # pure-stdlib installs can still import the module
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.core.errors import ConfigError


@dataclass(frozen=True)
class MmppParams:
    """Parameters of one on-off MMPP source.

    Parameters
    ----------
    rate_on:
        Mean packets emitted per slot while ON (``lambda_on``).
    mean_on_slots:
        Mean sojourn time in the ON state, in slots (geometric).
    mean_off_slots:
        Mean sojourn time in the OFF state, in slots (geometric).
    start_on_probability:
        Probability a source starts in the ON state; defaults to the
        stationary probability of ON, so traffic is stationary from slot 0.
    """

    rate_on: float
    mean_on_slots: float = 10.0
    mean_off_slots: float = 30.0
    start_on_probability: float | None = None

    def __post_init__(self) -> None:
        if self.rate_on < 0:
            raise ConfigError(f"rate_on must be >= 0, got {self.rate_on}")
        if self.mean_on_slots < 1 or self.mean_off_slots < 1:
            raise ConfigError("mean sojourn times must be >= 1 slot")
        if self.start_on_probability is not None and not (
            0.0 <= self.start_on_probability <= 1.0
        ):
            raise ConfigError("start_on_probability must be in [0, 1]")

    @property
    def p_off(self) -> float:
        """Per-slot probability of leaving the ON state."""
        return 1.0 / self.mean_on_slots

    @property
    def p_on(self) -> float:
        """Per-slot probability of leaving the OFF state."""
        return 1.0 / self.mean_off_slots

    @property
    def stationary_on(self) -> float:
        """Stationary probability of the ON state."""
        return self.mean_on_slots / (self.mean_on_slots + self.mean_off_slots)

    @property
    def mean_rate(self) -> float:
        """Long-run mean packets per slot."""
        return self.rate_on * self.stationary_on

    def initial_on_probability(self) -> float:
        if self.start_on_probability is not None:
            return self.start_on_probability
        return self.stationary_on


def _require_numpy() -> None:
    if np is None:
        raise ConfigError(
            "MMPP traffic needs numpy (its Poisson draws are pinned to "
            "numpy.random.Generator); install numpy or use a "
            "stdlib-random workload"
        )


class MmppSource:
    """One on-off MMPP source, advanced slot by slot (scalar reference)."""

    def __init__(self, params: MmppParams, rng: np.random.Generator) -> None:
        _require_numpy()
        self.params = params
        self._rng = rng
        self.on = bool(rng.random() < params.initial_on_probability())

    def step(self) -> int:
        """Advance one slot; return the number of packets emitted."""
        emitted = 0
        if self.on:
            emitted = int(self._rng.poisson(self.params.rate_on))
        # State transition applies at the end of the slot.
        if self.on:
            if self._rng.random() < self.params.p_off:
                self.on = False
        else:
            if self._rng.random() < self.params.p_on:
                self.on = True
        return emitted


class MmppFleet:
    """``n`` independent MMPP sources advanced together (vectorized).

    Semantically equivalent to ``n`` :class:`MmppSource` objects; the fleet
    draws the ON sources' Poisson counts and every source's state flip
    as numpy vectors.
    """

    def __init__(
        self,
        n_sources: int,
        params: MmppParams,
        rng: np.random.Generator,
    ) -> None:
        _require_numpy()
        if n_sources < 1:
            raise ConfigError(f"need >= 1 source, got {n_sources}")
        self.params = params
        self.n_sources = n_sources
        self._rng = rng
        self.on = rng.random(n_sources) < params.initial_on_probability()

    def step(self) -> Tuple[np.ndarray, np.ndarray]:
        """Advance one slot; return the indices of the sources ON
        during it, ascending, and their emission counts.

        A source OFF during the slot emits nothing, so the pair is the
        whole emission vector: ``counts[on_idx] = emitted`` rebuilds it.
        The RNG calls are pinned: one Poisson draw per ON source (no
        call when none is ON), then one uniform per source, which flips
        an ON source below ``p_off`` and an OFF one below ``p_on``.
        """
        on = self.on
        on_idx = on.nonzero()[0]
        emitted = on_idx
        if on_idx.size:
            emitted = self._rng.poisson(self.params.rate_on, on_idx.size)
        flips = self._rng.random(self.n_sources)
        self.on = np.where(
            on, flips >= self.params.p_off, flips < self.params.p_on
        )
        return on_idx, emitted

    @property
    def fraction_on(self) -> float:
        """Fraction of sources currently ON (diagnostics)."""
        return float(np.mean(self.on))
