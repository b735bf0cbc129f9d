"""Tests for the MMPP on-off traffic sources."""

import hashlib

import pytest

from repro.core.errors import ConfigError
from repro.traffic.mmpp import MmppFleet, MmppParams, MmppSource

np = pytest.importorskip("numpy", exc_type=ImportError)


class TestParams:
    def test_transition_probabilities(self):
        params = MmppParams(rate_on=1.0, mean_on_slots=10, mean_off_slots=40)
        assert params.p_off == pytest.approx(0.1)
        assert params.p_on == pytest.approx(0.025)

    def test_stationary_fraction(self):
        params = MmppParams(rate_on=1.0, mean_on_slots=10, mean_off_slots=30)
        assert params.stationary_on == pytest.approx(0.25)
        assert params.mean_rate == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MmppParams(rate_on=-1.0)
        with pytest.raises(ConfigError):
            MmppParams(rate_on=1.0, mean_on_slots=0.5)
        with pytest.raises(ConfigError):
            MmppParams(rate_on=1.0, start_on_probability=1.5)

    def test_initial_on_probability_default(self):
        params = MmppParams(rate_on=1.0, mean_on_slots=10, mean_off_slots=30)
        assert params.initial_on_probability() == pytest.approx(0.25)

    def test_initial_on_probability_override(self):
        params = MmppParams(rate_on=1.0, start_on_probability=1.0)
        assert params.initial_on_probability() == 1.0


class TestScalarSource:
    def test_emits_only_when_on(self):
        params = MmppParams(
            rate_on=5.0, mean_on_slots=1000, mean_off_slots=1000,
            start_on_probability=0.0,
        )
        source = MmppSource(params, np.random.default_rng(0))
        assert not source.on
        assert source.step() == 0

    def test_long_run_rate_matches_params(self):
        params = MmppParams(rate_on=2.0, mean_on_slots=10, mean_off_slots=30)
        source = MmppSource(params, np.random.default_rng(42))
        total = sum(source.step() for _ in range(40_000))
        assert total / 40_000 == pytest.approx(params.mean_rate, rel=0.1)

    def test_deterministic_under_seed(self):
        params = MmppParams(rate_on=1.5, mean_on_slots=5, mean_off_slots=15)
        runs = []
        for _ in range(2):
            source = MmppSource(params, np.random.default_rng(7))
            runs.append([source.step() for _ in range(200)])
        assert runs[0] == runs[1]


def _counts(fleet, n_sources):
    """One fleet step as the per-source emission vector."""
    on_idx, emitted = fleet.step()
    counts = np.zeros(n_sources, dtype=np.int64)
    counts[on_idx] = emitted
    return counts


class TestFleet:
    def test_counts_shape(self):
        params = MmppParams(rate_on=1.0)
        fleet = MmppFleet(8, params, np.random.default_rng(0))
        was_on = fleet.on.copy()
        on_idx, emitted = fleet.step()
        assert on_idx.tolist() == np.flatnonzero(was_on).tolist()
        assert emitted.shape == on_idx.shape
        assert emitted.dtype == np.int64

    def test_needs_sources(self):
        with pytest.raises(ConfigError):
            MmppFleet(0, MmppParams(rate_on=1.0), np.random.default_rng(0))

    def test_aggregate_rate_matches_params(self):
        params = MmppParams(rate_on=2.0, mean_on_slots=10, mean_off_slots=30)
        fleet = MmppFleet(100, params, np.random.default_rng(3))
        total = sum(int(fleet.step()[1].sum()) for _ in range(5000))
        expected = 100 * params.mean_rate * 5000
        assert total == pytest.approx(expected, rel=0.1)

    def test_fraction_on_tracks_stationary(self):
        params = MmppParams(rate_on=1.0, mean_on_slots=10, mean_off_slots=30)
        fleet = MmppFleet(2000, params, np.random.default_rng(5))
        for _ in range(200):
            fleet.step()
        assert fleet.fraction_on == pytest.approx(0.25, abs=0.05)

    def test_deterministic_under_seed(self):
        params = MmppParams(rate_on=1.0, mean_on_slots=5, mean_off_slots=20)
        runs = []
        for _ in range(2):
            fleet = MmppFleet(16, params, np.random.default_rng(11))
            runs.append(np.stack([_counts(fleet, 16) for _ in range(100)]))
        assert np.array_equal(runs[0], runs[1])

    def test_off_sources_emit_nothing(self):
        params = MmppParams(
            rate_on=10.0, mean_on_slots=1000, mean_off_slots=1000,
            start_on_probability=0.0,
        )
        fleet = MmppFleet(50, params, np.random.default_rng(0))
        # Every source starts OFF: the first slot has no ON source, so
        # nothing is emitted; later, sources OFF in a slot emit nothing.
        on_idx, emitted = fleet.step()
        assert len(on_idx) == 0
        assert len(emitted) == 0
        for _ in range(20):
            off = ~fleet.on
            assert not _counts(fleet, 50)[off].any()


#: sha256 over 2,000 steps of the on-state before each step and the
#: per-source emission vector it returns (int64), then the final
#: on-state: they pin the fleet's RNG call order and its flip rule
#: directly, not only through the traces built from it.
FLEET_DIGESTS = {
    ("paper", 0): (
        "c38c211fbd48a3da3c64cd7ef22b90bc6f6462e9724b4bf94bdd525240f0d8fb"
    ),
    ("paper", 7): (
        "58c738a8f2d0ced48e04aefd7ee7f4299d00df5de7a83465e95f6db64fc5f7db"
    ),
    ("dense", 0): (
        "d6cda0b7068ba80ecff9f41c8ea66c43cf2d30db2f4a88c285e43060b411fd92"
    ),
    ("dense", 7): (
        "d7534338003bd3a340054106508f530e4b99353b637a7aa7da7e5e8277536c98"
    ),
}

#: (source count, params) per digest family: the paper's 500 sparse
#: sources, and a few dense ones that flip often.
FLEET_SHAPES = {
    "paper": (
        500, MmppParams(rate_on=0.5, mean_on_slots=20.0, mean_off_slots=380.0)
    ),
    "dense": (
        64, MmppParams(rate_on=2.5, mean_on_slots=5.0, mean_off_slots=15.0)
    ),
}


@pytest.mark.parametrize("shape, seed", sorted(FLEET_DIGESTS))
def test_fleet_sequence_pinned(shape, seed):
    n_sources, params = FLEET_SHAPES[shape]
    fleet = MmppFleet(n_sources, params, np.random.default_rng(seed))
    digest = hashlib.sha256()
    for _ in range(2000):
        digest.update(fleet.on.tobytes())
        digest.update(_counts(fleet, n_sources).tobytes())
    digest.update(fleet.on.tobytes())
    assert digest.hexdigest() == FLEET_DIGESTS[shape, seed]
