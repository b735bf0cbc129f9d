"""Tests for the scripted clairvoyant OPT policy."""

import pytest

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.config import SwitchConfig
from repro.core.errors import TraceError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.goldens import DecisionStreamHasher
from repro.opt.scripted import ScriptedPolicy
from repro.traffic.adversarial import thm4_lqd, thm9_lqd_value


def tagged(port, accept, work=1):
    return Packet(port=port, work=work, opt_accept=accept)


@pytest.fixture
def switch():
    return SharedMemorySwitch(SwitchConfig.contiguous(2, 2))


class TestStrictMode:
    def test_accepts_tagged_packets(self, switch):
        switch.offer(tagged(0, True), ScriptedPolicy())
        assert switch.occupancy == 1

    def test_drops_untagged_false(self, switch):
        switch.offer(tagged(0, False), ScriptedPolicy())
        assert switch.occupancy == 0

    def test_missing_tag_raises(self, switch):
        with pytest.raises(TraceError, match="opt_accept"):
            switch.offer(Packet(port=0, work=1), ScriptedPolicy())

    def test_infeasible_plan_raises(self, switch):
        policy = ScriptedPolicy()
        switch.offer(tagged(0, True), policy)
        switch.offer(tagged(0, True), policy)
        with pytest.raises(TraceError, match="infeasible"):
            switch.offer(tagged(1, True, work=2), policy)


class TestLenientMode:
    def test_missing_tag_drops(self, switch):
        switch.offer(Packet(port=0, work=1), ScriptedPolicy(strict=False))
        assert switch.occupancy == 0

    def test_overflow_accept_degrades_to_drop(self, switch):
        policy = ScriptedPolicy(strict=False)
        for _ in range(3):
            switch.offer(tagged(0, True), policy)
        assert switch.occupancy == 2
        assert switch.metrics.dropped == 1

    def test_never_pushes_out(self, switch):
        policy = ScriptedPolicy(strict=False)
        for _ in range(5):
            switch.offer(tagged(0, True), policy)
        assert switch.metrics.pushed_out == 0


#: Fully tagged adversarial traces; their repeated rounds also give them
#: out-of-line arrival slots.
TAGGED_SCENARIOS = pytest.mark.parametrize(
    "scenario",
    [thm4_lqd(k=9, buffer_size=108), thm9_lqd_value(k=8, buffer_size=64)],
    ids=["thm4", "thm9"],
)


class TestVectorizedEngine:
    """Scripted OPT has no vectorized kernel: asking for the vectorized
    engine builds the reference one, visibly, and its replay matches the
    reference run."""

    @staticmethod
    def _replay(scenario, engine, trace, observer=None):
        system = PolicySystem(
            scenario.config, ScriptedPolicy(), engine=engine
        )
        assert system.engine == "reference"
        return run_system(system, trace, observer=observer).snapshot()

    @pytest.mark.parametrize("observed", [False, True])
    @TAGGED_SCENARIOS
    def test_matches_reference(self, scenario, observed):
        # Observing the reference replay must not change what the
        # unobserved replays match.
        hasher = DecisionStreamHasher() if observed else None
        reference = self._replay(
            scenario, "reference", scenario.trace, hasher
        )
        assert reference["accepted"] > 0
        if hasher is not None:
            assert hasher.events > 0
        trace = scenario.trace
        assert trace.opts is not None and trace.arrivals is not None
        assert self._replay(scenario, "vectorized", trace) == reference

    @TAGGED_SCENARIOS
    def test_run_slot_bursts_match_reference(self, scenario):
        snapshots = []
        for engine in ("reference", "vectorized"):
            system = PolicySystem(
                scenario.config, ScriptedPolicy(), engine=engine
            )
            assert system.engine == "reference"
            for burst in scenario.trace.slots:
                system.run_slot(burst)
            snapshots.append(system.metrics.snapshot())
        assert snapshots[0] == snapshots[1]
