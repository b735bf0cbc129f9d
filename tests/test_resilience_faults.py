"""Unit tests for the deterministic fault injector.

The injector is the foundation of the chaos suite: every recovery-path
test relies on ``should()`` being a pure function of (spec, mode,
index, attempt), so the grammar and the determinism contract get their
own coverage here.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ResilienceError
from repro.resilience.faults import (
    FAULT_MODES,
    FaultInjector,
    InjectedFault,
    _hash01,
)


class TestGrammar:
    def test_single_indexed_clause(self):
        injector = FaultInjector.parse("crash@3")
        assert injector.should("crash", 3)
        assert not injector.should("crash", 2)
        assert not injector.should("die", 3)

    def test_multiple_indices_and_count(self):
        injector = FaultInjector.parse("crash@0,4x2")
        for index in (0, 4):
            assert injector.should("crash", index, attempt=0)
            assert injector.should("crash", index, attempt=1)
            assert not injector.should("crash", index, attempt=2)
        assert not injector.should("crash", 1)

    def test_star_targets_every_index_and_attempt(self):
        injector = FaultInjector.parse("die@*")
        for index in (0, 7, 123):
            for attempt in (0, 1, 5):
                assert injector.should("die", index, attempt)

    def test_semicolon_separated_clauses_and_knobs(self):
        injector = FaultInjector.parse(
            "crash@0; hang@2 ; delay=0.25; seed=7"
        )
        assert injector.should("crash", 0)
        assert injector.should("hang", 2)
        assert injector.delay == 0.25
        assert injector.seed == 7

    def test_probability_clause_is_deterministic(self):
        injector = FaultInjector.parse("crash%0.5;seed=3")
        fired = [i for i in range(200) if injector.should("crash", i)]
        again = [i for i in range(200) if injector.should("crash", i)]
        assert fired == again
        assert 40 < len(fired) < 160  # ~50% of 200, loose bounds
        # Probability clauses never fire on retries.
        assert all(
            not injector.should("crash", i, attempt=1) for i in fired
        )

    def test_probability_depends_on_seed(self):
        a = FaultInjector.parse("crash%0.5;seed=1")
        b = FaultInjector.parse("crash%0.5;seed=2")
        fired_a = [i for i in range(100) if a.should("crash", i)]
        fired_b = [i for i in range(100) if b.should("crash", i)]
        assert fired_a != fired_b

    @pytest.mark.parametrize(
        "spec",
        [
            "explode@0",          # unknown mode
            "crash@x",            # bad index
            "crash@-1",           # negative index
            "crash@0x0",          # count < 1
            "crash%1.5",          # probability out of range
            "crash%oops",         # unparsable probability
            "delay=-1",           # negative delay
            "seed=abc",           # bad seed
            "justnonsense",       # no @ or %
            "partition@0",        # unknown mode: no network faults
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ResilienceError):
            FaultInjector.parse(spec)

    def test_all_modes_parse(self):
        for mode in FAULT_MODES:
            assert FaultInjector.parse(f"{mode}@0").should(mode, 0)


class TestEnv:
    def test_from_env_absent_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultInjector.from_env() is None

    def test_from_env_parses_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@1;delay=0.5")
        injector = FaultInjector.from_env()
        assert injector is not None
        assert injector.should("corrupt", 1)
        assert injector.delay == 0.5

    def test_from_env_empty_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert FaultInjector.from_env() is None


class TestFireInCell:
    def test_crash_raises_injected_fault(self):
        injector = FaultInjector.parse("crash@0")
        with pytest.raises(InjectedFault, match="injected crash"):
            injector.fire_in_cell(0, 0, allow_exit=False)
        injector.fire_in_cell(1, 0, allow_exit=False)  # untargeted: no-op
        injector.fire_in_cell(0, 1, allow_exit=False)  # exhausted

    def test_die_downgrades_in_process(self):
        # allow_exit=False (serial execution) must never os._exit the
        # supervising process; the fault degrades to a raised crash.
        injector = FaultInjector.parse("die@0")
        with pytest.raises(InjectedFault, match="worker death"):
            injector.fire_in_cell(0, 0, allow_exit=False)

    def test_hang_sleeps_then_raises(self):
        import time

        injector = FaultInjector.parse("hang@0;delay=0.05")
        started = time.perf_counter()
        with pytest.raises(InjectedFault, match="injected hang"):
            injector.fire_in_cell(0, 0, allow_exit=False)
        assert time.perf_counter() - started >= 0.05

    def test_injected_fault_is_transient(self):
        # The supervisor fail-fasts on ReproError; injected faults must
        # not be one or the retry machinery would never engage.
        from repro.core.errors import ReproError

        assert not issubclass(InjectedFault, ReproError)


class TestHash01:
    def test_range_and_determinism(self):
        values = [_hash01(s, "m", i) for s in range(5) for i in range(5)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [
            _hash01(s, "m", i) for s in range(5) for i in range(5)
        ]
        assert len(set(values)) == len(values)  # no trivial collisions
