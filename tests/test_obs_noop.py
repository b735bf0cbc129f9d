"""Differential no-op guarantee for the observability layer.

Attaching an observer must not change the simulation: for every pinned
bench panel the metrics with an observer attached equal the detached
run, two observed runs see identical decision streams, and observers
that try to mutate the engine's state through their event snapshots
fail loudly instead of silently corrupting a run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.competitive import PolicySystem, run_system
from repro.bench import PANELS
from repro.core.errors import ConfigError
from repro.core.switch import QueueDiscipline
from repro.obs import SlotObserver
from repro.policies import make_policy

SLOTS_SCALE = 0.02  # small but real: every panel still runs 40+ slots

PANEL_CASES = [
    (name, policy)
    for name, panel in sorted(PANELS.items())
    for policy in panel.policies[:2]
]


class DecisionRecorder(SlotObserver):
    """Captures the full decision/event stream of one run."""

    def __init__(self) -> None:
        self.decisions = []
        self.events = []

    def on_slot_begin(self, slot, n_arrivals):
        self.events.append(("slot", slot, n_arrivals))

    def on_arrival(self, slot, event):
        self.events.append(("arr", slot, event))

    def on_decision(self, slot, action, victim_port):
        self.decisions.append((slot, action, victim_port))

    def on_push_out(self, slot, victim):
        self.events.append(("push", slot, victim))

    def on_transmit(self, slot, packet):
        self.events.append(("tx", slot, packet))

    def on_idle(self, slot, n_slots):
        self.events.append(("idle", slot, n_slots))

    def on_slot_end(self, slot, occupancy):
        self.events.append(("slot_end", slot, occupancy))


class MutatingObserver(SlotObserver):
    """Tries to rewrite a packet's value through the event snapshot."""

    def on_arrival(self, slot, event):
        event.value = 1e9  # must raise: events are frozen


def _run(panel, policy_name, observer=None):
    system = PolicySystem(
        panel.config(), make_policy(policy_name), observer=observer
    )
    return run_system(system, panel.trace(SLOTS_SCALE))


@pytest.mark.parametrize("panel_name,policy_name", PANEL_CASES)
def test_observer_is_a_no_op(panel_name, policy_name):
    panel = PANELS[panel_name]
    detached = _run(panel, policy_name)
    recorder = DecisionRecorder()
    attached = _run(panel, policy_name, observer=recorder)
    assert attached == detached
    assert recorder.decisions, "observed run produced no decisions"

    # Two observed runs of the same pinned workload are bit-identical.
    second = DecisionRecorder()
    again = _run(panel, policy_name, observer=second)
    assert again == detached
    assert second.decisions == recorder.decisions

    by_value = panel.config().discipline is QueueDiscipline.PRIORITY
    assert attached.objective(by_value) == detached.objective(by_value)


@pytest.mark.parametrize(
    "panel_name", ["uniform-proc-small", "adversarial-value-small"]
)
def test_mutating_observer_raises(panel_name):
    panel = PANELS[panel_name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        _run(panel, panel.policies[0], observer=MutatingObserver())


def test_observer_attach_after_construction_matches():
    """`attach_observer` mid-lifecycle is equivalent to constructing
    with the observer (and detaching restores the fast path)."""
    panel = PANELS["uniform-proc-small"]
    baseline = _run(panel, panel.policies[0])

    system = PolicySystem(panel.config(), make_policy(panel.policies[0]))
    recorder = DecisionRecorder()
    system.attach_observer(recorder)
    attached = run_system(system, panel.trace(SLOTS_SCALE))
    assert attached == baseline

    system = PolicySystem(panel.config(), make_policy(panel.policies[0]))
    system.attach_observer(recorder)
    system.attach_observer(None)
    detached = run_system(system, panel.trace(SLOTS_SCALE))
    assert detached == baseline


def test_vectorized_system_rejects_observers():
    """Observers attach to the reference engine only: a vectorized
    system refuses one loudly, at construction and in ``run_system``,
    and never falls back to the other engine."""
    panel = PANELS["uniform-proc-small"]
    policy = panel.policies[0]
    with pytest.raises(ConfigError, match="reference engine"):
        PolicySystem(
            panel.config(),
            make_policy(policy),
            engine="vectorized",
            observer=DecisionRecorder(),
        )
    system = PolicySystem(
        panel.config(), make_policy(policy), engine="vectorized"
    )
    assert not hasattr(system, "attach_observer")
    with pytest.raises(ConfigError, match="does not support observers"):
        run_system(
            system, panel.trace(SLOTS_SCALE), observer=DecisionRecorder()
        )
