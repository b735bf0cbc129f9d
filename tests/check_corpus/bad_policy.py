# repro: module=repro.policies.bad_corpus
"""Known-bad policy corpus: every RC3xx rule fires in here.

Fixture data for ``tests/test_check_rules.py`` — parsed, never
imported. ``GreedyCheater`` breaks the engine/policy contract in every
way the RC3xx rules name; ``WellBehaved`` exercises the self-like
exemptions (own state, same-module classes, mutators on ``self``).
"""


class GreedyCheater:
    """Pokes engine internals instead of returning decisions."""

    name = "CHEAT"

    def __init__(self, seed):
        self._seed = seed  # private on self: fine

    def decide(self, view, packet):
        internals = view._queues  # RC301
        packet.value = 0.0  # RC302
        view.occupancy -= 1  # RC302
        view.admit(packet)  # RC303
        return internals

    def meddle(self, switch, victim):
        switch.transmission_phase()  # RC303
        switch.set_port_state(victim.port, False)  # RC303
        switch.run_span(self, [], [], [], None, [0, 0], 0, 1)  # RC303
        del victim.port  # RC302
        return switch._buffer_used  # RC301


# -- negative space: all of this must stay clean -----------------------


class _Helper:
    @staticmethod
    def score(packet):
        return packet.value


class WellBehaved:
    name = "OK"

    def __init__(self):
        self._state = {}

    def decide(self, view, packet):
        self._state["last"] = packet.value  # own state: fine
        best = _Helper.score(packet)  # same-module class: fine
        self.process(best)  # mutator on self: fine
        return None

    def process(self, value):
        return value
