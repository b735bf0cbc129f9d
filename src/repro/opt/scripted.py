"""Clairvoyant admission plans replayed from trace annotations.

Each lower-bound proof in the paper describes an explicit strategy for the
optimal offline algorithm OPT ("OPT accepts one of each larger packet and
(B-3) packets of work 1..."). The adversarial trace builders in
:mod:`repro.traffic.adversarial` encode those strategies as per-packet
``opt_accept`` tags; :class:`ScriptedPolicy` replays them on a normal
shared-memory switch, producing exactly the OPT behaviour the proof
prescribes without the engine needing any clairvoyance.

Since the paper observes OPT can be assumed non-push-out (any pushed-out
packet might as well never have been admitted), a scripted plan only ever
accepts or drops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.decisions import ACCEPT, DROP, Decision
from repro.core.errors import TraceError
from repro.core.packet import Packet
from repro.policies.base import Policy

if TYPE_CHECKING:
    from repro.core.switch import SwitchView


class ScriptedPolicy(Policy):
    """Accept exactly the packets whose ``opt_accept`` tag is true.

    Parameters
    ----------
    strict:
        When true (default), raise :class:`~repro.core.errors.TraceError`
        if the plan is infeasible — a tagged packet arrives into a full
        buffer, or a packet carries no tag at all. Lower-bound
        constructions are supposed to be exactly feasible, so infeasibility
        signals a bug in the trace builder rather than a condition to paper
        over. With ``strict=False`` untagged packets and overflow accepts
        degrade to drops.
    """

    name = "Scripted-OPT"
    is_push_out = False

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict

    def admit(self, view: SwitchView, packet: Packet) -> Decision:
        if packet.opt_accept is None:
            if self.strict:
                raise TraceError(
                    f"packet {packet!r} carries no opt_accept tag; scripted "
                    "replay requires a fully annotated trace"
                )
            return DROP
        if not packet.opt_accept:
            return DROP
        if view.is_full:
            if self.strict:
                raise TraceError(
                    f"scripted plan accepts {packet!r} but the buffer is "
                    "full — the adversarial construction is infeasible"
                )
            return DROP
        return ACCEPT
