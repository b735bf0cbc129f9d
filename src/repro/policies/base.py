"""Policy abstractions and the policy registry.

A *buffer-management policy* decides, for each arriving packet, whether to
accept it, drop it, or push out a buffered packet to make room (Sections
III-B and IV-B of the paper). Policies in this library are stateless
strategy objects: all state they may consult lives in the switch and is
exposed through :class:`repro.core.switch.SwitchView`, so one policy
instance can be reused across runs and configurations.

Two templates cover every policy in the paper:

* :class:`PushOutPolicy` — greedy: accept whenever the buffer has space;
  when congested, delegate to :meth:`PushOutPolicy.congested` which picks a
  victim or drops. LQD, BPD, LWD, MVD, MRD and their variants fit here.
* :class:`ThresholdPolicy` — non-push-out: accept iff the buffer has space
  *and* a (static or dynamic) per-queue threshold admits the packet.
  NHST, NEST, NHDT fit here.

The registry maps policy names (as used in the paper's figures) to
factories so experiments and the CLI can refer to policies by name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from repro.core.config import SwitchConfig
from repro.core.decisions import ACCEPT, DROP, STAT_CAP, Decision
from repro.core.errors import ConfigError
from repro.core.packet import Packet

if TYPE_CHECKING:
    from repro.core.switch import SwitchView


class Policy(ABC):
    """Base class of all buffer-management policies."""

    #: Short name as used in the paper's figures (e.g. ``"LWD"``).
    name: str = "policy"

    #: Whether the policy may evict already-admitted packets.
    is_push_out: bool = False

    @abstractmethod
    def admit(self, view: SwitchView, packet: Packet) -> Decision:
        """Decide the fate of one arriving packet."""

    def describe(self) -> str:
        """Human-readable one-liner for logs and experiment captions."""
        kind = "push-out" if self.is_push_out else "non-push-out"
        return f"{self.name} ({kind})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class PushOutPolicy(Policy):
    """Greedy push-out template: accept while there is space; otherwise
    consult :meth:`congested`.

    The paper notes most of its algorithms are greedy ("accept all arrivals
    if there is enough buffer space"), which keeps implementations simple;
    the template encodes exactly that structure.
    """

    is_push_out = True

    def admit(self, view: SwitchView, packet: Packet) -> Decision:
        # can_accept == not is_full on the purely shared model; under a
        # reserved + shared split it is the per-port admissibility test.
        if view.can_accept(packet.port):
            return ACCEPT
        decision = self.congested(view, packet)
        victim = decision.victim_port
        if victim is not None:
            length = view.queue_len(victim)
            if length > view.reserved(victim):
                # The victim's tail holds a shared slot. A port that came
                # back up can leave the shared pool over-committed, and
                # then freeing one shared slot still leaves it full.
                if view.shared_free < 0:
                    return DROP
            elif victim != packet.port and length:
                # Under a reserved + shared split another port's queue can
                # sit wholly inside its own reservation: pushing out its
                # tail frees no slot this arrival may use.
                return DROP
        return decision

    @abstractmethod
    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        """Handle an arrival into a full buffer: push out or drop."""


class ThresholdPolicy(Policy):
    """Non-push-out template: accept iff below threshold and not full.

    Each threshold policy states its rule once, as a pure function of
    the arrival's queue length and the one switch statistic named by
    :attr:`statistic`. A :class:`StaticThresholdPolicy` defines
    ``cap(config, port)`` and admits while ``|Q_i| < cap``; every other
    policy defines ``admits(config, capacity, own, stat)``, where
    ``capacity`` is the (shared) buffer space its thresholds divide.
    ``within_threshold`` computes the statistic by a naive ``SwitchView``
    scan, the oracle. The vectorized engine's threshold kernel computes
    it from its columns and calls the same function (or a per-port
    table of ``cap``), so both engines evaluate identical float
    expressions.
    """

    is_push_out = False

    #: Which statistic the rule reads, one of the ``STAT_*`` names of
    #: :mod:`repro.core.decisions`; every registered threshold policy
    #: sets it.
    statistic: str

    def admit(self, view: SwitchView, packet: Packet) -> Decision:
        if not view.can_accept(packet.port):
            return DROP
        if self.within_threshold(view, packet):
            return ACCEPT
        return DROP

    @abstractmethod
    def within_threshold(self, view: SwitchView, packet: Packet) -> bool:
        """Whether the packet's queue may grow under the policy threshold."""


class StaticThresholdPolicy(ThresholdPolicy):
    """Threshold policy with a static per-port cap: accept iff the buffer
    has space and ``|Q_i| < cap(config, i)``."""

    statistic = STAT_CAP

    @abstractmethod
    def cap(self, config: SwitchConfig, port: int) -> float:
        """The most packets (exclusive bound) queue ``port`` may hold."""

    def within_threshold(self, view: SwitchView, packet: Packet) -> bool:
        return view.queue_len(packet.port) < self.cap(view.config, packet.port)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyEntry:
    """Registry record: how to build a policy and where it applies."""

    name: str
    factory: Callable[[], Policy]
    models: frozenset[str]  # subset of {"processing", "value"}
    summary: str


_REGISTRY: Dict[str, PolicyEntry] = {}


def register_policy(
    name: str,
    factory: Callable[[], Policy],
    models: Iterable[str],
    summary: str,
) -> None:
    """Register a policy factory under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ConfigError(f"policy {name!r} already registered")
    model_set = frozenset(models)
    if not model_set <= {"processing", "value"}:
        raise ConfigError(f"bad model tags for {name!r}: {models}")
    _REGISTRY[key] = PolicyEntry(
        name=name, factory=factory, models=model_set, summary=summary
    )


def make_policy(name: str) -> Policy:
    """Instantiate a registered policy by (case-insensitive) name."""
    entry = _REGISTRY.get(name.lower())
    if entry is None:
        known = ", ".join(sorted(e.name for e in _REGISTRY.values()))
        raise ConfigError(f"unknown policy {name!r}; known: {known}")
    return entry.factory()


def policy_entry(name: str) -> PolicyEntry:
    """Look up the registry record for ``name``."""
    entry = _REGISTRY.get(name.lower())
    if entry is None:
        raise ConfigError(f"unknown policy {name!r}")
    return entry


def available_policies(model: Optional[str] = None) -> List[PolicyEntry]:
    """All registered policies, optionally filtered by model tag."""
    entries = sorted(_REGISTRY.values(), key=lambda e: e.name)
    if model is None:
        return entries
    return [e for e in entries if model in e.models]
