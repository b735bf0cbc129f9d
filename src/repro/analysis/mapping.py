"""Executable certificate checker for Theorem 7 (LWD is 2-competitive).

The paper's main proof (Fig. 3 + Lemma 8) charges every packet the
clairvoyant OPT transmits to a packet LWD transmits, with at most two OPT
packets per LWD packet. The argument only uses one property of OPT — it
never pushes out — so the same mapping is meant to certify ``REF <= 2 *
LWD`` for *any* non-push-out reference schedule REF.

This module runs LWD and a non-push-out reference policy in lock-step over
a trace and maintains the proof's mapping *online*, exactly following the
rules of Fig. 3:

* **A0 (same queue)** — the i-th *eligible* REF packet of queue ``j`` is
  mapped to the i-th LWD packet of queue ``j``. We keep this alignment
  implicit (it is fully determined by queue contents) and verify its
  latency claim — ``lat(ref) >= lat(lwd)`` position by position — after
  every event.
* **A1 (other queue)** — an eligible REF packet beyond the A0 alignment
  holds a persistent assignment to some LWD packet with no other A1 image
  and no larger latency. Assignments are created when a packet becomes
  *excess* (REF accepts beyond the alignment, or an LWD push-out shortens
  the alignment) — the latter is the proof's **A2** case — and cleared
  when the alignment grows back over the packet (**A3**).
* **T0 (transmission)** — when LWD transmits a packet, its images (the
  A0-aligned head partner and its A1 holder, if any) become *ineligible*:
  permanently credited to that LWD packet.

Every violation the checker can raise corresponds to a step of Lemma 8
that would not go through on this run. Two severities are reported
separately:

* *accounting* — the online charging fails (an LWD packet charged three
  REF packets, an uncredited REF transmission, cumulative ``REF > 2 *
  LWD``). It does occur against an *optimal* reference: on a four-port
  instance an optimal schedule transmits a packet the mapping has no
  LWD image to charge, although OPT = LWD there
  (``tests/test_mapping.py::TestAgainstTrueOptima``). The cumulative
  ``REF <= 2 * LWD`` bound has held on every run.
* *lemma* — an intermediate latency invariant of Lemma 8 fails under our
  reading. Against the adversarial constructions' scripted OPT
  strategies the lemma verifies completely; against other non-push-out
  references (e.g. NEST) and against some optimal schedules of tiny
  instances latency inversions do occur. The mechanism seen against the
  heuristics: LWD may push out a partially-processed packet (a singleton
  queue whose residual work still tops every other queue), then later
  re-admit a fresh full-work packet to that port, while the reference
  kept — and kept processing — its old copy; the re-established A0 pair
  then has ``lat(REF) < lat(LWD)``, which the proof's case (4) asserts
  cannot happen. Whether the checker misreads a rule of Fig. 3 or the
  written proof has a gap is open; no run has broken the theorem's
  conclusion. EXPERIMENTS.md discusses this in detail.

Restrictions inherited from the proof's setting: FIFO discipline and
speedup ``C = 1`` (one processing cycle per port per slot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.decisions import Action
from repro.core.errors import ConfigError, PolicyError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.policies.base import Policy
from repro.policies.processing import LWD
from repro.traffic.trace import Trace


@dataclass
class MappingViolation:
    """One failed step of the Lemma 8 argument on a concrete run.

    ``severity`` distinguishes the two layers of the proof:

    * ``"lemma"`` — a latency invariant of Lemma 8 did not hold at this
      step under our reading (observed against non-push-out heuristics
      and against some optimal schedules; see
      :class:`MappingReport.lemma_clean`);
    * ``"accounting"`` — the 2x charging itself failed (an LWD packet
      charged three REF packets, a REF transmission with no image to
      charge, or the cumulative bound broken). Observed against an
      optimal schedule as an uncharged REF transmission; the cumulative
      bound has never broken.
    """

    slot: int
    rule: str
    detail: str
    severity: str = "accounting"

    def __str__(self) -> str:
        return (
            f"slot {self.slot}: [{self.rule}/{self.severity}] {self.detail}"
        )


@dataclass
class MappingReport:
    """Outcome of a certificate run."""

    slots: int
    lwd_transmitted: int
    ref_transmitted: int
    a1_assignments: int
    violations: List[MappingViolation] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        """Whether the 2x *accounting* held throughout (Theorem 7's
        conclusion)."""
        return not [
            v for v in self.violations if v.severity == "accounting"
        ]

    @property
    def lemma_clean(self) -> bool:
        """Whether every intermediate invariant of Lemma 8 also held
        (the full proof mechanism, not just its conclusion)."""
        return not self.violations

    @property
    def charge_ratio(self) -> float:
        if self.lwd_transmitted == 0:
            return 0.0 if self.ref_transmitted == 0 else float("inf")
        return self.ref_transmitted / self.lwd_transmitted

    def summary(self) -> str:
        if self.lemma_clean:
            status = "CERTIFIED (lemma clean)"
        elif self.certified:
            warnings = len(self.violations)
            status = f"CERTIFIED ({warnings} lemma warnings)"
        else:
            status = f"{len(self.violations)} VIOLATIONS"
        return (
            f"mapping certificate over {self.slots} slots: {status}; "
            f"REF={self.ref_transmitted}, LWD={self.lwd_transmitted} "
            f"(charge {self.charge_ratio:.3f} <= 2)"
        )


class MappingChecker:
    """Lock-step LWD-vs-reference runner maintaining the Fig. 3 mapping."""

    def __init__(self, config: SwitchConfig) -> None:
        if config.discipline is not QueueDiscipline.FIFO:
            raise ConfigError(
                "the Theorem 7 mapping is defined for the FIFO "
                "processing model"
            )
        if config.speedup != 1:
            raise ConfigError(
                "the Theorem 7 proof assumes one cycle per port per slot "
                "(C = 1)"
            )
        self.config = config

    # ------------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        ref_policy: Policy,
        *,
        drain: bool = True,
        max_violations: int = 10,
    ) -> MappingReport:
        """Replay ``trace`` through LWD and ``ref_policy``, verifying the
        mapping invariants after every event.

        ``ref_policy`` must be non-push-out (the proof's only assumption
        about OPT); push-out references are rejected.
        """
        if getattr(ref_policy, "is_push_out", False):
            raise ConfigError(
                "the mapping argument assumes a non-push-out reference; "
                f"{getattr(ref_policy, 'name', ref_policy)!r} pushes out"
            )
        lwd_switch = SharedMemorySwitch(self.config)
        ref_switch = SharedMemorySwitch(self.config)
        lwd_policy = LWD()

        # Persistent A1 assignments: ref packet seq -> LWD packet seq, and
        # the inverse (each LWD packet holds at most one A1 image).
        a1_of_ref: Dict[int, int] = {}
        a1_holder: Dict[int, int] = {}
        # Refs locked to an already-transmitted LWD packet.
        ineligible: Set[int] = set()
        # Final charges: LWD packet seq -> ref packet seqs credited.
        charges: Dict[int, Set[int]] = {}
        a1_total = 0

        violations: List[MappingViolation] = []
        slot_now = 0

        def violate(
            rule: str, detail: str, severity: str = "accounting"
        ) -> None:
            if len(violations) < max_violations:
                violations.append(
                    MappingViolation(slot_now, rule, detail, severity)
                )

        # -- latency helpers (C = 1, per-port FIFO) ---------------------

        def latencies(switch: SharedMemorySwitch, port: int) -> List[int]:
            """lat of each packet in queue order: head residual, then one
            full work term per predecessor."""
            queue = switch.queues[port]
            out: List[int] = []
            work = self.config.work_of(port)
            for idx, packet in enumerate(queue):
                if idx == 0:
                    out.append(packet.residual)
                else:
                    out.append(out[0] + idx * work)
            return out

        def eligible_refs(port: int) -> List[Packet]:
            return [
                p for p in ref_switch.queues[port]
                if p.seq not in ineligible
            ]

        def eligible_latencies(port: int) -> List[int]:
            lats = latencies(ref_switch, port)
            out = []
            for packet, lat in zip(ref_switch.queues[port], lats):
                if packet.seq not in ineligible:
                    out.append(lat)
            return out

        def lwd_packet_lat(seq: int) -> Optional[int]:
            for port in range(self.config.n_ports):
                lats = latencies(lwd_switch, port)
                for packet, lat in zip(lwd_switch.queues[port], lats):
                    if packet.seq == seq:
                        return lat
            return None

        # -- A1 maintenance ---------------------------------------------

        def assign_a1(ref_seq: int, ref_lat: int) -> None:
            """Find an LWD packet with no A1 image and latency <= the
            ref's; take the largest such latency (leaves tight candidates
            for tighter future constraints)."""
            nonlocal a1_total
            best_seq: Optional[int] = None
            best_lat = -1
            for port in range(self.config.n_ports):
                lats = latencies(lwd_switch, port)
                for packet, lat in zip(lwd_switch.queues[port], lats):
                    if packet.seq in a1_holder:
                        continue
                    if lat <= ref_lat and lat > best_lat:
                        best_lat = lat
                        best_seq = packet.seq
            if best_seq is None:
                violate(
                    "A1",
                    f"no unassigned LWD packet with latency <= {ref_lat} "
                    f"for excess REF packet {ref_seq}",
                    severity="lemma",
                )
                return
            a1_of_ref[ref_seq] = best_seq
            a1_holder[best_seq] = ref_seq
            a1_total += 1

        def clear_a1(ref_seq: int) -> None:
            image = a1_of_ref.pop(ref_seq, None)
            if image is not None:
                a1_holder.pop(image, None)

        def sync_excess(port: int) -> None:
            """Ensure exactly the refs beyond the A0 alignment hold A1
            assignments (creates missing ones, clears covered ones)."""
            refs = eligible_refs(port)
            ref_lats = eligible_latencies(port)
            aligned = len(lwd_switch.queues[port])
            for idx, packet in enumerate(refs):
                if idx < aligned:
                    clear_a1(packet.seq)  # rule A3
                elif packet.seq not in a1_of_ref:
                    assign_a1(packet.seq, ref_lats[idx])

        # -- invariant verification ---------------------------------------

        def verify_alignment() -> None:
            """Lemma 8's latency claims for every current A0/A1 pair."""
            for port in range(self.config.n_ports):
                lwd_lats = latencies(lwd_switch, port)
                ref_lats = eligible_latencies(port)
                for idx in range(min(len(lwd_lats), len(ref_lats))):
                    if ref_lats[idx] < lwd_lats[idx]:
                        violate(
                            "A0",
                            f"queue {port} position {idx}: REF latency "
                            f"{ref_lats[idx]} < LWD latency "
                            f"{lwd_lats[idx]}",
                            severity="lemma",
                        )
            for ref_seq, lwd_seq in a1_of_ref.items():
                lwd_lat = lwd_packet_lat(lwd_seq)
                if lwd_lat is None:
                    continue  # image transmitted; handled by T0 locking
                ref_lat = None
                for port in range(self.config.n_ports):
                    lats = latencies(ref_switch, port)
                    for packet, lat in zip(ref_switch.queues[port], lats):
                        if packet.seq == ref_seq:
                            ref_lat = lat
                            break
                    if ref_lat is not None:
                        break
                if ref_lat is not None and ref_lat < lwd_lat:
                    violate(
                        "A1",
                        f"A1 pair ref {ref_seq} (lat {ref_lat}) < "
                        f"lwd {lwd_seq} (lat {lwd_lat})",
                        severity="lemma",
                    )

        def charge(lwd_seq: int, ref_seq: int, rule: str) -> None:
            bucket = charges.setdefault(lwd_seq, set())
            bucket.add(ref_seq)
            if len(bucket) > 2:
                violate(
                    "T0",
                    f"LWD packet {lwd_seq} charged {len(bucket)} REF "
                    f"packets (> 2) via {rule}",
                )

        # -- the lock-step run --------------------------------------------

        ref_tx_total = 0
        lwd_tx_total = 0
        horizon = trace.n_slots
        if drain:
            horizon += self.config.buffer_size * self.config.max_work + 1

        for slot_now in range(horizon):
            arrivals: Sequence[Packet] = (
                trace.slots[slot_now] if slot_now < trace.n_slots else ()
            )
            # Arrival phase, one packet at a time against both systems.
            for template in arrivals:
                port = template.port
                # LWD side: observe push-outs for rule A2.
                lwd_decision = lwd_policy.admit(lwd_switch.view, template)
                victim_seq: Optional[int] = None
                if lwd_decision.action is Action.PUSH_OUT:
                    victim_seq = lwd_switch.queues[
                        lwd_decision.victim_port
                    ].peek_tail().seq
                lwd_switch.metrics.record_arrival(template)
                lwd_switch.apply(template, lwd_decision)

                if victim_seq is not None:
                    # Rule A2: images of the evicted packet lose it.
                    holder_ref = a1_holder.pop(victim_seq, None)
                    if holder_ref is not None:
                        a1_of_ref.pop(holder_ref, None)
                    # The A0-aligned partner (if it existed) is now excess;
                    # sync below re-assigns it by A1.

                # REF side.
                ref_decision = ref_policy.admit(ref_switch.view, template)
                if ref_decision.action is Action.PUSH_OUT:
                    raise PolicyError(
                        "reference policy pushed out despite claiming "
                        "non-push-out"
                    )
                ref_switch.metrics.record_arrival(template)
                ref_switch.apply(template, ref_decision)

                # Re-establish A0/A1 on every affected queue.
                affected = {port}
                if lwd_decision.action is Action.PUSH_OUT:
                    affected.add(lwd_decision.victim_port)
                for affected_port in affected:
                    sync_excess(affected_port)
                verify_alignment()

            # Transmission phase: LWD ports first, then REF (the proof's
            # processing order), port by port.
            lwd_done = lwd_switch.transmission_phase()
            for packet in lwd_done:
                # Rule T0: lock this packet's images.
                refs = eligible_refs(packet.port)
                if refs:
                    partner = refs[0]
                    # The A0 partner is the head-aligned eligible ref; it
                    # becomes ineligible, credited to this LWD packet.
                    ineligible.add(partner.seq)
                    clear_a1(partner.seq)  # a head partner is A0, not A1
                    charge(packet.seq, partner.seq, "A0")
                holder_ref = a1_holder.pop(packet.seq, None)
                if holder_ref is not None:
                    a1_of_ref.pop(holder_ref, None)
                    ineligible.add(holder_ref)
                    charge(packet.seq, holder_ref, "A1")
                sync_excess(packet.port)
            lwd_tx_total += len(lwd_done)

            lwd_tx_ports = {p.port for p in lwd_done}
            ref_done = ref_switch.transmission_phase()
            for packet in ref_done:
                if packet.seq in ineligible:
                    ineligible.discard(packet.seq)
                    continue  # already credited at lock time
                # Lemma 8 (cases 1/2): an *eligible* REF transmission
                # coincides with an LWD transmission on the same port. If
                # it does not (possible only after a lemma-layer latency
                # inversion), fall back to charging the packet's current
                # image so the accounting can still be audited.
                if packet.port not in lwd_tx_ports:
                    violate(
                        "T0",
                        f"REF transmitted eligible packet {packet.seq} on "
                        f"port {packet.port} while LWD transmitted on "
                        f"ports {sorted(lwd_tx_ports)}",
                        severity="lemma",
                    )
                image_seq: Optional[int] = None
                if len(lwd_switch.queues[packet.port]) > 0:
                    image_seq = lwd_switch.queues[packet.port].peek_head().seq
                elif packet.seq in a1_of_ref:
                    image_seq = a1_of_ref[packet.seq]
                if image_seq is None:
                    violate(
                        "T0",
                        f"REF packet {packet.seq} transmitted with no "
                        "image to charge",
                    )
                else:
                    clear_a1(packet.seq)
                    charge(image_seq, packet.seq, "A0")
            ref_tx_total += len(ref_done)

            if lwd_tx_total and ref_tx_total > 2 * lwd_tx_total:
                violate(
                    "GLOBAL",
                    f"cumulative REF {ref_tx_total} > 2 x LWD "
                    f"{lwd_tx_total}",
                )

            verify_alignment()
            if (
                drain
                and slot_now >= trace.n_slots
                and lwd_switch.occupancy == 0
                and ref_switch.occupancy == 0
            ):
                break

        return MappingReport(
            slots=slot_now + 1,
            lwd_transmitted=lwd_tx_total,
            ref_transmitted=ref_tx_total,
            a1_assignments=a1_total,
            violations=violations,
        )


def certify_lwd(
    trace: Trace,
    config: SwitchConfig,
    ref_policy: Policy,
    **kwargs,
) -> MappingReport:
    """Convenience wrapper: run the Theorem 7 certificate on one trace."""
    return MappingChecker(config).run(trace, ref_policy, **kwargs)
