"""Adversarial arrival sequences from the paper's lower-bound proofs.

Every lower-bound theorem in the paper (Theorems 1, 3, 4, 5, 6, 9, 10, 11)
is a constructive proof: it exhibits an arrival sequence together with an
explicit admission plan for the clairvoyant OPT, and computes the resulting
throughput (or value) ratio. This module turns each construction into an
executable scenario:

* the arrival sequence becomes a :class:`~repro.traffic.trace.Trace`;
* OPT's admission plan becomes per-packet ``opt_accept`` tags, replayed by
  :class:`~repro.opt.scripted.ScriptedPolicy` on an ordinary switch;
* the theorem's ratio (evaluated at the chosen finite ``B`` and ``k``, not
  just asymptotically) becomes :attr:`AdversarialScenario.predicted_ratio`.

Constructions repeat in *rounds* ("then another large burst arrives, and
the process repeats"): round lengths and OPT plans are chosen so that OPT's
buffer drains by the end of each round, keeping the scripted plan feasible
across repetitions. Replenishment streams are cut off ``w`` slots before a
round ends so a work-``w`` packet admitted by OPT always completes within
its round.

Where the paper's proof text has minor index slippage (e.g. whether the
Theorem 3 burst spans ``m`` or ``m + 1`` work classes), we fix one
consistent reading and document it in the builder; the asymptotics are
unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro._math import harmonic_number, harmonic_range
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.traffic.trace import Trace, burst


@dataclass(frozen=True)
class AdversarialScenario:
    """A lower-bound construction ready to execute.

    ``predicted_ratio`` is the ratio the proof derives for these finite
    parameters; simulations should land near it (the proof's algebra drops
    floor/ceiling and O(1/B) terms, so agreement is approximate).
    """

    name: str
    theorem: str
    target_policy: str
    config: SwitchConfig
    trace: Trace
    predicted_ratio: float
    by_value: bool
    notes: str = ""


def _require_divisible(b: int, divisor: int, what: str) -> None:
    if b % divisor != 0:
        raise ConfigError(
            f"{what} requires B divisible by {divisor}, got B={b} "
            "(the paper assumes B divides everything it needs to divide)"
        )


def _replenish(
    bursts: List[List[Packet]],
    *,
    work_class: int,
    port: int,
    period_end: int,
    value: float = 1.0,
    work: Optional[int] = None,
) -> None:
    """Add one OPT-tagged packet of class ``work_class`` to the per-slot
    ``bursts`` every ``work_class`` slots, stopping early enough that
    the last one finishes processing before ``period_end``."""
    w = work_class if work is None else work
    for t in range(work_class, period_end - work_class + 1, work_class):
        bursts[t].append(
            Packet(
                port=port,
                work=w,
                value=value,
                arrival_slot=t,
                opt_accept=True,
            )
        )


# ---------------------------------------------------------------------------
# Theorem 1 — NHST is at least kZ-competitive
# ---------------------------------------------------------------------------


def thm1_nhst(k: int, buffer_size: int, rounds: int = 3) -> AdversarialScenario:
    """Burst of ``B x [k]``; NHST admits only ``B/(kZ)`` of them.

    The contiguous configuration gives ``Z = H_k``, so NHST's static
    threshold confines the burst's queue to ``B / (k H_k)`` packets, while
    OPT accepts all ``B``. Each round lasts ``B * k`` slots so that OPT's
    single active queue (one cycle per slot on work-``k`` packets) drains
    completely before the next burst.
    """
    config = SwitchConfig.contiguous(k, buffer_size)
    z = config.inverse_work_sum
    threshold = buffer_size / (k * z)
    admitted = (
        int(threshold)
        if threshold == int(threshold)
        else math.floor(threshold) + 1
    )
    admitted = max(1, min(admitted, buffer_size))

    round_trace = Trace()
    round_trace.append_slot(
        burst(0, port=k - 1, count=buffer_size, work=k,
              opt_accept_first=buffer_size)
    )
    for _ in range(buffer_size * k - 1):
        round_trace.append_slot()

    predicted = buffer_size / admitted
    return AdversarialScenario(
        name=f"thm1-nhst-k{k}-B{buffer_size}",
        theorem="Theorem 1",
        target_policy="NHST",
        config=config,
        trace=round_trace.repeated(rounds),
        predicted_ratio=predicted,
        by_value=False,
        notes=(
            f"NHST admits {admitted} of {buffer_size} packets per round "
            f"(threshold B/(k Z) = {threshold:.2f}); asymptotic bound kZ = "
            f"{k * z:.2f}"
        ),
    )


# ---------------------------------------------------------------------------
# Theorem 3 — NHDT is at least ~(1/2) sqrt(k ln k)-competitive
# ---------------------------------------------------------------------------


def thm3_nhdt(
    k: int,
    buffer_size: int,
    rounds: int = 2,
    heavy_classes: Optional[int] = None,
) -> AdversarialScenario:
    """Descending heavy bursts then ``B x [1]``; harmonic thresholds make
    NHDT hoard heavy packets and starve its work-1 allocation.

    The proof's parameter ``m`` enters as ``h = k - m``, the number of
    heavy work classes in the burst (``k`` down to ``k - h + 1``,
    heaviest first); the optimum is ``h = sqrt(k / ln k)``, small. NHDT's
    dynamic thresholds allocate ``~A = B / H_k`` to the first (heaviest)
    class, ``A/2`` to the next, and only ``~A/(h+1)`` to work-1 packets,
    while OPT keeps exactly one packet per heavy class (replenished every
    ``w`` slots) and ``B - h`` work-1 packets.
    """
    if k < 4:
        raise ConfigError("Theorem 3 construction needs k >= 4")
    if heavy_classes is None:
        heavy_classes = round(math.sqrt(k / max(math.log(k), 1e-9)))
    h = max(1, min(heavy_classes, k - 1))
    if buffer_size <= k:
        raise ConfigError("Theorem 3 assumes B asymptotically above k")

    config = SwitchConfig.contiguous(k, buffer_size)
    period = buffer_size - h

    slot0 = []
    for w in range(k, k - h, -1):  # heaviest first, exactly as the proof
        slot0.extend(
            burst(0, port=w - 1, count=buffer_size, work=w, opt_accept_first=1)
        )
    slot0.extend(
        burst(0, port=0, count=buffer_size, work=1,
              opt_accept_first=buffer_size - h)
    )
    bursts = [slot0] + [[] for _ in range(period - 1)]
    for w in range(k - h + 1, k + 1):
        _replenish(bursts, work_class=w, port=w - 1, period_end=period)
    round_trace = Trace(bursts)

    # Finite-parameter form of the proof's ratio with A = B / ln k:
    # OPT rate 1 + S vs NHDT rate S plus its meagre work-1 allocation,
    # where S = H_k - H_{k-h} is the heavy classes' joint service rate.
    heavy_rate = harmonic_number(k) - harmonic_number(k - h)
    a_const = buffer_size / math.log(k)
    denominator = heavy_rate + a_const / (period * (h + 1))
    predicted = (1.0 + heavy_rate) / denominator

    return AdversarialScenario(
        name=f"thm3-nhdt-k{k}-B{buffer_size}",
        theorem="Theorem 3",
        target_policy="NHDT",
        config=config,
        trace=round_trace.repeated(rounds),
        predicted_ratio=predicted,
        by_value=False,
        notes=(
            f"h={h} heavy classes; asymptotic bound (1/2) sqrt(k ln k) = "
            f"{0.5 * math.sqrt(k * math.log(k)):.2f}"
        ),
    )


# ---------------------------------------------------------------------------
# Theorem 4 — LQD is at least ~sqrt(k)-competitive
# ---------------------------------------------------------------------------


def thm4_lqd(
    k: int,
    buffer_size: int,
    rounds: int = 2,
    m: Optional[int] = None,
) -> AdversarialScenario:
    """Burst of ``B x [1]`` plus the ``m`` heaviest classes; LQD splits the
    buffer evenly and wastes it on heavy packets.

    OPT keeps one packet per heavy class (replenished) and ``B - m`` work-1
    packets; the proof's optimal choice is ``m = sqrt(k)``.
    """
    if k < 4:
        raise ConfigError("Theorem 4 construction needs k >= 4")
    if m is None:
        m = max(1, round(math.sqrt(k)))
    m = min(m, k - 1)
    config = SwitchConfig.contiguous(k, buffer_size)
    period = buffer_size - m

    slot0 = list(
        burst(0, port=0, count=buffer_size, work=1,
              opt_accept_first=buffer_size - m)
    )
    for w in range(k, k - m, -1):
        slot0.extend(
            burst(0, port=w - 1, count=buffer_size, work=w, opt_accept_first=1)
        )
    bursts = [slot0] + [[] for _ in range(period - 1)]
    for w in range(k - m + 1, k + 1):
        _replenish(bursts, work_class=w, port=w - 1, period_end=period)
    round_trace = Trace(bursts)

    beta = harmonic_range(k - m + 1, k)  # beta_{k,m} in the proof
    frac = m / buffer_size
    predicted = 1.0 + ((m - 1) / m - frac) / (1.0 / m + (1.0 - frac) * beta)

    return AdversarialScenario(
        name=f"thm4-lqd-k{k}-B{buffer_size}",
        theorem="Theorem 4",
        target_policy="LQD",
        config=config,
        trace=round_trace.repeated(rounds),
        predicted_ratio=predicted,
        by_value=False,
        notes=(
            f"m={m} heavy classes; asymptotic bound sqrt(k) = "
            f"{math.sqrt(k):.2f}"
        ),
    )


# ---------------------------------------------------------------------------
# Theorem 5 — BPD is at least H_k-competitive
# ---------------------------------------------------------------------------


def thm5_bpd(k: int, buffer_size: int, n_slots: int = 400) -> AdversarialScenario:
    """BPD hoards work-1 packets and serves one port; OPT serves all ``k``.

    The proof sends the full set ``B x [1..k]`` every slot; behaviourally it
    suffices to fill BPD's buffer with work-1 packets once and then offer,
    each slot, one work-1 packet (which BPD accepts, staying saturated) and
    one packet of class ``w`` every ``w`` slots (which BPD drops but OPT
    uses to keep all its ports busy). BPD transmits 1 packet per slot; OPT
    transmits at rate ``H_k``.
    """
    if buffer_size < k * (k + 1) // 2:
        raise ConfigError(
            f"Theorem 5 requires B >= k(k+1)/2 = {k * (k + 1) // 2}, "
            f"got B={buffer_size}"
        )
    config = SwitchConfig.contiguous(k, buffer_size)

    slot0 = list(
        burst(0, port=0, count=buffer_size, work=1, opt_accept_first=1)
    )
    for w in range(2, k + 1):
        slot0.extend(burst(0, port=w - 1, count=1, work=w, opt_accept_first=1))
    bursts = [slot0] + [[] for _ in range(n_slots - 1)]
    # Work-1 refills every slot (BPD accepts them greedily; OPT too).
    _replenish(bursts, work_class=1, port=0, period_end=n_slots)
    for w in range(2, k + 1):
        _replenish(bursts, work_class=w, port=w - 1, period_end=n_slots)
    trace = Trace(bursts)

    return AdversarialScenario(
        name=f"thm5-bpd-k{k}-B{buffer_size}",
        theorem="Theorem 5",
        target_policy="BPD",
        config=config,
        trace=trace,
        predicted_ratio=harmonic_number(k),
        by_value=False,
        notes=f"asymptotic bound ln k + gamma = {math.log(k) + 0.5772:.2f}",
    )


# ---------------------------------------------------------------------------
# Theorem 6 — LWD is at least (4/3 - 6/B)-competitive
# ---------------------------------------------------------------------------


def thm6_lwd(buffer_size: int, rounds: int = 2) -> AdversarialScenario:
    """The contiguous-case lower bound for LWD, on works {1, 2, 3, 6}.

    First burst: ``B x [1], B/4 x [2], B/6 x [3], B/12 x [6]``. LWD
    equalizes total work per queue, keeping only ``B/2`` of the work-1
    packets; OPT keeps ``B - 3`` of them plus one packet per heavy class,
    replenished so its heavy ports never idle.
    """
    _require_divisible(buffer_size, 12, "Theorem 6")
    if buffer_size < 24:
        raise ConfigError("Theorem 6 construction needs B >= 24")
    config = SwitchConfig.from_works((1, 2, 3, 6), buffer_size)
    b = buffer_size
    period = b - 3

    slot0 = list(burst(0, port=0, count=b, work=1, opt_accept_first=b - 3))
    slot0.extend(burst(0, port=1, count=b // 4, work=2, opt_accept_first=1))
    slot0.extend(burst(0, port=2, count=b // 6, work=3, opt_accept_first=1))
    slot0.extend(burst(0, port=3, count=b // 12, work=6, opt_accept_first=1))
    bursts = [slot0] + [[] for _ in range(period - 1)]
    _replenish(bursts, work_class=2, port=1, period_end=period)
    _replenish(bursts, work_class=3, port=2, period_end=period)
    _replenish(bursts, work_class=6, port=3, period_end=period)
    round_trace = Trace(bursts)

    predicted = 4.0 / 3.0 - 6.0 / b
    return AdversarialScenario(
        name=f"thm6-lwd-B{buffer_size}",
        theorem="Theorem 6",
        target_policy="LWD",
        config=config,
        trace=round_trace.repeated(rounds),
        predicted_ratio=predicted,
        by_value=False,
        notes="works (1,2,3,6); LWD keeps B/2 of the work-1 packets",
    )


# ---------------------------------------------------------------------------
# Theorem 9 — value-model LQD is at least ~cbrt(k)-competitive
# ---------------------------------------------------------------------------


def thm9_lqd_value(
    k: int,
    buffer_size: int,
    rounds: int = 2,
    a: Optional[int] = None,
) -> AdversarialScenario:
    """LQD balances queue lengths and squanders buffer on cheap packets.

    Value equals port label. First slot: ``B`` packets of each value
    ``1..a`` plus ``B`` packets of value ``k``; afterwards one packet of
    each value ``1..a`` per slot. LQD levels all ``a + 1`` queues; OPT
    hoards value-``k`` packets. The proof's optimal choice is
    ``a = cbrt(k)``.
    """
    if k < 8:
        raise ConfigError("Theorem 9 construction needs k >= 8")
    if a is None:
        a = max(1, round(k ** (1.0 / 3.0)))
    a = min(a, k - 1)
    config = SwitchConfig.value_contiguous(k, buffer_size)
    if buffer_size <= 3 * a:
        raise ConfigError("Theorem 9 needs B > 3a for a feasible OPT plan")
    opt_big = buffer_size - 3 * a  # margin keeps the scripted plan feasible
    period = opt_big

    round_trace = Trace()
    slot0 = list(
        burst(0, port=k - 1, count=buffer_size, work=1, value=float(k),
              opt_accept_first=opt_big)
    )
    for v in range(1, a + 1):
        slot0.extend(
            burst(0, port=v - 1, count=buffer_size, work=1, value=float(v),
                  opt_accept_first=1)
        )
    round_trace.append_slot(slot0)
    for t in range(1, period):
        round_trace.append_slot(
            [
                Packet(port=v - 1, work=1, value=float(v), arrival_slot=t,
                       opt_accept=True)
                for v in range(1, a + 1)
            ]
        )

    numerator = 0.5 * a * (a - 1) + k
    predicted = numerator / (0.5 * a * (a - 1) + k / a)
    return AdversarialScenario(
        name=f"thm9-lqd-value-k{k}-B{buffer_size}",
        theorem="Theorem 9",
        target_policy="LQD-V",
        config=config,
        trace=round_trace.repeated(rounds),
        predicted_ratio=predicted,
        by_value=True,
        notes=(
            f"a={a}; asymptotic bound cbrt(k) = {k ** (1 / 3):.2f}"
        ),
    )


# ---------------------------------------------------------------------------
# Section IV-B strawman — greedy non-push-out is at least k-competitive
# ---------------------------------------------------------------------------


def greedy_value_strawman(
    k: int, buffer_size: int, rounds: int = 3
) -> AdversarialScenario:
    """Fill the buffer with value-1 packets, then send the value-k ones.

    Section IV-B dismisses non-push-out policies in the value model with
    this two-burst construction: a greedy policy admits ``B`` value-1
    packets and must then drop the ``B`` value-``k`` packets that follow,
    while OPT takes only the latter. Per round of ``2B`` slots the ratio
    approaches ``(k + 1/ (2...))``; asymptotically ``k`` as the paper
    states (value-1 credit becomes negligible for large ``k``).
    """
    if k < 2:
        raise ConfigError("the greedy strawman needs k >= 2")
    config = SwitchConfig.value_ports((1.0, float(k)), buffer_size)
    b = buffer_size

    round_trace = Trace()
    # Burst 1: B cheap packets (greedy fills up; OPT abstains).
    slot0 = list(
        burst(0, port=0, count=b, work=1, value=1.0, opt_accept_first=0)
    )
    # Burst 2 (same slot, after the 1s): B valuable packets.
    slot0.extend(
        burst(0, port=1, count=b, work=1, value=float(k),
              opt_accept_first=b)
    )
    round_trace.append_slot(slot0)
    # Both need B slots to drain their single busy port.
    for _ in range(b - 1):
        round_trace.append_slot()

    predicted = (b * k) / (b * 1.0)  # OPT value / greedy value per round
    return AdversarialScenario(
        name=f"greedy-strawman-k{k}-B{buffer_size}",
        theorem="Section IV-B",
        target_policy="Greedy",
        config=config,
        trace=round_trace.repeated(rounds),
        predicted_ratio=predicted,
        by_value=True,
        notes=f"greedy non-push-out is at least k = {k}-competitive",
    )


# ---------------------------------------------------------------------------
# Theorem 10 — MVD is at least ~(m-1)/2-competitive
# ---------------------------------------------------------------------------


def thm10_mvd(
    k: int, buffer_size: int, n_slots: int = 300
) -> AdversarialScenario:
    """Every value class arrives every slot; MVD keeps only the top value.

    Value equals port label, ``m = min(k, B)`` classes. The initial
    ascending burst leaves MVD's buffer holding only value-``m`` packets;
    afterwards each slot's ascending cascade of one packet per value ends
    with MVD again holding only value-``m`` packets and transmitting one
    per slot, while OPT transmits one packet of *every* value per slot.
    """
    m = min(k, buffer_size)
    if m < 2:
        raise ConfigError("Theorem 10 needs min(k, B) >= 2")
    config = SwitchConfig.value_contiguous(m, buffer_size)

    trace = Trace()
    slot0 = []
    for v in range(1, m + 1):
        slot0.extend(
            burst(0, port=v - 1, count=buffer_size, work=1, value=float(v),
                  opt_accept_first=1)
        )
    trace.append_slot(slot0)
    for t in range(1, n_slots):
        trace.append_slot(
            [
                Packet(port=v - 1, work=1, value=float(v), arrival_slot=t,
                       opt_accept=True)
                for v in range(1, m + 1)
            ]
        )

    predicted = (m + 1) / 2.0  # exact for this finite construction
    return AdversarialScenario(
        name=f"thm10-mvd-k{k}-B{buffer_size}",
        theorem="Theorem 10",
        target_policy="MVD",
        config=config,
        trace=trace,
        predicted_ratio=predicted,
        by_value=True,
        notes=(
            f"m={m}; paper states the slightly looser (m-1)/2 = "
            f"{(m - 1) / 2:.1f}"
        ),
    )


# ---------------------------------------------------------------------------
# Theorem 11 — MRD is at least ~4/3-competitive (port-determined values)
# ---------------------------------------------------------------------------


def thm11_mrd(buffer_size: int, rounds: int = 2) -> AdversarialScenario:
    """MRD ratio-balances across values {1, 2, 3, 6}; OPT hoards 6s.

    First burst: ``B`` packets of each value 1, 2, 3, 6 (ascending). MRD
    converges to queue sizes ``B/12, B/6, B/4, B/2``; OPT keeps ``B - 6``
    value-6 packets plus one of each smaller value, replenished every slot.
    """
    _require_divisible(buffer_size, 12, "Theorem 11")
    if buffer_size < 24:
        raise ConfigError("Theorem 11 construction needs B >= 24")
    config = SwitchConfig.value_ports((1.0, 2.0, 3.0, 6.0), buffer_size)
    b = buffer_size
    opt_six = b - 6
    period = opt_six

    round_trace = Trace()
    slot0 = []
    for port, value in ((0, 1.0), (1, 2.0), (2, 3.0)):
        slot0.extend(
            burst(0, port=port, count=b, work=1, value=value,
                  opt_accept_first=1)
        )
    slot0.extend(
        burst(0, port=3, count=b, work=1, value=6.0, opt_accept_first=opt_six)
    )
    round_trace.append_slot(slot0)
    for t in range(1, period):
        round_trace.append_slot(
            [
                Packet(port=port, work=1, value=value, arrival_slot=t,
                       opt_accept=True)
                for port, value in ((0, 1.0), (1, 2.0), (2, 3.0))
            ]
        )

    # OPT earns 12 per slot while its 6s last; MRD earns 12 per slot for
    # B/2 slots, then 6 per slot — the proof's (4/3 - O(1/B)) ratio.
    opt_value = 12.0 * (b - 6)
    mrd_value = 12.0 * (b / 2.0) + 6.0 * (b / 2.0 - 6)
    predicted = opt_value / mrd_value
    return AdversarialScenario(
        name=f"thm11-mrd-B{buffer_size}",
        theorem="Theorem 11",
        target_policy="MRD",
        config=config,
        trace=round_trace.repeated(rounds),
        predicted_ratio=predicted,
        by_value=True,
        notes="values (1,2,3,6); asymptotic bound 4/3",
    )


#: All builders keyed by theorem label, for experiment registries.
ALL_SCENARIOS = {
    "thm1": thm1_nhst,
    "thm3": thm3_nhdt,
    "thm4": thm4_lqd,
    "thm5": thm5_bpd,
    "thm6": thm6_lwd,
    "thm9": thm9_lqd_value,
    "thm10": thm10_mvd,
    "thm11": thm11_mrd,
    "greedy": greedy_value_strawman,
}
