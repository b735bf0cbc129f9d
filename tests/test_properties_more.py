"""Second tranche of property-based tests: serialization, surrogates,
the single-queue substrate, and the NHDT-W reduction claim."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import SwitchConfig
from repro.core.packet import Packet
from repro.opt.surrogate import MaxValueSurrogate, SrptSurrogate
from repro.policies import make_policy
from repro.singlequeue import SingleQueueSystem
from repro.traffic.trace import Trace

# ---------------------------------------------------------------------------
# Trace serialization round-trip
# ---------------------------------------------------------------------------


@st.composite
def arbitrary_trace(draw):
    n_slots = draw(st.integers(min_value=0, max_value=6))
    slots = []
    for slot in range(n_slots):
        burst = []
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            burst.append(
                Packet(
                    port=draw(st.integers(min_value=0, max_value=4)),
                    work=draw(st.integers(min_value=1, max_value=5)),
                    value=float(draw(st.integers(min_value=1, max_value=9))),
                    arrival_slot=slot,
                    opt_accept=draw(
                        st.sampled_from([None, True, False])
                    ),
                )
            )
        slots.append(burst)
    return Trace(slots)


@settings(max_examples=40, deadline=None)
@given(trace=arbitrary_trace())
def test_jsonl_round_trip_preserves_everything(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "t.jsonl"
    trace.dump_jsonl(path)
    loaded = Trace.load_jsonl(path)
    assert loaded.n_slots == trace.n_slots
    for original, restored in zip(trace.slots, loaded.slots):
        assert [
            (p.port, p.work, p.value, p.opt_accept) for p in original
        ] == [
            (p.port, p.work, p.value, p.opt_accept) for p in restored
        ]


# ---------------------------------------------------------------------------
# Surrogate invariants
# ---------------------------------------------------------------------------


@st.composite
def surrogate_run(draw):
    n_ports = draw(st.integers(min_value=1, max_value=4))
    works = tuple(
        draw(st.integers(min_value=1, max_value=4)) for _ in range(n_ports)
    )
    buffer_size = draw(st.integers(min_value=n_ports, max_value=8))
    config = SwitchConfig.from_works(works, buffer_size)
    slots = []
    for slot in range(draw(st.integers(min_value=1, max_value=6))):
        burst = []
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            port = draw(st.integers(min_value=0, max_value=n_ports - 1))
            burst.append(
                Packet(
                    port=port,
                    work=works[port],
                    value=float(draw(st.integers(min_value=1, max_value=9))),
                    arrival_slot=slot,
                )
            )
        slots.append(burst)
    return config, slots


@settings(max_examples=40, deadline=None)
@given(run=surrogate_run())
def test_srpt_surrogate_invariants(run):
    config, slots = run
    surrogate = SrptSurrogate(config)
    for burst in slots:
        surrogate.run_slot(burst)
        assert surrogate.backlog <= config.buffer_size
        residuals = [p.residual for p in surrogate._items]
        assert residuals == sorted(residuals)
        assert all(r >= 1 for r in residuals)
    metrics = surrogate.metrics
    accounted = (
        metrics.transmitted_packets + metrics.dropped
        + metrics.pushed_out + metrics.flushed + surrogate.backlog
    )
    assert accounted == metrics.arrived


@settings(max_examples=40, deadline=None)
@given(run=surrogate_run())
def test_value_surrogate_invariants(run):
    config, slots = run
    surrogate = MaxValueSurrogate(config)
    for burst in slots:
        surrogate.run_slot(burst)
        assert surrogate.backlog <= config.buffer_size
        values = [p.value for p in surrogate._items]
        assert values == sorted(values)
    metrics = surrogate.metrics
    accounted = (
        metrics.transmitted_packets + metrics.dropped
        + metrics.pushed_out + metrics.flushed + surrogate.backlog
    )
    assert accounted == metrics.arrived


# ---------------------------------------------------------------------------
# Single-queue substrate invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(run=surrogate_run(), discipline=st.sampled_from(["pq", "fifo"]))
def test_single_queue_invariants(run, discipline):
    config, slots = run
    system = SingleQueueSystem(config, discipline=discipline)
    served_seqs = set()
    for burst in slots:
        done = system.run_slot(burst)
        assert system.backlog <= config.buffer_size
        for packet in done:
            # Run-to-completion: a packet transmits exactly once, fully.
            assert packet.residual == 0
            assert packet.seq not in served_seqs
            served_seqs.add(packet.seq)
    metrics = system.metrics
    accounted = (
        metrics.transmitted_packets + metrics.dropped
        + metrics.pushed_out + metrics.flushed + system.backlog
    )
    assert accounted == metrics.arrived


@settings(max_examples=30, deadline=None)
@given(run=surrogate_run())
def test_single_queue_fifo_never_reorders_service_start(run):
    """FIFO single queue dispatches in arrival order: completions of
    equal-work packets appear in arrival order."""
    config, slots = run
    system = SingleQueueSystem(config, discipline="fifo", cores=1)
    completions = []
    for burst in slots:
        completions.extend(system.run_slot(burst))
    for _ in range(config.buffer_size * config.max_work + 1):
        completions.extend(system.run_slot([]))
    seqs_by_work = {}
    for packet in completions:
        seqs_by_work.setdefault(packet.work, []).append(packet.seq)
    # With one core service is strictly sequential, so completions of
    # any fixed work class respect arrival (seq) order.
    for seqs in seqs_by_work.values():
        assert seqs == sorted(seqs)


# ---------------------------------------------------------------------------
# NHDT-W reduces to NHDT under uniform works
# ---------------------------------------------------------------------------


@st.composite
def uniform_work_run(draw, work_strategy=st.just(1), with_slots=True):
    n_ports = draw(st.integers(min_value=1, max_value=4))
    work = draw(work_strategy)
    buffer_size = draw(st.integers(min_value=n_ports, max_value=10))
    config = SwitchConfig.uniform(n_ports, buffer_size, work=work)
    n_slots = draw(st.integers(min_value=1, max_value=6)) if with_slots else 1
    slots = []
    for slot in range(n_slots):
        ports = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_ports - 1),
                min_size=0, max_size=6,
            )
        )
        slots.append(
            [Packet(port=p, work=work, arrival_slot=slot) for p in ports]
        )
    return config, slots


def _assert_same_decisions(config, slots, transmit: bool):
    from repro.core.switch import SharedMemorySwitch

    a = SharedMemorySwitch(config)
    b = SharedMemorySwitch(config)
    nhdt, nhdtw = make_policy("NHDT"), make_policy("NHDT-W")
    for burst in slots:
        for packet in burst:
            da = nhdt.admit(a.view, packet)
            db = nhdtw.admit(b.view, packet)
            assert da.action == db.action
            a.apply(packet, da)
            b.apply(packet, db)
        if transmit:
            a.transmission_phase()
            b.transmission_phase()


@settings(max_examples=40, deadline=None)
@given(run=uniform_work_run(work_strategy=st.just(1)))
def test_nhdtw_reduces_to_nhdt_for_unit_work(run):
    """The extension's design claim, as a property: with unit works (no
    partial processing possible) the work-weighted rule makes the same
    decision as NHDT on every arrival across full multi-slot runs."""
    config, slots = run
    _assert_same_decisions(config, slots, transmit=True)


@settings(max_examples=40, deadline=None)
@given(
    run=uniform_work_run(
        work_strategy=st.integers(min_value=2, max_value=4), with_slots=False
    )
)
def test_nhdtw_matches_nhdt_on_unprocessed_uniform_buffers(run):
    """With uniform works > 1 the rules still coincide as long as no
    packet is partially processed (one arrival phase, no transmission):
    W_j = |Q_j| * w and the work budget is the count budget scaled by w.
    Once heads start burning cycles the two legitimately diverge — that
    deviation is the generalization."""
    config, slots = run
    _assert_same_decisions(config, slots, transmit=False)
