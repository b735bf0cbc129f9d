"""The trace pipeline: columns, their packet view, generators, reuse.

Three contracts are pinned here (see docs/PIPELINE.md):

* **Packet view** — a :class:`Trace` built from arbitrary bursts
  (empty slots, empty traces, scripted-OPT tags, explicit arrival
  slots) stores them as columns whose packet view reproduces every
  packet field.
* **Pinned generators** — every traffic recipe, in every mode, both
  materialised and as consecutive windows of its chunk iterator, and
  every hand-built construction, reproduces an absolute
  :func:`repro.goldens.trace_digest`: same ports, works, values, order,
  slot framing.
* **Reuse is not identity** — a :class:`TraceStore` hands back the
  trace it was given and drops it at its key's last planned use; the
  default sweep path, which reuses each trace across the cells that
  share it, produces byte-identical results to a sweep regenerating
  every trace, serial and parallel, with a warm cache and with
  retried cells.
"""

from __future__ import annotations

import tempfile
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError, TraceError
from repro.core.packet import Packet
from repro.goldens import trace_digest
from repro.traffic import adversarial, dynamic, patterns, workloads
from repro.traffic.trace import RUN_CAP, RunIndex, Trace, np, port_runs

needs_numpy = pytest.mark.skipif(np is None, reason="requires numpy")


def _packet_fields(packet: Packet):
    return (
        packet.port,
        packet.work,
        packet.value,
        packet.arrival_slot,
        packet.opt_accept,
    )


def _burst_fields(bursts):
    return [list(map(_packet_fields, burst)) for burst in bursts]


# ----------------------------------------------------------------------
# Packet view
# ----------------------------------------------------------------------


@st.composite
def _bursts(draw):
    n_ports = draw(st.integers(1, 5))
    n_slots = draw(st.integers(0, 8))
    bursts = []
    for slot in range(n_slots):
        size = draw(st.sampled_from([0, 0, 1, 2, 5]))
        burst = []
        for _ in range(size):
            burst.append(
                Packet(
                    port=draw(st.integers(0, n_ports - 1)),
                    work=draw(st.integers(1, 6)),
                    value=float(draw(st.integers(1, 4))),
                    arrival_slot=draw(
                        st.sampled_from([slot, slot, max(0, slot - 1)])
                    ),
                    opt_accept=draw(
                        st.sampled_from([None, None, True, False])
                    ),
                )
            )
        bursts.append(burst)
    return bursts


class TestShapeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(bursts=_bursts())
    def test_round_trip_preserves_packets(self, bursts):
        trace = Trace(bursts)
        assert trace.n_slots == len(bursts)
        assert trace.total_packets == sum(map(len, bursts))
        assert _burst_fields(trace.slots) == _burst_fields(bursts)

    def test_digest_distinguishes_content(self):
        base = Trace([[Packet(port=0, work=2, value=1.0, arrival_slot=0)]])
        bumped = Trace([[Packet(port=0, work=3, value=1.0, arrival_slot=0)]])
        padded = Trace(
            [[Packet(port=0, work=2, value=1.0, arrival_slot=0)], []]
        )
        assert trace_digest(base) != trace_digest(bumped)
        assert trace_digest(base) != trace_digest(padded)

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(TraceError):
            Trace.from_columns([1, 2], [0], [1], [1.0])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            Trace.from_columns([0, 2], [0], [1, 1], [1.0, 1.0])
        with pytest.raises(TraceError):
            Trace.from_columns([0, 1], [0], [1], [1.0], opts=[0, 1])

    def test_slot_bounds(self):
        trace = Trace.from_columns(
            [0, 2, 2, 3], [0, 1, 0], [1, 1, 1], [1.0] * 3
        )
        assert trace.slot_bounds(0) == (0, 2)
        assert trace.slot_bounds(1) == (2, 2)
        assert trace.slot_bounds(2) == (2, 3)


# ----------------------------------------------------------------------
# Run index: same-port runs per slot, and per-port span counts
# ----------------------------------------------------------------------


def _columns(slots):
    """Trace columns of slots given as ``(port, run length)`` lists."""
    offsets = [0]
    ports = []
    for runs in slots:
        for port, length in runs:
            ports.extend([port] * length)
        offsets.append(len(ports))
    return Trace.from_columns(
        offsets, ports, [1] * len(ports), [1.0] * len(ports)
    )


def _expected_runs(trace: Trace):
    """Each packet's remaining run within its slot, by a plain scan."""
    ports, offsets = trace.ports, trace.offsets
    runs = []
    for s in range(trace.n_slots):
        hi = offsets[s + 1]
        for i in range(offsets[s], hi):
            j = i
            while j < hi and ports[j] == ports[i]:
                j += 1
            runs.append(min(j - i, RUN_CAP))
    return runs


@st.composite
def _run_slots(draw):
    """Slots of same-port runs, some empty, some runs past RUN_CAP, and
    now and then a port above 255 (no one-byte copy)."""
    ports = draw(st.sampled_from([[0, 1, 2], [0, 1, 300]]))
    run = st.tuples(
        st.sampled_from(ports),
        st.sampled_from([1, 1, 2, 3, RUN_CAP, RUN_CAP + 7]),
    )
    return draw(st.lists(st.lists(run, max_size=4), max_size=6))


class TestRunIndex:
    def test_run_is_cut_at_the_slot_boundary(self):
        # Port 0's packets run on across the slot boundary: two runs.
        trace = _columns([[(1, 1), (0, 2)], [(0, 2), (1, 1)]])
        assert list(trace.run_index.runs) == [1, 2, 1, 2, 1, 1]

    def test_empty_and_single_packet_slots(self):
        trace = _columns([[], [(2, 1)], [], [], [(0, 1)], []])
        assert list(trace.run_index.runs) == [1, 1]
        assert trace.run_index.port_counts(0, 2, 3) == [1, 0, 1]
        empty = Trace([[], []])
        assert empty.run_index.runs == b""
        assert empty.run_index.port_counts(0, 0, 2) == [0, 0]

    def test_long_run_reads_as_capped_runs(self):
        trace = _columns([[(0, 600), (1, 1)]])
        runs = trace.run_index.runs
        assert runs[0] == runs[600 - RUN_CAP] == RUN_CAP
        assert runs[599] == runs[600] == 1
        # A kernel skipping a rejected run lands on the next port.
        i, steps = 0, 0
        while trace.ports[i] == 0:
            i += runs[i]
            steps += 1
        assert (i, steps) == (600, 3)

    def test_builders_rebuild_the_index(self):
        trace = _columns([[(0, 2)]])
        index = trace.run_index
        assert trace.run_index is index
        assert list(index.runs) == [2, 1]
        trace.append_slot([Packet(port=0, work=1), Packet(port=0, work=1)])
        assert trace.run_index is not index
        assert list(trace.run_index.runs) == [2, 1, 2, 1]
        index = trace.run_index
        trace.extend(_columns([[(0, 1), (1, 2)]]))
        assert trace.run_index is not index
        assert list(trace.run_index.runs) == [2, 1, 2, 1, 1, 2, 1]
        assert trace.run_index.port_counts(0, 7, 2) == [5, 2]

    def test_window_indexes_its_own_slots(self):
        trace = _columns([[(0, 3)], [(0, 2), (1, 2)], [(1, 4)], [(0, 1)]])
        lo, hi = trace.slot_bounds(1)[0], trace.slot_bounds(2)[1]
        window = trace.window(1, 3)
        assert window.run_index.runs == trace.run_index.runs[lo:hi]
        assert window.run_index.port_counts(0, hi - lo, 2) == [2, 6]

    @settings(max_examples=60, deadline=None)
    @given(slots=_run_slots())
    def test_pure_python_build(self, slots):
        trace = _columns(slots)
        expect = _expected_runs(trace)
        assert list(port_runs(trace.ports, trace.offsets)) == expect
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.traffic.trace.np", None)
            index = RunIndex(trace.ports, trace.offsets)
        assert list(index.runs) == expect
        n = trace.total_packets
        assert index.port_counts(0, n, 301) == [
            trace.ports.count(p) for p in range(301)
        ]

    @needs_numpy
    @settings(max_examples=60, deadline=None)
    @given(slots=_run_slots())
    def test_numpy_and_pure_python_builds_agree(self, slots):
        trace = _columns(slots)
        index = trace.run_index
        assert index.runs == port_runs(trace.ports, trace.offsets)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.traffic.trace.np", None)
            pure = RunIndex(trace.ports, trace.offsets)
        n = trace.total_packets
        for lo, hi in ((0, n), (n // 3, n - n // 3)):
            assert index.port_counts(lo, hi, 301) == pure.port_counts(
                lo, hi, 301
            )


# ----------------------------------------------------------------------
# Pinned generators
# ----------------------------------------------------------------------


def _proc_config() -> SwitchConfig:
    return SwitchConfig.from_works([1, 2, 3, 4], buffer_size=12)


def _value_config() -> SwitchConfig:
    return SwitchConfig.value_contiguous(4, 12)


def _windowed(chunks, n_slots: int, length: int = 7) -> Trace:
    """Consecutive ``length``-slot windows of a chunk iterator, each
    built at its first slot and appended with :meth:`Trace.extend`."""
    trace = Trace()
    for s0 in range(0, n_slots, length):
        trace.extend(Trace.from_chunks(islice(chunks, length), s0))
    return trace


def _periodic(proc: SwitchConfig) -> Trace:
    return patterns.periodic_burst_workload(
        proc, 60, period=7, burst_per_port=3, seed=3
    )


def _heavy(proc: SwitchConfig) -> Trace:
    return patterns.heavy_tailed_workload(proc, 80, seed=3)


def _jsonl_round_trip(trace: Trace) -> Trace:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        trace.dump_jsonl(path)
        return Trace.load_jsonl(path)


#: Absolute ``trace_digest`` of every traffic recipe and mode, pinned so
#: a generator refactor cannot move a single packet. Each entry is
#: ``(case, builder(proc_config, value_config), sha256)``; the windowed
#: forms concatenate windows of a recipe's chunk iterator and must
#: match the materialised form of the same recipe.
GENERATOR_DIGESTS = [
    (
        "processing-load",
        lambda proc, val: workloads.processing_workload(
            proc, 80, load=2.5, seed=3
        ),
        "7a107e21b21b4444e871877c3a29acf424f05541cfeee7565bc59a3f81652a1e",
    ),
    (
        "processing-rate",
        lambda proc, val: workloads.processing_workload(
            proc, 80, absolute_rate=6.0, seed=3
        ),
        "667eecbaadda89b83ae2be13fb36ee6ee5d7c6ca103644d2dab3d984cfbac8dc",
    ),
    (
        "value-uniform-bound",
        lambda proc, val: workloads.value_uniform_workload(
            val, 80, 16, load=2.5, seed=3
        ),
        "6f34f84cce93a9317c4dd62dc861f32129e45266bc2fc6989150cce3b1ab605b",
    ),
    (
        "value-uniform-spread",
        lambda proc, val: workloads.value_uniform_workload(
            val, 80, 16, load=2.5, seed=3, port_bound_sources=False
        ),
        "6bd760f1a512d5862aa2c99e713a11a8842275c6856a3e09b2f5ab7b1c08e039",
    ),
    (
        "value-port",
        lambda proc, val: workloads.value_port_workload(
            val, 60, load=2.0, seed=5
        ),
        "205733240b8ab30d7427eb749bc1c421aec4dca0965b97fb9b630e1fec1eb5ac",
    ),
    (
        "value-port-weighted",
        lambda proc, val: workloads.value_port_workload(
            val, 60, load=2.0, seed=5, port_weights=[4.0, 1.0, 1.0, 2.0]
        ),
        "4006dda23900ab430870c5a72d3e0fda6ea1dc510bfaf3c505ea14d31279312d",
    ),
    (
        "poisson",
        lambda proc, val: patterns.poisson_workload(
            proc, 60, load=2.0, seed=7
        ),
        "0375b3421d010d9fc61e438b214286ca5c15925e3bb20d877f2fa971afd55ea8",
    ),
    (
        "saturating-fifo",
        lambda proc, val: patterns.saturating_workload(proc, 40, seed=2),
        "677f2db2579f2e961bf663c496daf7a46549013fb281eeae604fb1b3c4452dbf",
    ),
    (
        "saturating-priority",
        lambda proc, val: patterns.saturating_workload(val, 40, seed=2),
        "aa1589c8cba057caefe3bb8225693b20b1b80edfdc2363f7d986a021e94aa9d1",
    ),
    (
        "stream-processing",
        lambda proc, val: _windowed(
            workloads.processing_chunks(proc, 80, load=2.5, seed=3), 80
        ),
        "7a107e21b21b4444e871877c3a29acf424f05541cfeee7565bc59a3f81652a1e",
    ),
    (
        "stream-value-uniform",
        lambda proc, val: _windowed(
            workloads.value_uniform_chunks(val, 80, 16, load=2.5, seed=3),
            80,
        ),
        "6f34f84cce93a9317c4dd62dc861f32129e45266bc2fc6989150cce3b1ab605b",
    ),
    (
        "stream-value-port",
        lambda proc, val: _windowed(
            workloads.value_port_chunks(val, 60, load=2.0, seed=5), 60
        ),
        "205733240b8ab30d7427eb749bc1c421aec4dca0965b97fb9b630e1fec1eb5ac",
    ),
    # The hand-built constructions, at their default rounds (at least
    # two, so repeated rounds exercise the explicit arrival-slot column
    # and every scenario its scripted-OPT tags).
    (
        "thm1-nhst",
        lambda proc, val: adversarial.thm1_nhst(4, 24, rounds=2).trace,
        "2b77ea53e6d2be33f41556cdafaab9bb531ed8f156b13f3be3cd318055e70133",
    ),
    (
        "thm3-nhdt",
        lambda proc, val: adversarial.thm3_nhdt(4, 24).trace,
        "f2530c4c5627c55a3d9f61a21521708670b94e6b47ff5beac079257b9ec6b931",
    ),
    (
        "thm4-lqd",
        lambda proc, val: adversarial.thm4_lqd(4, 24).trace,
        "419b722fde0b4e032c5485713fc144b76e44310569e47a2c80953b0b7fe04a1a",
    ),
    (
        "thm5-bpd",
        lambda proc, val: adversarial.thm5_bpd(4, 24, n_slots=40).trace,
        "5adc99dad2ba230ed3955a54e5f9621d5eaefa57e7551e59549a993bac6378f0",
    ),
    (
        "thm6-lwd",
        lambda proc, val: adversarial.thm6_lwd(24).trace,
        "6f1cf4e86a0cd82bb4d199898ad0a476b29ab9d673b65e9f3d268b3dd99aa5d4",
    ),
    (
        "thm9-lqd-value",
        lambda proc, val: adversarial.thm9_lqd_value(8, 24).trace,
        "51ebbdb69575848d0bd3d36a5750030ea9a214280faebd0849883714a9b1c6a2",
    ),
    (
        "thm10-mvd",
        lambda proc, val: adversarial.thm10_mvd(4, 24, n_slots=40).trace,
        "1f03ae10fae5f0d725c4f0e8d19c62f17b054f56239547fdd3d846e1899f2622",
    ),
    (
        "thm11-mrd",
        lambda proc, val: adversarial.thm11_mrd(24).trace,
        "df0f46fcb6cc9268df9a517bf9a1a7c18c93ab333470110edade0f6b7c541b8e",
    ),
    (
        "greedy-strawman",
        lambda proc, val: adversarial.greedy_value_strawman(
            4, 24, rounds=2
        ).trace,
        "9c5c3b7c9234dc51e702b9cfc97414e27ab9dc11d9c1d54433ab961a0274e978",
    ),
    (
        "dynamic-churn-collapse",
        lambda proc, val: dynamic.lqd_churn_collapse(rounds=2).trace,
        "29a3507fa60b59db84178165916f934bd3edf3ec941668c70fd92fa2a8aab829",
    ),
    (
        "dynamic-squeeze",
        lambda proc, val: dynamic.lqd_oversubscription_squeeze(
            buffer_size=48, streams=2
        ).trace,
        "6bec4b3522ca24968bf1df36ea92c4e9c9a1ef93d7814075d21a557e32ced246",
    ),
    (
        "dynamic-spike",
        lambda proc, val: dynamic.oversubscription_spike_workload(
            proc, 80, seed=3
        ),
        "ee7adec009781aeffd2660b324d83bb08d452d81f1dd4388067621e1d6399373",
    ),
    (
        "dynamic-flap",
        lambda proc, val: dynamic.port_flap_workload(
            proc, 120, load=0.8, seed=3
        ),
        "b4181ed99c80915044e860052b7d1e326208bc62eb7c9125c356009461c219b8",
    ),
    (
        "periodic-burst",
        lambda proc, val: _periodic(proc),
        "3e5c6fcf798e9420f7e3af40aa5816a984fcc3d2d5b07b7dc28699563af2a3fa",
    ),
    (
        "heavy-tailed",
        lambda proc, val: _heavy(proc),
        "387c85a3d5fcaa542601ee4123c77a7e201e6a7eab1ce9450663ac23d67be02c",
    ),
    (
        "mixed-static",
        lambda proc, val: patterns.mixed_trace(
            [
                _periodic(proc),
                dynamic.oversubscription_spike_workload(proc, 50, seed=3),
            ]
        ),
        "27ee7a8c2029f4cfa40f046031a770e6dd25395292fbc917643ce627412d4e90",
    ),
    (
        "thin-static",
        lambda proc, val: patterns.thin_trace(_heavy(proc), 0.5, seed=2),
        "a49c09ead7513338f98db8efa3d1e4b03ed6ad63ee00dadafe6fc3a63f3231ed",
    ),
    (
        "jsonl-round-trip-churn",
        lambda proc, val: _jsonl_round_trip(
            dynamic.lqd_churn_collapse(rounds=2).trace
        ),
        "29a3507fa60b59db84178165916f934bd3edf3ec941668c70fd92fa2a8aab829",
    ),
]


@needs_numpy
@pytest.mark.parametrize(
    "build, digest",
    [
        pytest.param(build, digest, id=case)
        for case, build, digest in GENERATOR_DIGESTS
    ],
)
def test_generator_digest_pinned(build, digest):
    assert trace_digest(build(_proc_config(), _value_config())) == digest


@needs_numpy
@pytest.mark.parametrize(
    "build, digest",
    [
        pytest.param(build, digest, id=case)
        for case, build, digest in GENERATOR_DIGESTS
    ],
)
def test_generator_survives_jsonl_round_trip(build, digest, tmp_path):
    # Every recipe reloads equal, pinned digest included. Only a packet
    # whose arrival slot is not its line's slot writes one ("aslot"),
    # so a trace without out-of-line arrivals keeps the old format.
    trace = build(_proc_config(), _value_config())
    path = tmp_path / "trace.jsonl"
    trace.dump_jsonl(path)
    loaded = Trace.load_jsonl(path)
    assert loaded == trace
    assert trace_digest(loaded) == digest
    if trace.arrivals is None:
        assert '"aslot"' not in path.read_text(encoding="utf-8")


def test_jsonl_keeps_out_of_line_arrival_slots(tmp_path):
    # Repeated rounds replay round one's arrival slots.
    trace = adversarial.thm6_lwd(24).trace
    assert trace.arrivals is not None
    path = tmp_path / "trace.jsonl"
    trace.dump_jsonl(path)
    loaded = Trace.load_jsonl(path)
    assert loaded.arrivals == trace.arrivals
    assert loaded == trace
    assert trace_digest(loaded) == trace_digest(trace)


# ----------------------------------------------------------------------
# TraceStore: use-counted, plan-scoped memo
# ----------------------------------------------------------------------


def _small_trace() -> Trace:
    trace = Trace()
    trace.append_slot(
        [
            Packet(port=0, work=2, value=1.0, arrival_slot=0),
            Packet(port=1, work=1, value=3.0, arrival_slot=0),
        ]
    )
    trace.append_slot([])
    trace.append_slot([Packet(port=1, work=4, value=2.0, arrival_slot=2)])
    return trace


class _CountingBuilder:
    def __init__(self) -> None:
        self.calls = 0

    def __call__(self) -> Trace:
        self.calls += 1
        return _small_trace()


class TestTraceStore:
    def test_builds_once_then_memo_hits(self):
        from repro.analysis.tracestore import TraceStore

        store = TraceStore({"k": 2})
        builder = _CountingBuilder()
        first = store.get_or_build("k", builder)
        second = store.get_or_build("k", builder)
        assert first is second
        assert builder.calls == 1
        assert trace_digest(first) == trace_digest(_small_trace())

    def test_drops_trace_at_last_use(self):
        from repro.analysis.tracestore import TraceStore

        store = TraceStore({"a": 3})
        builder = _CountingBuilder()
        held = []
        for _ in range(3):
            store.get_or_build("a", builder)
            held.append(len(store))
        assert held == [1, 1, 0]
        assert builder.calls == 1
        store.get_or_build("a", builder)  # a use beyond the plan
        assert builder.calls == 2 and len(store) == 0

    def test_single_use_key_is_never_held(self):
        from repro.analysis.tracestore import TraceStore

        store = TraceStore({"once": 1})
        builder = _CountingBuilder()
        store.get_or_build("once", builder)
        store.get_or_build("unplanned", builder)
        assert len(store) == 0 and builder.calls == 2

    def test_empty_key_rejected(self):
        from repro.analysis.tracestore import TraceStore

        with pytest.raises(ConfigError):
            TraceStore({}).get_or_build("", _small_trace)


# ----------------------------------------------------------------------
# Reuse is not identity: the default sweep path against regeneration
# ----------------------------------------------------------------------


def _buffer_panel(**kwargs):
    from repro.experiments.fig5 import run_panel

    kwargs.setdefault("seeds", (0, 1))
    return run_panel(
        2, n_slots=60, policies=("LWD", "LQD", "NHDT"), **kwargs
    )


class _StoreSpy:
    """Wraps the sweep's TraceStore: records every store a sweep
    plans and how many traces it holds after each cell's fetch."""

    def __init__(self, monkeypatch) -> None:
        from repro.analysis import sweep
        from repro.analysis.tracestore import TraceStore

        self.stores = []
        self.held_after_fetch = []
        spy = self

        class SpyStore(TraceStore):
            def __init__(self, uses):
                super().__init__(uses)
                spy.stores.append(self)

            def get_or_build(self, key, builder):
                trace = super().get_or_build(key, builder)
                spy.held_after_fetch.append(len(self))
                return trace

        monkeypatch.setattr(sweep, "TraceStore", SpyStore)


def _count_generator(monkeypatch, name):
    """Count calls of one ``fig5`` generator global (see
    ``fig5._panel_factories``: cells resolve it when they run)."""
    from repro.experiments import fig5

    calls = []
    original = getattr(fig5, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return original(*args, **kwargs)

    monkeypatch.setattr(fig5, name, counted)
    return calls


@needs_numpy
class TestSweepReuseIdentity:
    @staticmethod
    def _regenerating(monkeypatch, **kwargs):
        """The panel with every trace key opted out: one generation per
        cell, as before reuse existed."""
        from repro.experiments import fig5

        original = fig5._panel_factories

        def no_keys(*args):
            config_factory, trace_factory, _key = original(*args)
            return config_factory, trace_factory, lambda c, v, s: None

        with monkeypatch.context() as patch:
            patch.setattr(fig5, "_panel_factories", no_keys)
            calls = _count_generator(patch, "processing_workload")
            result = _buffer_panel(**kwargs)
        assert len(calls) == 12  # six B values x two seeds
        return result

    def test_serial_reuse_identity(self, monkeypatch):
        plain = self._regenerating(monkeypatch)
        reused = _buffer_panel()
        assert reused.points == plain.points

    def test_parallel_reuse_identity(self, monkeypatch):
        plain = self._regenerating(monkeypatch)
        reused = _buffer_panel(jobs=2)
        assert reused.points == plain.points


@needs_numpy
class TestPlanScopedReuse:
    def test_buffer_sweep_generates_once_per_seed(self, monkeypatch):
        calls = _count_generator(monkeypatch, "processing_workload")
        _buffer_panel()
        assert sorted(calls) == [0, 1]

    def test_k_sweep_never_holds_a_trace(self, monkeypatch):
        from repro.experiments.fig5 import run_panel

        spy = _StoreSpy(monkeypatch)
        calls = _count_generator(monkeypatch, "value_uniform_workload")
        run_panel(4, n_slots=40, seeds=(0, 1), policies=("LQD-V", "MVD"))
        assert len(calls) == 12  # every (k, seed) cell is its own trace
        assert spy.held_after_fetch == [0] * 12

    def test_warm_cache_builds_each_remaining_trace_once(
        self, monkeypatch, tmp_path
    ):
        _buffer_panel(param_values=(24, 48), cache_dir=tmp_path)
        spy = _StoreSpy(monkeypatch)
        calls = _count_generator(monkeypatch, "processing_workload")
        result = _buffer_panel(cache_dir=tmp_path)
        assert result.stats.cells_executed == 8
        assert sorted(calls) == [0, 1]
        (store,) = spy.stores
        assert len(store) == 0
        assert result.points == _buffer_panel().points

    @pytest.mark.parametrize(
        "fault, generations",
        [
            # A crash fires before the cell fetches its trace, so it
            # spends no use: the deferred retry finds the trace held.
            ("crash@0", 1),
            # A corrupt result is rejected after the fetch; the retry
            # runs after the key's last use and rebuilds the trace.
            ("corrupt@0", 2),
        ],
    )
    def test_retried_cell_replays_identical_bytes(
        self, monkeypatch, fault, generations
    ):
        from repro.resilience import FaultInjector

        clean = _buffer_panel(seeds=(0,))
        spy = _StoreSpy(monkeypatch)
        calls = _count_generator(monkeypatch, "processing_workload")
        chaos = _buffer_panel(
            seeds=(0,), fault_injector=FaultInjector.parse(fault)
        )
        assert chaos.stats.resilience.retries == 1
        assert len(calls) == generations
        assert len(spy.stores[0]) == 0
        assert chaos.points == clean.points
