"""Differential suite: columnar trace pipeline vs object traces.

Three contracts are pinned here (see docs/PIPELINE.md):

* **Shape equivalence** — :class:`ColumnarTrace.from_trace` /
  :meth:`~ColumnarTrace.to_trace` round-trip arbitrary object traces
  (empty slots, empty traces, scripted-OPT tags, explicit arrival
  slots) without changing a single packet field, and
  :func:`repro.goldens.trace_digest` computes the same fingerprint
  from either shape.
* **Pinned generators** — every traffic recipe, in every mode and in
  both its materialised and its stream form, reproduces an absolute
  :func:`repro.goldens.trace_digest`: same ports, works, values, order,
  slot framing.
* **Reuse is not identity** — a :class:`TraceStore` round-trips traces
  exactly through its memo and on-disk artifact tiers, degrades every
  corruption to a rebuild, and a sweep with reuse enabled produces
  byte-identical results to the same sweep without it, serial and
  parallel.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError, TraceError
from repro.core.packet import Packet
from repro.goldens import trace_digest
from repro.traffic.columnar import ColumnarTrace, np
from repro.traffic import patterns, streaming, workloads
from repro.traffic.trace import Trace

needs_numpy = pytest.mark.skipif(np is None, reason="requires numpy")


def _packet_fields(packet: Packet):
    return (
        packet.port,
        packet.work,
        packet.value,
        packet.arrival_slot,
        packet.opt_accept,
    )


def _assert_same_trace(a: Trace, b: Trace) -> None:
    assert a.n_slots == b.n_slots
    for burst_a, burst_b in zip(a.slots, b.slots):
        assert list(map(_packet_fields, burst_a)) == list(
            map(_packet_fields, burst_b)
        )


# ----------------------------------------------------------------------
# Shape equivalence
# ----------------------------------------------------------------------


@st.composite
def _object_traces(draw):
    n_ports = draw(st.integers(1, 5))
    n_slots = draw(st.integers(0, 8))
    trace = Trace()
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
        trace.append_slot(burst)
    return trace


class TestShapeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(trace=_object_traces())
    def test_round_trip_preserves_packets(self, trace):
        columnar = ColumnarTrace.from_trace(trace)
        assert columnar.n_slots == trace.n_slots
        assert columnar.total_packets == trace.total_packets
        _assert_same_trace(columnar.to_trace(), trace)

    @settings(max_examples=40, deadline=None)
    @given(trace=_object_traces())
    def test_digest_is_shape_independent(self, trace):
        columnar = ColumnarTrace.from_trace(trace)
        assert trace_digest(columnar) == trace_digest(trace)

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
            ColumnarTrace([1, 2], [0], [1], [1.0])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            ColumnarTrace([0, 2], [0], [1, 1], [1.0, 1.0])
        with pytest.raises(TraceError):
            ColumnarTrace([0, 1], [0], [1], [1.0], opts=[0, 1])

    def test_slot_bounds(self):
        trace = ColumnarTrace([0, 2, 2, 3], [0, 1, 0], [1, 1, 1], [1.0] * 3)
        assert trace.slot_bounds(0) == (0, 2)
        assert trace.slot_bounds(1) == (2, 2)
        assert trace.slot_bounds(2) == (2, 3)


# ----------------------------------------------------------------------
# Pinned generators
# ----------------------------------------------------------------------


def _proc_config() -> SwitchConfig:
    return SwitchConfig.from_works([1, 2, 3, 4], buffer_size=12)


def _value_config() -> SwitchConfig:
    return SwitchConfig.value_contiguous(4, 12)


def _stream_trace(stream) -> Trace:
    return Trace(list(stream))


#: Absolute ``trace_digest`` of every traffic recipe and mode, pinned so
#: a generator refactor cannot move a single packet. Each entry is
#: ``(case, builder(proc_config, value_config), sha256)``; the stream
#: forms fold their bursts into a :class:`Trace` and must match the
#: materialised form of the same recipe.
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
        lambda proc, val: bench.saturating_workload(proc, 40, seed=2),
        "677f2db2579f2e961bf663c496daf7a46549013fb281eeae604fb1b3c4452dbf",
    ),
    (
        "saturating-priority",
        lambda proc, val: bench.saturating_workload(val, 40, seed=2),
        "aa1589c8cba057caefe3bb8225693b20b1b80edfdc2363f7d986a021e94aa9d1",
    ),
    (
        "stream-processing",
        lambda proc, val: _stream_trace(
            streaming.stream_processing_workload(proc, 80, load=2.5, seed=3)
        ),
        "7a107e21b21b4444e871877c3a29acf424f05541cfeee7565bc59a3f81652a1e",
    ),
    (
        "stream-value-uniform",
        lambda proc, val: _stream_trace(
            streaming.stream_value_uniform_workload(
                val, 80, 16, load=2.5, seed=3
            )
        ),
        "6f34f84cce93a9317c4dd62dc861f32129e45266bc2fc6989150cce3b1ab605b",
    ),
    (
        "stream-value-port",
        lambda proc, val: _stream_trace(
            streaming.stream_value_port_workload(val, 60, load=2.0, seed=5)
        ),
        "205733240b8ab30d7427eb749bc1c421aec4dca0965b97fb9b630e1fec1eb5ac",
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


# ----------------------------------------------------------------------
# Array-column view
# ----------------------------------------------------------------------


@needs_numpy
class TestArrayColumns:
    def test_matches_lists_and_caches(self):
        from repro.core import columns as columns_mod
        from repro.traffic.workloads import processing_workload

        if columns_mod.backend() != "numpy":
            pytest.skip("array view requires the numpy backend")
        trace = processing_workload(_proc_config(), 40, seed=1)
        arrays = trace.array_columns()
        assert arrays is not None
        ports, works, values = arrays
        assert ports.tolist() == trace.ports
        assert works.tolist() == trace.works
        assert values.tolist() == trace.values
        assert trace.array_columns() is arrays

    def test_python_backend_disables_array_view(self, monkeypatch):
        from repro.core import columns as columns_mod
        from repro.traffic.workloads import processing_workload

        trace = processing_workload(_proc_config(), 10, seed=1)
        monkeypatch.setenv(columns_mod.BACKEND_ENV, "python")
        columns_mod.reset_backend_cache()
        try:
            assert trace.array_columns() is None
        finally:
            monkeypatch.delenv(columns_mod.BACKEND_ENV, raising=False)
            columns_mod.reset_backend_cache()


# ----------------------------------------------------------------------
# TraceStore: memo + artifact tiers
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


class TestTraceStore:
    def test_builds_once_then_memo_hits(self):
        from repro.analysis.tracestore import TraceStore

        store = TraceStore()
        calls = []

        def builder():
            calls.append(1)
            return _small_trace()

        first = store.get_or_build("k", builder)
        second = store.get_or_build("k", builder)
        assert first is second
        assert len(calls) == 1
        assert store.builds == 1 and store.memo_hits == 1

    def test_disk_artifact_round_trip(self, tmp_path):
        from repro.analysis.tracestore import TraceStore

        built = TraceStore(tmp_path).get_or_build("k2", _small_trace)
        fresh = TraceStore(tmp_path)
        loaded = fresh.get_or_build(
            "k2", lambda: pytest.fail("should load from disk")
        )
        assert fresh.disk_hits == 1
        assert trace_digest(loaded) == trace_digest(built)
        _assert_same_trace(loaded.to_trace(), built.to_trace())

    def test_corrupt_artifact_degrades_to_rebuild(self, tmp_path):
        from repro.analysis.tracestore import TraceStore

        TraceStore(tmp_path).get_or_build("k3", _small_trace)
        (artifact,) = tmp_path.glob("*.cols")
        blob = bytearray(artifact.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte: checksum must catch it
        artifact.write_bytes(bytes(blob))
        fresh = TraceStore(tmp_path)
        rebuilt = fresh.get_or_build("k3", _small_trace)
        assert fresh.disk_hits == 0 and fresh.builds == 1
        assert trace_digest(rebuilt) == trace_digest(_small_trace())

    def test_wrong_key_in_artifact_is_a_miss(self, tmp_path):
        from repro.analysis import tracestore as ts

        ts.TraceStore(tmp_path).get_or_build("k4", _small_trace)
        (artifact,) = tmp_path.glob("*.cols")
        # Simulate a hash-prefix collision: same file name, other key.
        artifact.rename(tmp_path / ts._artifact_name("other"))
        fresh = ts.TraceStore(tmp_path)
        fresh.get_or_build("other", _small_trace)
        assert fresh.disk_hits == 0 and fresh.builds == 1

    def test_empty_key_rejected(self):
        from repro.analysis.tracestore import TraceStore

        with pytest.raises(ConfigError):
            TraceStore().get_or_build("", _small_trace)

    def test_memo_is_bounded(self):
        from repro.analysis.tracestore import TraceStore

        store = TraceStore(memo_size=2)
        for key in ("a", "b", "c"):
            store.get_or_build(key, _small_trace)
        store.get_or_build("a", _small_trace)  # evicted: rebuilt
        assert store.builds == 4

    def test_summary_mentions_counts(self):
        from repro.analysis.tracestore import TraceStore

        store = TraceStore()
        store.get_or_build("k", _small_trace)
        assert "1 built" in store.summary()


# ----------------------------------------------------------------------
# Reuse is not identity: sweeps with and without a store agree
# ----------------------------------------------------------------------


@needs_numpy
class TestSweepReuseIdentity:
    @staticmethod
    def _sweep(jobs=None, with_store=False, store_dir=None):
        from repro.analysis.sweep import run_sweep
        from repro.analysis.tracestore import TraceStore
        from repro.traffic.workloads import processing_workload

        def trace_key(config, value, seed):
            return f"test|n={config.n_ports}|seed={seed}"

        kwargs = {}
        if with_store:
            kwargs["trace_store"] = TraceStore(store_dir)
            kwargs["trace_key"] = trace_key
        return run_sweep(
            name="reuse",
            param_name="B",
            param_values=(6, 9, 12),
            config_factory=lambda v: SwitchConfig.contiguous(3, int(v)),
            trace_factory=lambda config, v, seed: processing_workload(
                config, 60, load=3.0, seed=seed,
                mean_on_slots=5, mean_off_slots=45, n_sources=20,
            ),
            policy_names=("LWD", "LQD"),
            seeds=(0, 1),
            by_value=False,
            jobs=jobs,
            **kwargs,
        )

    def test_serial_reuse_identity(self, tmp_path):
        plain = self._sweep()
        reused = self._sweep(with_store=True, store_dir=tmp_path)
        assert plain.points == reused.points

    def test_parallel_reuse_identity(self, tmp_path):
        plain = self._sweep()
        reused = self._sweep(
            jobs=2, with_store=True, store_dir=tmp_path
        )
        assert plain.points == reused.points
