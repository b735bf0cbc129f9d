"""Unit tests for the sweep farm's building blocks.

Protocol framing and digests, the FarmStats ledger, declarative job
specs (worker-side cell runners must be byte-equal twins of the local
path), and canonical journal merging with the duplicate-equality
check. Socket-level chaos lives in test_farm_chaos.py; the CLI surface
in test_farm_cli.py.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.errors import FarmError, ReproError, ResilienceError
from repro.farm import FarmJob, FarmStats, build_cell_runner, merge_run_journals
from repro.farm import protocol
from repro.resilience.journal import (
    RunJournal,
    canonical_journal_digest,
    read_journal,
)

POINTS = [
    {
        "param_value": 2.0,
        "policy": "LWD",
        "seed": 0,
        "ratio": 1.25,
        "alg_objective": 80.0,
        "opt_objective": 100.0,
    },
    {
        "param_value": 2.0,
        "policy": "LQD",
        "seed": 0,
        "ratio": 1.5,
        "alg_objective": 66.0,
        "opt_objective": 99.0,
    },
]


class TestResultDigest:
    def test_stable_across_calls_and_key_order(self):
        shuffled = [dict(reversed(list(p.items()))) for p in POINTS]
        assert protocol.result_digest(POINTS) == protocol.result_digest(
            shuffled
        )

    def test_sensitive_to_payload(self):
        altered = [dict(POINTS[0]), dict(POINTS[1])]
        altered[1]["ratio"] = 1.5000000000000002
        assert protocol.result_digest(POINTS) != protocol.result_digest(
            altered
        )

    def test_result_message_carries_matching_digest(self):
        message = protocol.result(7, 0, 0, 2.0, 0, POINTS, {"x": 1.0})
        assert message["digest"] == protocol.result_digest(POINTS)
        # Stage timings are wall-clock: they must not affect the digest.
        other = protocol.result(7, 0, 0, 2.0, 0, POINTS, {"x": 99.0})
        assert other["digest"] == message["digest"]

    def test_points_wire_round_trip_is_byte_exact(self):
        from repro.analysis.sweep import SweepPoint

        ugly = 1.0000000000000002 / 3.0
        points = [
            SweepPoint(
                param_value=2.0,
                policy="LWD",
                seed=3,
                ratio=ugly,
                alg_objective=ugly * 2,
                opt_objective=ugly * 3,
            )
        ]
        wire = protocol.points_to_wire(points)
        assert protocol.points_from_wire(wire) == points


class TestMessageStream:
    def _pair(self):
        a, b = socket.socketpair()
        return protocol.MessageStream(a), protocol.MessageStream(b)

    def test_round_trip_multiple_messages(self):
        left, right = self._pair()
        try:
            left.send(protocol.hello("w1", 123))
            left.send(protocol.heartbeat("w1"))
            first = right.recv(timeout=5)
            second = right.recv(timeout=5)
            assert first["t"] == "hello" and first["pid"] == 123
            assert second == {"t": "heartbeat", "name": "w1"}
        finally:
            left.close()
            right.close()

    def test_eof_returns_none(self):
        left, right = self._pair()
        left.close()
        try:
            assert right.recv(timeout=5) is None
        finally:
            right.close()

    def test_garbage_line_raises_farm_error(self):
        a, b = socket.socketpair()
        stream = protocol.MessageStream(b)
        try:
            a.sendall(b"this is not json\n")
            with pytest.raises(FarmError, match="unparseable"):
                stream.recv(timeout=5)
        finally:
            a.close()
            stream.close()

    def test_untyped_object_raises_farm_error(self):
        a, b = socket.socketpair()
        stream = protocol.MessageStream(b)
        try:
            a.sendall(b'{"name": "no type field"}\n')
            with pytest.raises(FarmError, match="not a typed object"):
                stream.recv(timeout=5)
        finally:
            a.close()
            stream.close()

    def test_blank_lines_are_skipped(self):
        a, b = socket.socketpair()
        stream = protocol.MessageStream(b)
        try:
            a.sendall(b'\n\n{"t":"shutdown"}\n')
            assert stream.recv(timeout=5) == {"t": "shutdown"}
        finally:
            a.close()
            stream.close()

    def test_send_is_thread_safe(self):
        """Heartbeat thread and lease loop share one socket: parallel
        sends must interleave at line, not byte, granularity."""
        left, right = self._pair()
        try:
            n_each = 50
            threads = [
                threading.Thread(
                    target=lambda name=name: [
                        left.send(protocol.heartbeat(name))
                        for _ in range(n_each)
                    ]
                )
                for name in ("a", "b")
            ]
            for t in threads:
                t.start()
            got = [right.recv(timeout=5) for _ in range(2 * n_each)]
            for t in threads:
                t.join()
            assert all(m["t"] == "heartbeat" for m in got)
            assert sorted(m["name"] for m in got) == ["a"] * n_each + [
                "b"
            ] * n_each
        finally:
            left.close()
            right.close()


class TestLedger:
    def test_starts_empty(self):
        stats = FarmStats()
        assert not stats.any()
        assert all(v == 0 for v in stats.as_dict().values())

    def test_merge_from_accumulates(self):
        a = FarmStats()
        a.leases_issued = 3
        a.cells_farmed = 2
        a.add_worker_stages("w0", {"policy_run": 1.0})
        b = FarmStats()
        b.leases_issued = 1
        b.duplicate_results = 4
        b.add_worker_stages("w0", {"policy_run": 0.5})
        b.add_worker_stages("w1", {"opt_run": 2.0})
        a.merge_from(b)
        assert a.leases_issued == 4
        assert a.duplicate_results == 4
        assert a.worker_stages["w0"]["policy_run"] == 1.5
        assert a.worker_stages["w1"]["opt_run"] == 2.0

    def test_summary_mentions_only_nonzero(self):
        stats = FarmStats()
        stats.workers_joined = 2
        stats.cells_farmed = 5
        stats.leases_issued = 6
        text = stats.summary()
        assert "2 workers" in text
        assert "5 cells farmed" in text
        assert "expired" not in text

    def test_farm_error_is_repro_error(self):
        # The CLI's blanket handler must catch farm failures too.
        assert issubclass(FarmError, ReproError)


class TestFarmJobs:
    SPEC = {
        "panel": 4,
        "n_slots": 120,
        "load": 0.9,
        "flush_every": None,
        "engine": None,
        "cache_dir": None,
    }

    def test_unknown_kind_raises(self):
        with pytest.raises(FarmError, match="unknown farm job kind"):
            build_cell_runner(FarmJob(kind="nope", spec={}).to_wire())

    def test_schema_version_mismatch_raises(self):
        wire = FarmJob(kind="fig5", spec=self.SPEC).to_wire()
        wire["schema"] = 999
        with pytest.raises(FarmError, match="schema"):
            build_cell_runner(wire)

    def test_fig5_runner_matches_local_execution(self):
        """The worker-side runner must produce byte-equal points to the
        in-process cell path — the root of the determinism contract."""
        from repro.analysis.sweep import _CellContext, _execute_cell
        from repro.experiments import fig5

        spec = fig5.PANELS[4]
        config_factory, trace_factory, _trace_key = fig5._panel_factories(
            spec, self.SPEC["n_slots"], self.SPEC["load"]
        )
        ctx = _CellContext(
            config_factory=config_factory,
            trace_factory=trace_factory,
            by_value=spec.model != "processing",
            flush_every=None,
            drain=False,
        )
        local_points, local_stages = _execute_cell(
            ctx, 2.0, 0, ("Greedy", "MVD"), cell_index=0, attempt=0
        )
        runner = build_cell_runner(
            FarmJob(kind="fig5", spec=self.SPEC).to_wire()
        )
        farm_points, farm_stages = runner(0, 0, 2.0, 0, ("Greedy", "MVD"))
        assert farm_points == local_points
        assert set(farm_stages) == set(local_stages)

    def test_runner_uses_and_fills_shared_cache(self, tmp_path):
        spec = dict(self.SPEC, cache_dir=str(tmp_path / "cache"))
        wire = FarmJob(kind="fig5", spec=spec).to_wire()
        first = build_cell_runner(wire)
        points, first_stages = first(0, 0, 2.0, 0, ("Greedy", "MVD"))
        assert first_stages  # fresh computation has stage timings
        # A second runner (a different worker, in real life) resolves
        # the same lease from the shared store without recomputing:
        # empty stages means zero simulation happened.
        second = build_cell_runner(wire)
        again, stages = second(0, 1, 2.0, 0, ("Greedy", "MVD"))
        assert again == points
        assert stages == {}


class TestMergeJournals:
    IDENTITY = {"name": "sweep-x", "grid": [1.0, 2.0], "seeds": [0]}

    def _journal(self, path, cells):
        with RunJournal(path) as journal:
            journal.open(self.IDENTITY)
            for value, seed, ratio in cells:
                journal.record(
                    value,
                    seed,
                    {"LWD": {"ratio": ratio}},
                    {"policy_run": 0.1},
                )
        return path

    def test_merge_is_order_and_partition_invariant(self, tmp_path):
        whole = self._journal(
            tmp_path / "whole.jsonl",
            [(1.0, 0, 1.1), (2.0, 0, 1.2), (3.0, 0, 1.3)],
        )
        part_a = self._journal(tmp_path / "a.jsonl", [(2.0, 0, 1.2)])
        part_b = self._journal(
            tmp_path / "b.jsonl", [(3.0, 0, 1.3), (1.0, 0, 1.1)]
        )
        solo = merge_run_journals([whole])
        split = merge_run_journals([part_b, part_a])
        assert solo["digest"] == split["digest"]
        assert split["cells"] == 3
        assert split["duplicates"] == 0

    def test_duplicates_must_be_byte_identical(self, tmp_path):
        a = self._journal(tmp_path / "a.jsonl", [(1.0, 0, 1.1)])
        b = self._journal(tmp_path / "b.jsonl", [(1.0, 0, 1.1)])
        report = merge_run_journals([a, b])
        assert report["cells"] == 1
        assert report["duplicates"] == 1

        diverged = self._journal(
            tmp_path / "c.jsonl", [(1.0, 0, 1.1000000000000003)]
        )
        with pytest.raises(FarmError, match="determinism violation"):
            merge_run_journals([a, diverged])

    def test_identity_mismatch_refuses_to_merge(self, tmp_path):
        a = self._journal(tmp_path / "a.jsonl", [(1.0, 0, 1.1)])
        other = tmp_path / "other.jsonl"
        with RunJournal(other) as journal:
            journal.open({"name": "sweep-y"})
            journal.record(1.0, 0, {"LWD": {"ratio": 1.1}}, {})
        with pytest.raises(ResilienceError, match="different sweep"):
            merge_run_journals([a, other])

    def test_merged_output_is_the_canonical_projection(self, tmp_path):
        a = self._journal(
            tmp_path / "a.jsonl", [(2.0, 0, 1.2), (1.0, 0, 1.1)]
        )
        out = tmp_path / "merged.jsonl"
        report = merge_run_journals([a], out=out)
        identity, entries = read_journal(out)
        assert identity == self.IDENTITY
        # Canonical: cells sorted by (value, seed), stages stripped.
        assert list(entries) == [(1.0, 0), (2.0, 0)]
        assert '"stages"' not in out.read_text()
        assert (
            canonical_journal_digest(identity, entries) == report["digest"]
        )
        # Merging the merge is a fixed point.
        assert merge_run_journals([out])["digest"] == report["digest"]

    def test_empty_input_rejected(self):
        with pytest.raises(ResilienceError, match="at least one"):
            merge_run_journals([])
