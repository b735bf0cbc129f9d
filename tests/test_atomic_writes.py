"""Durable-artifact tests: every published file is whole or absent.

Covers the shared atomic-write primitive, the reproduction report
writer, and the JSONL trace writer — including a subprocess that is
SIGKILLed mid-write, which must never leave a torn file at the target
path.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.atomic import (
    atomic_write_json,
    atomic_write_text,
    tmp_path_for,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestAtomicPrimitive:
    def test_write_text_content_and_no_temp_left(self, tmp_path):
        target = tmp_path / "deep" / "file.txt"
        returned = atomic_write_text(target, "hello\n")
        assert returned == target
        assert target.read_text() == "hello\n"
        assert not tmp_path_for(target).exists()

    def test_write_replaces_existing(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_write_json_appends_newline(self, tmp_path):
        target = tmp_path / "file.json"
        atomic_write_json(target, {"a": 1}, indent=2)
        text = target.read_text()
        assert text.endswith("}\n")
        assert json.loads(text) == {"a": 1}

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "survivor")

        class Boom:
            def __str__(self):
                raise RuntimeError("unserializable")

        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": Boom()})
        assert target.read_text() == "survivor"
        assert not tmp_path_for(target).exists()


@pytest.mark.slow
class TestKillMidWrite:
    def test_sigkill_during_writes_leaves_valid_or_absent_target(
        self, tmp_path
    ):
        """SIGKILL a process that is atomically rewriting a file in a
        tight loop. At every kill instant the target must hold either
        nothing or one complete payload — never a prefix."""
        target = tmp_path / "artifact.txt"
        script = tmp_path / "writer.py"
        # ~8 MB payload so a write takes long enough to be interrupted.
        script.write_text(
            "import sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from repro.resilience.atomic import atomic_write_text\n"
            "payload = ('x' * 1023 + '\\n') * 8192 + 'END\\n'\n"
            "while True:\n"
            "    atomic_write_text(sys.argv[1], payload)\n"
        )
        process = subprocess.Popen(
            [sys.executable, str(script), str(target),
             str(REPO_ROOT / "src")]
        )
        try:
            time.sleep(1.0)  # let many write/replace cycles run
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        if target.exists():
            text = target.read_text()
            assert text.endswith("END\n")
            assert len(text) == 1024 * 8192 + 4
        # The temp file may survive the kill; it must never shadow the
        # target, and its name marks it as disposable.
        leftover = tmp_path_for(target)
        if leftover.exists():
            assert leftover.name.endswith(".tmp")


class TestReproductionReportAtomicity:
    def test_interrupted_generation_keeps_previous_report(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.report as report_mod

        out = tmp_path / "report.md"
        out.write_text("previous report\n")
        monkeypatch.setattr(
            report_mod,
            "generate_report",
            lambda options=None: (_ for _ in ()).throw(
                KeyboardInterrupt()
            ),
        )
        with pytest.raises(KeyboardInterrupt):
            report_mod.write_report(str(out))
        assert out.read_text() == "previous report\n"


class TestTraceWriterAtomicity:
    def _record(self, path, fail_at=None):
        from repro.core.config import SwitchConfig
        from repro.obs.trace_io import record_trace
        from repro.policies import make_policy
        from repro.traffic.workloads import processing_workload

        config = SwitchConfig.contiguous(4, 16)
        trace = processing_workload(config, 40, load=2.0, seed=0)
        return record_trace(make_policy("LWD"), trace, config, path)

    def test_successful_recording_publishes_complete_trace(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        self._record(target)
        lines = target.read_text().splitlines()
        assert json.loads(lines[0])["t"] == "header"
        assert json.loads(lines[-1])["t"] == "end"
        assert not tmp_path_for(target).exists()

    def test_crashed_recording_publishes_nothing(self, tmp_path):
        from repro.core.config import SwitchConfig
        from repro.obs.trace_io import JsonlTraceWriter
        from repro.policies import make_policy
        from repro.traffic.workloads import processing_workload

        target = tmp_path / "trace.jsonl"

        class Exploding(JsonlTraceWriter):
            def on_transmit(self, slot, packet):
                raise RuntimeError("mid-run crash")

        config = SwitchConfig.contiguous(4, 16)
        trace = processing_workload(config, 40, load=2.0, seed=0)
        from repro.analysis.competitive import PolicySystem, run_system

        writer = Exploding(target)
        with pytest.raises(RuntimeError, match="mid-run crash"):
            try:
                run_system(
                    PolicySystem(config, make_policy("LWD")),
                    trace,
                    observer=writer,
                )
            finally:
                writer.abort()
        assert not target.exists()
        assert not tmp_path_for(target).exists()

    def test_record_trace_helper_aborts_on_failure(
        self, tmp_path, monkeypatch
    ):
        import repro.analysis.competitive as competitive

        target = tmp_path / "trace.jsonl"

        def explode(*args, **kwargs):
            raise RuntimeError("engine failure")

        monkeypatch.setattr(competitive, "run_system", explode)
        with pytest.raises(RuntimeError, match="engine failure"):
            self._record(target)
        assert not target.exists()

    def test_unterminated_close_discards(self, tmp_path):
        from repro.obs.trace_io import JsonlTraceWriter

        target = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(target, header={"panel": "x"})
        writer.on_slot_begin(0, 0)
        writer.close()  # no write_end: stream is torn
        assert not target.exists()

    def test_file_object_sink_semantics_unchanged(self, tmp_path):
        import io

        from repro.obs.trace_io import JsonlTraceWriter

        sink = io.StringIO()
        writer = JsonlTraceWriter(sink, header={"panel": "x"})
        writer.write_end()
        assert not sink.closed  # caller keeps ownership
        lines = sink.getvalue().splitlines()
        assert json.loads(lines[0])["t"] == "header"
        assert json.loads(lines[-1])["t"] == "end"
