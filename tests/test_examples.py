"""Smoke tests: the runnable examples actually run.

Each example is executed in a subprocess with the repository's
interpreter; assertions check exit status and a couple of landmark
strings, not exact numbers (those live in the focused test modules).
Only the fast examples run here; the Fig. 5 regeneration and paper-scale
scripts are exercised through their library entry points elsewhere.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "LWD" in out and "competitive ratio" in out

    def test_processing_walkthrough(self):
        out = run_example("processing_model_walkthrough.py")
        assert "LWD (push-out)" in out
        assert "transmission phase" in out

    def test_value_walkthrough(self):
        out = run_example("value_model_walkthrough.py")
        assert "MRD (push-out)" in out

    def test_adversarial_lower_bounds(self):
        out = run_example("adversarial_lower_bounds.py")
        assert "Theorem 7" not in out  # that one has its own example
        assert "Theorem 6" in out and "predicted" in out

    def test_theorem7_certificate(self):
        out = run_example("theorem7_certificate.py")
        assert "CERTIFIED" in out
        assert "2x accounting certified in all" in out

    def test_custom_policy(self):
        out = run_example("custom_policy.py")
        assert "LEDD" in out

    def test_architecture_comparison(self):
        out = run_example("architecture_comparison.py")
        assert "starvation ratio" in out

    def test_paper_scale_runner_small(self):
        out = run_example("paper_scale_run.py", "800")
        assert "slots/s" in out
