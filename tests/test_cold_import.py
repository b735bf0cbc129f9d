"""Cold start: a serial ``repro run`` imports only what it executes.

Each check starts a fresh interpreter and reads ``sys.modules`` after
the work is done. A Fig. 5 run must not load the reference engine, the
observers, the theorem constructions and other traffic families, the
oracles, the other experiment families or the process pool; those load
when something constructs or calls them, which the same interpreter
then does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules (and packages, with everything under them) that a serial
#: Fig. 5 run never calls.
OFF_PATH = (
    "repro.core.switch",
    "repro.core.queues",
    "repro.obs",
    "repro.traffic.adversarial",
    "repro.traffic.dynamic",
    "repro.traffic.patterns",
    "repro.opt.exhaustive",
    "repro.opt.scripted",
    "repro.experiments.architecture",
    "repro.experiments.report",
    "repro.experiments.robustness",
    "repro.experiments.skewed",
    "repro.experiments.scenarios",
    "concurrent.futures.process",
)

#: Runs one panel the way ``repro run`` does, then builds what the run
#: skipped, recording the loaded modules at each step.
RUN_THEN_BUILD = """
import contextlib, io, json, sys
from repro import cli

loaded = {}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(
        ["run", sys.argv[1], "--slots", "1", "--seeds", "0", "--no-cache"]
    )
loaded["run"] = sorted(sys.modules)

from repro.analysis.competitive import PolicySystem
from repro.core.config import SwitchConfig
from repro.policies import make_policy

system = PolicySystem(SwitchConfig.contiguous(4, 12), make_policy("LWD"))
loaded["reference"] = sorted(sys.modules)

from repro.experiments.registry import run_experiment

scenario, outcome = run_experiment("thm1")
loaded["thm1"] = sorted(sys.modules)
print(json.dumps({
    "code": code,
    "engine": system.engine,
    "switch": type(system.switch).__name__,
    "theorem": scenario.theorem,
    "ratio": outcome.ratio,
    "loaded": loaded,
}))
"""


def _python(code: str, *args: str) -> Dict:
    """Run ``code`` in a fresh interpreter; return its last JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [env.get("PYTHONPATH"), str(REPO_ROOT / "src")])
    )
    env.pop("REPRO_FAULTS", None)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _off_path(modules: List[str]) -> List[str]:
    return [
        name
        for name in modules
        if any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in OFF_PATH
        )
    ]


def test_import_loads_no_subpackage():
    """``import repro`` serves every name on first access; importing the
    CLI loads the run path only. Neither needs numpy."""
    out = _python(
        "import json, sys\n"
        "import repro\n"
        "bare = sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "import repro.cli\n"
        "print(json.dumps({'bare': bare, 'cli': sorted(sys.modules)}))\n"
    )
    assert out["bare"] == ["repro", "repro._lazy"]
    assert _off_path(out["cli"]) == []


@pytest.mark.parametrize("panel", ["fig5-4", "fig5-2"])
def test_run_loads_only_the_run_path(panel):
    pytest.importorskip("numpy", exc_type=ImportError)
    out = _python(RUN_THEN_BUILD, panel)
    assert out["code"] == 0
    assert _off_path(out["loaded"]["run"]) == []
    # What the run skipped still loads where it is constructed: a
    # reference-engine system, and a theorem scenario with its
    # scripted clairvoyant OPT.
    assert out["engine"] == "reference"
    assert out["switch"] == "SharedMemorySwitch"
    assert "repro.core.switch" in out["loaded"]["reference"]
    assert "repro.opt.scripted" not in out["loaded"]["reference"]
    assert out["theorem"].startswith("Theorem 1")
    assert out["ratio"] >= 1.0
    for module in ("repro.traffic.adversarial", "repro.opt.scripted"):
        assert module in out["loaded"]["thm1"]
