"""Tests for :mod:`repro.check` — the contract-aware static analyzer.

Three layers:

* **Golden corpus.** ``tests/check_corpus/`` holds known-bad fixture
  files (one per rule pack) and ``golden.json`` with the exact
  ``(code, path, line, col)`` set the analyzer must produce. Any rule
  regression — missed finding, phantom finding, shifted anchor —
  diffs against the golden set.
* **Unit cases.** Each rule gets focused positive *and* negative
  sources through :func:`repro.check.check_source`, pinning the
  exemptions (seeded RNGs, ``raise`` formatting, self-like access,
  re-raising handlers, the atomic module itself).
* **Meta.** The analyzer holds at HEAD: ``repro check src/`` is clean,
  and the CLI's exit codes / JSON schema are stable.
* **Demolition.** Take the real tree, break one invariant in memory
  (rename a trace event) and assert the project phase reports it — the
  analyzer guards the contracts it claims to guard.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import (
    all_rules,
    check_source,
    get_rule,
    run_check,
    run_check_sources,
)
from repro.check.findings import REPORT_SCHEMA_VERSION
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "check_corpus"

EXPECTED_CODES = {
    "RC101", "RC102", "RC103", "RC104", "RC105",
    "RC201", "RC202", "RC203", "RC204",
    "RC301", "RC302", "RC303",
    "RC401", "RC402", "RC403",
    "RC603", "RC604",
}

#: Rules that need the project phase (cross-module facts).
PROJECT_CODES = {"RC603", "RC604"}


def codes_of(report):
    return [f.code for f in report.findings]


def check_snippet(source, module, *, rules=None):
    """Run the analyzer over a source string pinned to ``module``."""
    pragma = f"# repro: module={module}\n"
    return check_source(pragma + source, rules=rules)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_all_seventeen_rules_registered(self):
        assert {r.code for r in all_rules()} == EXPECTED_CODES

    def test_rule_kinds(self):
        kinds = {r.code: r.kind for r in all_rules()}
        assert {c for c, k in kinds.items() if k == "project"} == (
            PROJECT_CODES
        )
        assert all(
            k == "module"
            for c, k in kinds.items()
            if c not in PROJECT_CODES
        )

    def test_rules_sorted_by_code(self):
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)

    def test_get_rule_round_trip(self):
        rule = get_rule("RC403")
        assert rule.name == "non-atomic-write"
        with pytest.raises(Exception):
            get_rule("RC999")

    def test_every_rule_has_summary(self):
        for rule in all_rules():
            assert rule.summary, rule.code


# ----------------------------------------------------------------------
# Golden corpus
# ----------------------------------------------------------------------


class TestGoldenCorpus:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((CORPUS / "golden.json").read_text())

    @pytest.fixture(scope="class")
    def report(self):
        return run_check([CORPUS])

    def test_findings_match_golden_exactly(self, golden, report):
        got = [
            {
                "code": f.code,
                "rule": f.rule,
                "path": str(Path(f.path).relative_to(CORPUS.parent.parent)
                            if Path(f.path).is_absolute() else f.path),
                "line": f.line,
                "col": f.col,
                "scope": f.scope,
            }
            for f in report.findings
        ]
        want = golden["findings"]
        assert got == want

    def test_corpus_exercises_every_rule(self, golden):
        fired = {f["code"] for f in golden["findings"]}
        assert EXPECTED_CODES <= fired
        # ... and all three meta codes.
        assert {"RC900", "RC901", "RC902"} <= fired

    def test_suppressed_count(self, golden, report):
        assert report.suppressed == golden["suppressed"] == 1

    def test_files_scanned(self, golden, report):
        assert report.files_scanned == golden["files_scanned"] == 8

    def test_golden_scope_matches_rule_kind(self, golden):
        for finding in golden["findings"]:
            if finding["code"].startswith("RC9"):
                continue
            want = (
                "project"
                if finding["code"] in PROJECT_CODES
                else "module"
            )
            assert finding["scope"] == want, finding


# ----------------------------------------------------------------------
# Determinism rules (RC1xx)
# ----------------------------------------------------------------------


class TestDeterminismRules:
    def test_wall_clock_flagged(self):
        report = check_snippet(
            "import time\nt = time.time()\n", "repro.core.x"
        )
        assert "RC101" in codes_of(report)

    def test_wall_clock_ok_outside_scope(self):
        report = check_snippet(
            "import time\nt = time.time()\n", "repro.analysis.x"
        )
        assert "RC101" not in codes_of(report)

    def test_perf_counter_flagged(self):
        report = check_snippet(
            "import time\nt = time.perf_counter()\n", "repro.opt.x"
        )
        assert "RC101" in codes_of(report)

    def test_entropy_flagged(self):
        report = check_snippet(
            "import os\nb = os.urandom(4)\n", "repro.traffic.x"
        )
        assert "RC102" in codes_of(report)

    def test_uuid4_flagged_via_from_import(self):
        report = check_snippet(
            "from uuid import uuid4\nu = uuid4()\n", "repro.core.x"
        )
        assert "RC102" in codes_of(report)

    def test_global_random_flagged(self):
        report = check_snippet(
            "import random\nr = random.random()\n", "repro.policies.x"
        )
        assert "RC103" in codes_of(report)

    def test_numpy_alias_resolved(self):
        report = check_snippet(
            "import numpy as np\nnp.random.seed(0)\n", "repro.core.x"
        )
        assert "RC103" in codes_of(report)

    def test_unseeded_default_rng_flagged(self):
        report = check_snippet(
            "from numpy.random import default_rng\ng = default_rng()\n",
            "repro.traffic.x",
        )
        assert "RC103" in codes_of(report)

    def test_seeded_default_rng_ok(self):
        report = check_snippet(
            "from numpy.random import default_rng\n"
            "def make(seed):\n    return default_rng(seed)\n",
            "repro.traffic.x",
        )
        assert report.clean

    def test_seeded_kw_ok(self):
        report = check_snippet(
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed=seed)\n",
            "repro.core.x",
        )
        assert report.clean

    def test_set_iteration_flagged(self):
        report = check_snippet(
            "def f(xs):\n"
            "    for x in set(xs):\n"
            "        print(x)\n",
            "repro.core.x",
        )
        assert "RC104" in codes_of(report)

    def test_sorted_set_iteration_ok(self):
        report = check_snippet(
            "def f(xs):\n"
            "    return [x for x in sorted(set(xs))]\n",
            "repro.core.x",
        )
        assert report.clean

    def test_list_of_set_flagged(self):
        report = check_snippet(
            "def f(xs):\n    return list(set(xs))\n", "repro.core.x"
        )
        assert "RC104" in codes_of(report)

    def test_id_key_flagged(self):
        report = check_snippet(
            "def f(xs):\n    return sorted(xs, key=id)\n", "repro.core.x"
        )
        assert "RC105" in codes_of(report)

    def test_id_in_lambda_key_flagged(self):
        report = check_snippet(
            "def f(xs):\n"
            "    xs.sort(key=lambda p: (p.port, id(p)))\n",
            "repro.core.x",
        )
        assert "RC105" in codes_of(report)

    def test_stable_key_ok(self):
        report = check_snippet(
            "def f(xs):\n"
            "    return sorted(xs, key=lambda p: p.seq)\n",
            "repro.core.x",
        )
        assert report.clean


# ----------------------------------------------------------------------
# Hot-path rules (RC2xx)
# ----------------------------------------------------------------------

HOT = "from repro.core.hotpath import hot_path\n"

#: The engine's arrival kernels are generators that run one slot per
#: ``send``: their ``while True`` body is the loop the rules audit.
GENERATOR_KERNEL = "@hot_path\ndef f(xs, rows, s, n):\n    while True:\n"


class TestHotPathRules:
    def test_closure_flagged(self):
        for source in (
            "@hot_path\ndef f(xs):\n"
            "    return sorted(xs, key=lambda x: x.v)\n",
            GENERATOR_KERNEL
            + "        k = yield\n"
            "        xs.sort(key=lambda x: x.v + k)\n",
        ):
            report = check_snippet(HOT + source, "repro.core.x")
            assert "RC201" in codes_of(report)

    def test_closure_ok_off_hot_path(self):
        report = check_snippet(
            "def f(xs):\n    return sorted(xs, key=lambda x: x.v)\n",
            "repro.analysis.x",
        )
        assert report.clean

    def test_loop_comprehension_flagged(self):
        for source in (
            "@hot_path\ndef f(rows):\n"
            "    out = []\n"
            "    for row in rows:\n"
            "        out.append([c * 2 for c in row])\n"
            "    return out\n",
            GENERATOR_KERNEL
            + "        k = yield\n"
            "        xs.append([c * 2 for c in rows[k]])\n",
        ):
            report = check_snippet(HOT + source, "repro.core.x")
            assert "RC202" in codes_of(report)

    def test_loop_iter_comprehension_exempt(self):
        # The iterable itself evaluates once per loop entry, not per
        # iteration — building it with a comprehension is fine.
        report = check_snippet(
            HOT + "@hot_path\ndef f(rows):\n"
            "    total = 0\n"
            "    for x in [r.v for r in rows]:\n"
            "        total += x\n"
            "    return total\n",
            "repro.core.x",
        )
        assert "RC202" not in codes_of(report)

    def test_fstring_flagged(self):
        report = check_snippet(
            HOT + "@hot_path\ndef f(x):\n    return f'{x}'\n",
            "repro.core.x",
        )
        assert "RC203" in codes_of(report)

    def test_fstring_in_raise_exempt(self):
        report = check_snippet(
            HOT + "@hot_path\ndef f(x):\n"
            "    if x < 0:\n"
            "        raise ValueError(f'bad {x}')\n"
            "    return x\n",
            "repro.core.x",
        )
        assert report.clean

    def test_attr_chain_flagged_at_threshold(self):
        for source in (
            "@hot_path\ndef f(s, n):\n"
            "    t = 0\n"
            "    for _ in range(n):\n"
            "        t += s.buf.occ\n"
            "        t += s.buf.occ\n"
            "        t += s.buf.occ\n"
            "    return t\n",
            GENERATOR_KERNEL
            + "        k = yield\n"
            "        n[k] += s.buf.occ\n"
            "        n[k] += s.buf.occ\n"
            "        n[k] += s.buf.occ\n",
        ):
            report = check_snippet(HOT + source, "repro.core.x")
            assert codes_of(report).count("RC204") == 1

    def test_attr_chain_below_threshold_ok(self):
        report = check_snippet(
            HOT + "@hot_path\ndef f(s, n):\n"
            "    t = 0\n"
            "    for _ in range(n):\n"
            "        t += s.buf.occ\n"
            "        t += s.buf.occ\n"
            "    return t\n",
            "repro.core.x",
        )
        assert "RC204" not in codes_of(report)

    def test_attr_chain_rebound_root_ok(self):
        report = check_snippet(
            HOT + "@hot_path\ndef f(node, n):\n"
            "    t = 0\n"
            "    for _ in range(n):\n"
            "        t += node.link.w\n"
            "        node = node.link.next\n"
            "        t += node.link.w\n"
            "    return t\n",
            "repro.core.x",
        )
        assert "RC204" not in codes_of(report)

    def test_shallow_attr_ok(self):
        # Single-hop lookups (self.x) are not worth a finding.
        report = check_snippet(
            HOT + "@hot_path\ndef f(s, n):\n"
            "    t = 0\n"
            "    for _ in range(n):\n"
            "        t += s.occ\n"
            "        t += s.occ\n"
            "        t += s.occ\n"
            "    return t\n",
            "repro.core.x",
        )
        assert "RC204" not in codes_of(report)


# ----------------------------------------------------------------------
# Policy-API rules (RC3xx)
# ----------------------------------------------------------------------


class TestPolicyRules:
    def test_private_access_flagged(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        return view._queues\n",
            "repro.policies.x",
        )
        assert "RC301" in codes_of(report)

    def test_private_on_self_ok(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        return self._rng\n",
            "repro.policies.x",
        )
        assert report.clean

    def test_dunder_exempt(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        return type(pkt).__name__\n",
            "repro.policies.x",
        )
        assert report.clean

    def test_scope_limited_to_policies(self):
        report = check_snippet(
            "def probe(view):\n    return view._queues\n",
            "repro.analysis.x",
        )
        assert "RC301" not in codes_of(report)

    def test_foreign_mutation_flagged(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        pkt.value = 0\n",
            "repro.policies.x",
        )
        assert "RC302" in codes_of(report)

    def test_augassign_flagged(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        view.occ -= 1\n",
            "repro.policies.x",
        )
        assert "RC302" in codes_of(report)

    def test_own_attribute_assignment_ok(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        self.last = pkt.value\n",
            "repro.policies.x",
        )
        assert report.clean

    def test_engine_mutator_flagged(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        view.admit(pkt)\n",
            "repro.policies.x",
        )
        assert "RC303" in codes_of(report)

    def test_mutator_on_self_ok(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        return self.process(pkt)\n"
            "    def process(self, pkt):\n"
            "        return None\n",
            "repro.policies.x",
        )
        assert report.clean

    def test_same_module_class_ok(self):
        report = check_snippet(
            "class _Helper:\n"
            "    @staticmethod\n"
            "    def _score(pkt):\n"
            "        return pkt.value\n"
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        return _Helper._score(pkt)\n",
            "repro.policies.x",
        )
        assert report.clean


# ----------------------------------------------------------------------
# Hygiene rules (RC4xx)
# ----------------------------------------------------------------------


class TestHygieneRules:
    def test_bare_except_flagged(self):
        report = check_snippet(
            "def f(t):\n"
            "    try:\n        t()\n"
            "    except:\n        pass\n",
            "repro.analysis.x",
        )
        assert codes_of(report) == ["RC401"]  # no RC402 double-report

    def test_swallowed_base_exception_flagged(self):
        report = check_snippet(
            "def f(t):\n"
            "    try:\n        t()\n"
            "    except BaseException:\n        pass\n",
            "repro.analysis.x",
        )
        assert "RC402" in codes_of(report)

    def test_reraising_handler_ok(self):
        report = check_snippet(
            "def f(t):\n"
            "    try:\n        t()\n"
            "    except BaseException:\n        raise\n",
            "repro.analysis.x",
        )
        assert report.clean

    def test_supervisor_module_exempt(self):
        report = check_snippet(
            "def f(t):\n"
            "    try:\n        t()\n"
            "    except BaseException:\n        pass\n",
            "repro.resilience.supervisor",
        )
        assert "RC402" not in codes_of(report)

    def test_named_exceptions_ok(self):
        report = check_snippet(
            "def f(t):\n"
            "    try:\n        t()\n"
            "    except (ValueError, OSError):\n        pass\n",
            "repro.analysis.x",
        )
        assert report.clean

    def test_write_mode_open_flagged(self):
        report = check_snippet(
            "def f(p, s):\n"
            "    with open(p, 'w') as h:\n        h.write(s)\n",
            "repro.analysis.x",
        )
        assert "RC403" in codes_of(report)

    def test_path_open_append_flagged(self):
        report = check_snippet(
            "from pathlib import Path\n"
            "def f(p, s):\n"
            "    Path(p).open('a').write(s)\n",
            "repro.analysis.x",
        )
        assert "RC403" in codes_of(report)

    def test_write_text_flagged(self):
        report = check_snippet(
            "from pathlib import Path\n"
            "def f(p, s):\n"
            "    Path(p).write_text(s)\n",
            "repro.analysis.x",
        )
        assert "RC403" in codes_of(report)

    def test_read_mode_ok(self):
        report = check_snippet(
            "def f(p):\n"
            "    with open(p, 'r', encoding='utf-8') as h:\n"
            "        return h.read()\n",
            "repro.analysis.x",
        )
        assert report.clean

    def test_mode_shaped_filename_not_flagged(self):
        report = check_snippet(
            "def f():\n    return open('wax.txt').read()\n",
            "repro.analysis.x",
        )
        assert report.clean

    def test_atomic_module_exempt(self):
        report = check_snippet(
            "def atomic_write_text(p, s):\n"
            "    with open(p, 'w') as h:\n        h.write(s)\n",
            "repro.resilience.atomic",
        )
        assert "RC403" not in codes_of(report)


# ----------------------------------------------------------------------
# Trace conformance rules (RC6xx)
# ----------------------------------------------------------------------


def check_project_snippet(source, module):
    """Two-phase analysis of a single in-memory module (project rules
    included — :func:`check_source` runs module rules only)."""
    pragma = f"# repro: module={module}\n"
    return run_check_sources({"snippet.py": pragma + source})


TRACE_OK = (
    "def emit(out, slot):\n"
    '    out.write({"t": "tick", "slot": slot})\n'
    "def replay(events):\n"
    "    for e in events:\n"
    '        if e["t"] == "tick":\n'
    "            pass\n"
)


class TestConformanceRules:
    def test_conforming_trace_module_clean(self):
        report = check_project_snippet(TRACE_OK, "repro.obs.x")
        assert report.clean

    def test_unread_trace_event_flagged(self):
        report = check_project_snippet(
            TRACE_OK + "def emit2(out):\n"
            '    out.write({"t": "mystery"})\n',
            "repro.obs.x",
        )
        assert "RC603" in codes_of(report)

    def test_writer_only_module_skipped(self):
        # One side absent: not a whole-schema analysis, no findings.
        report = check_project_snippet(
            "def emit(out):\n" '    out.write({"t": "tick"})\n',
            "repro.obs.x",
        )
        assert report.clean

    def test_cross_module_trace_symmetry(self):
        writer = (
            "# repro: module=repro.obs.w\n"
            "def emit(out):\n"
            '    out.write({"t": "tick"})\n'
        )
        reader = (
            "# repro: module=repro.obs.r\n"
            "def replay(es):\n"
            "    for e in es:\n"
            '        if e["t"] == "tick":\n'
            "            pass\n"
        )
        both = run_check_sources({"w.py": writer, "r.py": reader})
        assert both.clean
        renamed = run_check_sources(
            {"w.py": writer.replace('"tick"', '"tock"'), "r.py": reader}
        )
        assert codes_of(renamed).count("RC603") == 2

    def test_schema_version_member_ok(self):
        report = check_project_snippet(
            "EVENT_SCHEMA_VERSION = 2\n"
            "SUPPORTED_SCHEMA_VERSIONS = (1, 2)\n",
            "repro.obs.x",
        )
        assert report.clean

    def test_schema_version_outside_tuple_flagged(self):
        report = check_project_snippet(
            "EVENT_SCHEMA_VERSION = 3\n"
            "SUPPORTED_SCHEMA_VERSIONS = (1, 2)\n",
            "repro.obs.x",
        )
        assert "RC604" in codes_of(report)

    def test_schema_version_without_support_tuple_flagged(self):
        report = check_project_snippet(
            "EVENT_SCHEMA_VERSION = 2\n", "repro.obs.x"
        )
        assert "RC604" in codes_of(report)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

BAD_WRITE = "from pathlib import Path\ndef f(p, s):\n"


class TestSuppressions:
    def test_justified_trailing_pragma_suppresses(self):
        report = check_snippet(
            BAD_WRITE
            + "    Path(p).write_text(s)"
            + "  # repro: allow[RC403] -- test fixture\n",
            "repro.analysis.x",
        )
        assert report.clean
        assert report.suppressed == 1

    def test_justified_standalone_pragma_suppresses(self):
        report = check_snippet(
            BAD_WRITE
            + "    # repro: allow[RC403] -- test fixture\n"
            + "    Path(p).write_text(s)\n",
            "repro.analysis.x",
        )
        assert report.clean
        assert report.suppressed == 1

    def test_unjustified_pragma_is_rc901_and_does_not_suppress(self):
        report = check_snippet(
            BAD_WRITE
            + "    Path(p).write_text(s)  # repro: allow[RC403]\n",
            "repro.analysis.x",
        )
        assert sorted(codes_of(report)) == ["RC403", "RC901"]

    def test_stale_pragma_is_rc902(self):
        report = check_snippet(
            "# repro: allow[RC401] -- stale\nx = 1\n",
            "repro.analysis.x",
        )
        assert "RC902" in codes_of(report)

    def test_wrong_code_does_not_suppress(self):
        report = check_snippet(
            BAD_WRITE
            + "    Path(p).write_text(s)  # repro: allow[RC401] -- wrong\n",
            "repro.analysis.x",
        )
        codes = codes_of(report)
        assert "RC403" in codes and "RC902" in codes

    def test_multi_code_pragma(self):
        report = check_snippet(
            "class P:\n"
            "    def decide(self, view, pkt):\n"
            "        # repro: allow[RC301,RC303] -- differential probe\n"
            "        return view._queues, view.admit(pkt)\n",
            "repro.policies.x",
        )
        assert report.clean
        assert report.suppressed == 2

    def test_meta_codes_not_suppressible(self):
        # A pragma cannot silence "your pragma is unjustified".
        report = check_snippet(
            BAD_WRITE
            + "    Path(p).write_text(s)"
            + "  # repro: allow[RC403,RC901]\n",
            "repro.analysis.x",
        )
        assert "RC901" in codes_of(report)

    def test_rules_subset_skips_staleness(self):
        # Under --rules RC101 an RC403 pragma must not be called stale.
        source = (
            BAD_WRITE
            + "    Path(p).write_text(s)"
            + "  # repro: allow[RC403] -- fine\n"
        )
        full = check_snippet(source, "repro.analysis.x")
        subset = check_snippet(source, "repro.analysis.x", rules=["RC101"])
        assert full.clean
        assert subset.clean and subset.suppressed == 0

    def test_fix_suppressions_strips_stale_pragmas(self, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text(
            "# repro: module=repro.analysis.x\n"
            "# repro: allow[RC401] -- stale standalone\n"
            "x = 1  # repro: allow[RC403] -- stale trailing\n"
        )
        report = run_check([target], fix_suppressions=True)
        assert report.clean
        text = target.read_text()
        assert "allow[" not in text
        assert "x = 1\n" in text
        # Second pass: nothing left to fix, still clean.
        assert run_check([target]).clean

    def test_fix_suppressions_keeps_used_pragmas(self, tmp_path):
        target = tmp_path / "used.py"
        source = (
            "# repro: module=repro.analysis.x\n"
            "from pathlib import Path\n"
            "def f(p, s):\n"
            "    Path(p).write_text(s)"
            "  # repro: allow[RC403] -- needed\n"
        )
        target.write_text(source)
        run_check([target], fix_suppressions=True)
        assert target.read_text() == source


# ----------------------------------------------------------------------
# Report plumbing, module identity, CLI
# ----------------------------------------------------------------------


class TestReport:
    def test_json_schema(self):
        report = check_snippet("import time\nt = time.time()\n",
                               "repro.core.x")
        data = report.as_dict()
        assert data["schema"] == REPORT_SCHEMA_VERSION
        assert set(data) == {
            "schema", "files_scanned", "suppressed", "findings"
        }
        (finding,) = data["findings"]
        assert set(finding) == {
            "code", "rule", "path", "line", "col", "scope", "message"
        }
        assert finding["scope"] == "module"

    def test_schema_version_is_two(self):
        # v1 -> v2: findings gained "scope" (module|project). Consumers
        # keying on v1 fields are unaffected; the bump is additive.
        assert REPORT_SCHEMA_VERSION == 2

    def test_project_findings_carry_project_scope(self):
        report = run_check([CORPUS])
        by_code = {f.code: f for f in report.findings}
        assert by_code["RC603"].scope == "project"
        assert by_code["RC604"].scope == "project"
        assert by_code["RC403"].scope == "module"

    def test_findings_sorted_by_location(self):
        report = run_check([CORPUS])
        keys = [(f.path, f.line, f.col, f.code) for f in report.findings]
        assert keys == sorted(keys)

    def test_parse_error_is_rc900(self):
        report = check_source("def broken(:\n")
        assert codes_of(report) == ["RC900"]

    def test_module_name_from_src_layout(self):
        report = run_check(
            [REPO / "src" / "repro" / "core" / "packet.py"]
        )
        # packet.py is in the deterministic scope and clean at HEAD.
        assert report.clean

    def test_exit_codes(self):
        clean = check_snippet("x = 1\n", "repro.analysis.x")
        dirty = check_snippet("import time\nt = time.time()\n",
                              "repro.core.x")
        assert clean.exit_code() == 0
        assert dirty.exit_code() == 1


class TestCli:
    def test_check_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("# repro: module=repro.analysis.x\nx = 1\n")
        assert main(["check", str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_check_dirty_file_exits_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(
            "# repro: module=repro.core.x\n"
            "import time\nt = time.time()\n"
        )
        assert main(["check", str(target)]) == 1
        assert "RC101" in capsys.readouterr().out

    def test_check_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(
            "# repro: module=repro.core.x\n"
            "import time\nt = time.time()\n"
        )
        assert main(["check", "--format", "json", str(target)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == REPORT_SCHEMA_VERSION
        assert data["findings"][0]["code"] == "RC101"

    def test_check_rules_filter(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(
            "# repro: module=repro.core.x\n"
            "import time\nimport random\n"
            "t = time.time()\nr = random.random()\n"
        )
        assert main(["check", "--rules", "RC103", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RC103" in out and "RC101" not in out

    def test_check_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in sorted(EXPECTED_CODES):
            assert code in out

    def test_check_unknown_rule_is_usage_error(self, capsys):
        assert main(["check", "--rules", "RC999", "src"]) == 2

    def test_check_missing_path_is_usage_error(self, capsys):
        assert main(["check", "does/not/exist"]) == 2

    def test_check_no_project_flag(self, tmp_path, capsys):
        target = tmp_path / "schema.py"
        target.write_text(
            "# repro: module=repro.obs.x\n"
            "EVENT_SCHEMA_VERSION = 3\n"
            "SUPPORTED_SCHEMA_VERSIONS = (1, 2)\n"
        )
        assert main(["check", str(target)]) == 1
        assert "RC604" in capsys.readouterr().out
        assert main(["check", "--no-project", str(target)]) == 0

    def test_check_fix_suppressions_cli(self, tmp_path, capsys):
        target = tmp_path / "stale.py"
        target.write_text(
            "# repro: module=repro.analysis.x\n"
            "# repro: allow[RC401] -- stale\n"
            "x = 1\n"
        )
        assert main(["check", "--fix-suppressions", str(target)]) == 0
        assert "allow[" not in target.read_text()


class TestHead:
    """The analyzer's contract with this repository, at HEAD."""

    def test_src_tree_is_clean(self):
        report = run_check([REPO / "src"])
        assert report.clean, report.format_human()

    def test_dynamic_policies_pass_policy_api_pack(self):
        # The dynamic-scenario policies (Harmonic, DT) are written
        # against the public SwitchView surface — clean by construction
        # under the RC3xx pack, with zero suppressions.
        report = run_check(
            [REPO / "src" / "repro" / "policies" / "dynamic.py"],
            rules=["RC301", "RC302", "RC303"],
        )
        assert report.clean, report.format_human()
        assert report.suppressed == 0

    def test_src_tree_has_justified_suppressions(self):
        # Every suppression at HEAD is enumerable and justified:
        #   2 RC403 — the cache's deliberately torn chaos write and the
        #     trace writer's tmp protocol (cache entries publish through
        #     repro.resilience.atomic).
        # A new suppression anywhere in src/ must update this pin and
        # say why it is safe.
        report = run_check([REPO / "src"])
        assert report.suppressed == 2

    def test_cli_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "check", "src"],
            capture_output=True, text=True, timeout=120,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestDemolition:
    """Break one real invariant in memory; the analyzer must see it.

    These are the acceptance tests for the project phase: take the
    tree as it is at HEAD, rename a trace event in the in-memory copy,
    and assert the corresponding project rule fires. If a refactor ever
    weakens fact collection, these fail before the schema drift ships.
    """

    @pytest.fixture(scope="class")
    def src_sources(self):
        sources = {}
        for path in sorted((REPO / "src").rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(REPO)
            sources[str(rel)] = path.read_text(encoding="utf-8")
        return sources

    @staticmethod
    def _mutated(src_sources, key, old, new):
        sources = dict(src_sources)
        assert old in sources[key], f"{old!r} not found in {key}"
        sources[key] = sources[key].replace(old, new)
        return sources

    def test_unmutated_tree_is_clean(self, src_sources):
        assert run_check_sources(dict(src_sources)).clean

    def test_renaming_trace_event_is_found(self, src_sources):
        sources = self._mutated(
            src_sources,
            "src/repro/obs/trace_io.py",
            '"t": "idle"',
            '"t": "idle_v2"',
        )
        report = run_check_sources(sources)
        rc603 = [f for f in report.findings if f.code == "RC603"]
        assert any("idle_v2" in f.message for f in rc603)
        assert any('"idle"' in f.message for f in rc603)
