"""Unit tests for :mod:`repro.check.facts` — phase 1 of the analyzer.

The project rules (RC6xx) are only as good as the facts they run over,
so the collector gets its own pinning: event-literal and subscript-store
producers, kind-test alias resolution, and the module-constant scrapers
the conformance rules read (schema versions).
"""

from pathlib import Path

from repro.check.context import ModuleContext
from repro.check.facts import ProjectContext, collect_facts


def facts_of(source, module="repro.obs.x"):
    pragma = f"# repro: module={module}\n"
    ctx = ModuleContext.from_source(pragma + source, path=Path("x.py"))
    return collect_facts(ctx)


# ----------------------------------------------------------------------
# Event facts: literals, stores, tests
# ----------------------------------------------------------------------


class TestWireFacts:
    def test_literal_kind_and_function(self):
        facts = facts_of(
            "def make(seq):\n"
            '    return {"t": "ping", "seq": seq, "hop": 1}\n'
        )
        (lit,) = facts.wire_literals
        assert lit.kind == "ping"
        assert lit.func == "make"

    def test_subscript_store_is_a_producer(self):
        facts = facts_of(
            "def stamp(m):\n" '    m["t"] = "pong"\n'
        )
        (store,) = facts.kind_stores
        assert store.kind == "pong"

    def test_kind_test_direct_and_get(self):
        facts = facts_of(
            "def handle(m):\n"
            '    if m["t"] == "a":\n        return 1\n'
            '    if m.get("t") == "b":\n        return 2\n'
        )
        kinds = {(t.var, t.kind) for t in facts.kind_tests}
        assert kinds == {("m", "a"), ("m", "b")}

    def test_kind_alias_resolved(self):
        # mtype = m.get("t"); if mtype == "a": — the test is on m.
        facts = facts_of(
            "def handle(m):\n"
            '    mtype = m.get("t")\n'
            '    if mtype == "a":\n        return 1\n'
        )
        (test,) = facts.kind_tests
        assert (test.var, test.kind) == ("m", "a")

# ----------------------------------------------------------------------
# Module constants and project merge
# ----------------------------------------------------------------------


class TestConstantsAndProject:
    def test_schema_constants_scraped(self):
        facts = facts_of(
            "EVENT_SCHEMA_VERSION = 2\n"
            "SUPPORTED_SCHEMA_VERSIONS = (1, 2)\n",
            module="repro.obs.x",
        )
        assert facts.int_constants["EVENT_SCHEMA_VERSION"][0] == 2
        assert facts.tuple_constants["SUPPORTED_SCHEMA_VERSIONS"][0] == (
            1, 2,
        )

    def test_project_context_package_filter(self):
        def ctx_for(module, name):
            return ModuleContext.from_source(
                f"# repro: module={module}\nx = 1\n", path=Path(name)
            )

        project = ProjectContext.build(
            [
                ctx_for("repro.analysis.a", "a.py"),
                ctx_for("repro.obs.b", "b.py"),
                ctx_for("repro.core.c", "c.py"),
            ]
        )
        assert len(project.units) == 3
        analysis = [
            c.module for c, _ in project.in_packages("repro.analysis")
        ]
        assert analysis == ["repro.analysis.a"]
        both = [
            c.module
            for c, _ in project.in_packages("repro.analysis", "repro.obs")
        ]
        assert both == ["repro.analysis.a", "repro.obs.b"]
