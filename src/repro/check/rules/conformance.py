"""RC6xx: trace-schema conformance.

The observer's JSONL trace schema is a producer/consumer contract whose
two sides live in different modules: ``repro.obs.trace_io`` writes the
events that ``repro.obs.replay`` re-derives metrics from. A kind
renamed on one side is a silent runtime failure (a replay mismatch);
these project rules turn it into a static finding by checking the
writer/replayer symmetry itself.

* **RC603 trace-event-conformance** — JSONL event kinds written in
  ``repro.obs`` must exactly match the kinds dispatched on in
  ``repro.obs`` (writer/replayer symmetry, both directions).
* **RC604 schema-version-consistency** — ``EVENT_SCHEMA_VERSION``
  must be a member of ``SUPPORTED_SCHEMA_VERSIONS``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.check.context import ModuleContext
from repro.check.facts import ProjectContext
from repro.check.registry import Location, project_rule

#: Modules taking part in the JSONL trace schema.
_TRACE = ("repro.obs",)


@project_rule(
    "RC603",
    "trace-event-conformance",
    "JSONL trace kinds written and dispatched in repro.obs must match",
)
def trace_event_conformance(
    project: ProjectContext,
) -> Iterator[Tuple[ModuleContext, Location, str]]:
    units = list(project.in_packages(*_TRACE))
    written: Dict[str, Tuple[ModuleContext, int]] = {}
    tested: Dict[str, Tuple[ModuleContext, int]] = {}
    for ctx, facts in units:
        for lit in facts.wire_literals:
            written.setdefault(lit.kind, (ctx, lit.line))
        for store in facts.kind_stores:
            written.setdefault(store.kind, (ctx, store.line))
        for test in facts.kind_tests:
            tested.setdefault(test.kind, (ctx, test.line))
    if not written or not tested:
        return  # one side absent: not a whole-schema analysis
    for kind, (ctx, line) in sorted(written.items()):
        if kind not in tested:
            yield (
                ctx,
                line,
                f'trace event "{kind}" is written but never '
                "dispatched on by any reader (writer/replayer "
                "asymmetry)",
            )
    for kind, (ctx, line) in sorted(tested.items()):
        if kind not in written:
            yield (
                ctx,
                line,
                f'trace reader dispatches on event "{kind}" that no '
                "writer emits (writer/replayer asymmetry)",
            )


@project_rule(
    "RC604",
    "schema-version-consistency",
    "EVENT_SCHEMA_VERSION must be in SUPPORTED_SCHEMA_VERSIONS",
)
def schema_version_consistency(
    project: ProjectContext,
) -> Iterator[Tuple[ModuleContext, Location, str]]:
    units = list(project.in_packages(*_TRACE))
    supported: List[Tuple[int, ...]] = []
    for _ctx, facts in units:
        entry = facts.tuple_constants.get("SUPPORTED_SCHEMA_VERSIONS")
        if entry is not None:
            supported.append(entry[0])
    for ctx, facts in units:
        entry = facts.int_constants.get("EVENT_SCHEMA_VERSION")
        if entry is None:
            continue
        version, line = entry
        if not supported:
            yield (
                ctx,
                line,
                "EVENT_SCHEMA_VERSION is declared but no "
                "SUPPORTED_SCHEMA_VERSIONS tuple exists in repro.obs",
            )
        elif not any(version in versions for versions in supported):
            yield (
                ctx,
                line,
                f"EVENT_SCHEMA_VERSION = {version} is not a member of "
                "SUPPORTED_SCHEMA_VERSIONS "
                f"{sorted(set(supported))[0]}",
            )
