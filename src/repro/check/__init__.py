"""``repro check``: contract-aware static analysis over this repository.

The engine's headline guarantees are *contracts*, not code: sweeps are
byte-identical across serial/parallel/faulted execution, policies touch
switch state only through the public :class:`~repro.core.switch.
SwitchView` surface, observers receive frozen snapshots, and the
per-packet hot paths must stay allocation-lean. Every one of those
contracts used to be enforced only dynamically — a stray
``time.time()`` or a direct queue mutation in a new policy broke
determinism in ways the differential suites caught late or never.

This package is the static analogue: an AST-based analyzer (stdlib
``ast`` only, no third-party dependencies) with a small rule framework
and a rule pack encoding the repo's real invariants:

* **Determinism lint** (``RC1xx``) — no wall-clock reads, no unseeded
  or global RNG state, no entropy sources, no unordered ``set``
  iteration, no ``id()``-keyed orderings inside the deterministic
  packages (``repro.core``, ``repro.policies``, ``repro.traffic``,
  ``repro.opt``).
* **Hot-path allocation audit** (``RC2xx``) — functions marked with
  :func:`repro.core.hotpath.hot_path` may not allocate closures,
  build comprehension temporaries inside loops, format strings outside
  ``raise`` statements, or repeat deep attribute lookups in loops.
* **Policy-API conformance** (``RC3xx``) — policy modules may only use
  the public ``SwitchView`` surface: no private-attribute pokes, no
  attribute stores on foreign objects (frozen ``PacketEvent``/
  ``Packet`` snapshots included), no calls to engine mutators.
* **Exception / IO hygiene** (``RC4xx``) — no bare ``except``, no
  swallowed ``BaseException`` outside the resilience supervisor, and
  all result-file writes go through :mod:`repro.resilience.atomic`.
* **Trace-schema conformance** (``RC6xx``) — JSONL writer/replayer
  symmetry in ``repro.obs`` and schema-version consistency.

The RC1xx–RC4xx packs are *module* rules (one file at a time); RC6xx
are *project* rules: the analyzer runs in two phases — per-module fact
collection (:mod:`repro.check.facts`), then cross-module rules over
the merged fact table — so a writer in one file and its missing reader
in another is a finding with no runtime test required.

Findings can be suppressed per line with a justified pragma::

    handle = path.open("a")  # repro: allow[RCnnn] -- <why this is sound>

A suppression without justification text is itself a finding
(``RC901``), as is a suppression that no longer matches anything
(``RC902``; ``repro check --fix-suppressions`` deletes those).

See ``docs/STATIC_ANALYSIS.md`` for the full rule catalogue and
``repro check --help`` for the CLI.
"""

from __future__ import annotations

from repro.check.facts import ModuleFacts, ProjectContext, collect_facts
from repro.check.findings import CheckReport, Finding
from repro.check.registry import (
    Rule,
    all_rules,
    get_rule,
    project_rule,
    rule,
)
from repro.check.runner import (
    check_file,
    check_source,
    run_check,
    run_check_sources,
)

# Importing the rule modules registers the rule pack.
from repro.check.rules import (  # noqa: F401
    conformance,
    determinism,
    hotpath,
    hygiene,
    policy_api,
)

__all__ = [
    "CheckReport",
    "Finding",
    "ModuleFacts",
    "ProjectContext",
    "Rule",
    "all_rules",
    "check_file",
    "check_source",
    "collect_facts",
    "get_rule",
    "project_rule",
    "rule",
    "run_check",
    "run_check_sources",
]
