"""The rule registry: codes, scopes, and the ``@rule`` decorator.

A rule is a function ``(ModuleContext) -> Iterable[Finding-args]``
registered under a unique ``RCxxx`` code. Rules yield *locations* —
``(node_or_line, message)`` pairs — and the registry wraps them into
:class:`~repro.check.findings.Finding` objects so individual rules
never deal with paths or formatting.

Code blocks
-----------
* ``RC1xx`` determinism lint
* ``RC2xx`` hot-path allocation audit
* ``RC3xx`` policy-API conformance
* ``RC4xx`` exception / IO hygiene
* ``RC6xx`` trace-schema conformance
* ``RC9xx`` analyzer meta findings (parse errors, suppression misuse);
  these are emitted by the runner itself, not by registered rules, and
  are **not suppressible**.

``scope`` restricts a rule to modules under the given dotted package
prefixes (matched against :attr:`ModuleContext.module`); ``None`` runs
the rule on every file.

Rules come in two *kinds*. ``kind="module"`` rules (the PR 5 model)
see one :class:`ModuleContext` at a time and yield
``(node_or_line, message)``. ``kind="project"`` rules — registered via
:func:`project_rule` — run once over the whole analyzed tree: they
receive the phase-2 :class:`~repro.check.facts.ProjectContext` and
yield ``(module_ctx, node_or_line, message)`` triples, so one rule can
anchor findings in several files (a writer in ``trace_io.py`` and
its missing reader in ``replay.py``). Project findings carry
``scope: "project"`` in the v2 JSON report and participate in the same
per-file suppression machinery as module findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.check.context import ModuleContext
from repro.check.facts import ProjectContext
from repro.check.findings import Finding
from repro.core.errors import ConfigError

#: A rule yields (ast node or 1-based line number, message) pairs.
Location = Union[ast.AST, int]
RuleFn = Callable[[ModuleContext], Iterable[Tuple[Location, str]]]
#: A project rule yields (module ctx, ast node or line, message) triples.
ProjectRuleFn = Callable[
    [ProjectContext], Iterable[Tuple[ModuleContext, Location, str]]
]

_CODE_RE = re.compile(r"^RC\d{3}$")

#: Meta codes reserved for the runner (parse errors, suppression misuse).
META_PARSE_ERROR = "RC900"
META_MISSING_JUSTIFICATION = "RC901"
META_UNUSED_SUPPRESSION = "RC902"
META_CODES = (
    META_PARSE_ERROR,
    META_MISSING_JUSTIFICATION,
    META_UNUSED_SUPPRESSION,
)


def _location_pos(location: Location) -> Tuple[int, int]:
    if isinstance(location, int):
        return location, 0
    return (
        getattr(location, "lineno", 1),
        getattr(location, "col_offset", 0),
    )


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule (module- or project-kind)."""

    code: str
    name: str
    summary: str
    fn: Union[RuleFn, ProjectRuleFn]
    scope: Optional[Tuple[str, ...]] = None
    kind: str = "module"

    def applies_to(self, ctx: ModuleContext) -> bool:
        if self.scope is None:
            return True
        return ctx.in_package(*self.scope)

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Execute a module rule, wrapping its locations into findings."""
        if self.kind != "module":
            raise ConfigError(
                f"rule {self.code} is project-kind; use run_project()"
            )
        fn: RuleFn = self.fn  # type: ignore[assignment]
        for location, message in fn(ctx):
            line, col = _location_pos(location)
            yield Finding(
                code=self.code,
                rule=self.name,
                path=ctx.display_path,
                line=line,
                col=col,
                message=message,
            )

    def run_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Execute a project rule over the whole analyzed tree."""
        if self.kind != "project":
            raise ConfigError(
                f"rule {self.code} is module-kind; use run()"
            )
        fn: ProjectRuleFn = self.fn  # type: ignore[assignment]
        for ctx, location, message in fn(project):
            line, col = _location_pos(location)
            yield Finding(
                code=self.code,
                rule=self.name,
                path=ctx.display_path,
                line=line,
                col=col,
                message=message,
                scope="project",
            )


_RULES: Dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    summary: str,
    *,
    scope: Optional[Iterable[str]] = None,
) -> Callable[[RuleFn], RuleFn]:
    """Register the decorated function as rule ``code``.

    ``name`` is a short kebab-case label used in output and docs;
    ``summary`` is the one-line catalogue description. Duplicate or
    malformed codes raise :class:`~repro.core.errors.ConfigError` at
    import time — a broken rule pack should never half-load.
    """
    if not _CODE_RE.match(code):
        raise ConfigError(f"bad rule code {code!r}; expected RCnnn")
    if code in META_CODES:
        raise ConfigError(f"rule code {code} is reserved for the runner")

    def decorator(fn: RuleFn) -> RuleFn:
        if code in _RULES:
            raise ConfigError(f"rule {code} already registered")
        _RULES[code] = Rule(
            code=code,
            name=name,
            summary=summary,
            fn=fn,
            scope=tuple(scope) if scope is not None else None,
        )
        return fn

    return decorator


def project_rule(
    code: str,
    name: str,
    summary: str,
) -> Callable[[ProjectRuleFn], ProjectRuleFn]:
    """Register the decorated function as project-kind rule ``code``.

    Project rules run once per analysis (not once per file) and see
    the merged :class:`~repro.check.facts.ProjectContext`. They scope
    themselves by querying ``project.in_packages(...)``, so no
    ``scope`` parameter is taken here.
    """
    if not _CODE_RE.match(code):
        raise ConfigError(f"bad rule code {code!r}; expected RCnnn")
    if code in META_CODES:
        raise ConfigError(f"rule code {code} is reserved for the runner")

    def decorator(fn: ProjectRuleFn) -> ProjectRuleFn:
        if code in _RULES:
            raise ConfigError(f"rule {code} already registered")
        _RULES[code] = Rule(
            code=code,
            name=name,
            summary=summary,
            fn=fn,
            scope=None,
            kind="project",
        )
        return fn

    return decorator


def module_rules() -> List[Rule]:
    """Registered module-kind rules, ordered by code."""
    return [r for r in all_rules() if r.kind == "module"]


def project_rules() -> List[Rule]:
    """Registered project-kind rules, ordered by code."""
    return [r for r in all_rules() if r.kind == "project"]


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    return [_RULES[code] for code in sorted(_RULES)]


def get_rule(code: str) -> Rule:
    found = _RULES.get(code)
    if found is None:
        raise ConfigError(
            f"unknown rule {code!r}; known: {', '.join(sorted(_RULES))}"
        )
    return found


def select_rules(codes: Optional[Iterable[str]]) -> List[Rule]:
    """Rules for the ``--rules`` CLI filter (``None`` = all)."""
    if codes is None:
        return all_rules()
    return [get_rule(code) for code in codes]
