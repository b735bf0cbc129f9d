"""The analyzer driver: expand paths, run rules, apply suppressions.

:func:`run_check` is the single entry point used by the CLI, the test
suite, and CI. Since PR 10 the run has **two phases**:

1. every Python source is parsed once into a
   :class:`~repro.check.context.ModuleContext`, module-kind rules run
   per file, and per-module facts are collected
   (:mod:`repro.check.facts`);
2. project-kind rules run once over the merged
   :class:`~repro.check.facts.ProjectContext`, relating sites across
   files (trace writer/replayer symmetry, schema versions).

Project findings route back through the *owning file's* suppression
index, so a justified ``allow[RCnnn]`` pragma works exactly like it
does for module rules, and pragma staleness (RC902) is judged only
after both phases have had the chance to mark a pragma used.

Meta findings (``RC9xx``) are produced here rather than by registered
rules because they are about the analyzer's own machinery and must not
be suppressible — a pragma that silences "your pragma is unjustified"
would be a hole in the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.check.context import ModuleContext
from repro.check.facts import ProjectContext
from repro.check.findings import CheckReport, Finding
from repro.check.registry import (
    META_MISSING_JUSTIFICATION,
    META_PARSE_ERROR,
    META_UNUSED_SUPPRESSION,
    Rule,
    select_rules,
)
from repro.check.suppressions import SuppressionIndex, strip_suppressions
from repro.core.errors import ConfigError

#: Directory names never descended into during path expansion.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


def expand_paths(paths: Sequence[Path | str]) -> List[Path]:
    """The ``.py`` files under ``paths``, sorted for stable output."""
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.append(candidate)
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise ConfigError(f"no such file or directory: {path}")
    return files


@dataclass
class _Unit:
    """One successfully parsed file flowing through both phases."""

    ctx: ModuleContext
    suppressions: SuppressionIndex
    source: str
    path: Path


def check_source(
    source: str,
    *,
    path: Path | str = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> CheckReport:
    """Analyze a source string with module rules only.

    This is the snippet-level entry point used by unit tests; it keeps
    the PR 5 semantics (no project phase — a lone snippet is not a
    project). Use :func:`run_check_sources` to run the full two-phase
    analysis over a set of in-memory modules.
    """
    report = CheckReport(files_scanned=1)
    selected = select_rules(list(rules) if rules is not None else None)
    module_rules = [r for r in selected if r.kind == "module"]
    unit = _parse_unit(source, Path(path), report)
    if unit is not None:
        _run_module_rules(unit, module_rules, report)
        _finish_unit(
            unit,
            report,
            fix_suppressions=False,
            report_unused=rules is None,
        )
    return report.sorted()


def check_file(
    path: Path | str, *, rules: Optional[Iterable[str]] = None
) -> CheckReport:
    """Analyze a single file (both phases; the file is the project)."""
    return run_check([Path(path)], rules=rules)


def run_check(
    paths: Sequence[Path | str],
    *,
    rules: Optional[Iterable[str]] = None,
    fix_suppressions: bool = False,
    project: bool = True,
) -> CheckReport:
    """Analyze every Python file under ``paths``.

    ``rules`` restricts the run to the given ``RCxxx`` codes (meta
    findings are always produced). ``project=False`` skips phase 2
    (the cross-module rules). With ``fix_suppressions`` stale pragmas
    (RC902) are deleted from the files in place and reported as fixed
    rather than as findings.
    """
    sources: Dict[Path, str] = {}
    for file_path in expand_paths(paths):
        try:
            sources[file_path] = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read {file_path}: {exc}") from exc
    return _run(
        sources,
        rules=rules,
        fix_suppressions=fix_suppressions,
        project=project,
    )


def run_check_sources(
    sources: Mapping[str, str],
    *,
    rules: Optional[Iterable[str]] = None,
    project: bool = True,
) -> CheckReport:
    """Two-phase analysis over in-memory modules (test entry point).

    ``sources`` maps a display path (used for module-name derivation,
    e.g. ``"src/repro/obs/replay.py"``) to source text.
    """
    return _run(
        {Path(path): text for path, text in sources.items()},
        rules=rules,
        fix_suppressions=False,
        project=project,
    )


def _run(
    sources: Mapping[Path, str],
    *,
    rules: Optional[Iterable[str]],
    fix_suppressions: bool,
    project: bool,
) -> CheckReport:
    selected = select_rules(list(rules) if rules is not None else None)
    module_rules = [r for r in selected if r.kind == "module"]
    project_rules = [r for r in selected if r.kind == "project"]

    report = CheckReport()
    units: List[_Unit] = []

    # Phase 1: parse everything, run module rules per file.
    for file_path, source in sources.items():
        report.files_scanned += 1
        unit = _parse_unit(source, file_path, report)
        if unit is None:
            continue
        units.append(unit)
        _run_module_rules(unit, module_rules, report)

    # Phase 2: cross-module rules over the merged fact table.
    if project and project_rules and units:
        by_path = {unit.ctx.display_path: unit for unit in units}
        ctx_project = ProjectContext.build([unit.ctx for unit in units])
        for rule in project_rules:
            for finding in rule.run_project(ctx_project):
                owner = by_path.get(finding.path)
                if owner is not None and owner.suppressions.matches(
                    finding.code, finding.line
                ):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)

    # Suppression meta checks last: a pragma used only by a project
    # finding must not be judged stale by an earlier per-file pass.
    # A --rules subset (or --no-project) would misread pragmas for
    # unselected rules as stale, so staleness is only judged on
    # full-rule-set runs.
    report_unused = rules is None and project
    for unit in units:
        _finish_unit(
            unit,
            report,
            fix_suppressions=fix_suppressions,
            report_unused=report_unused,
        )
    return report.sorted()


def _parse_unit(
    source: str, path: Path, report: CheckReport
) -> Optional[_Unit]:
    """Parse one source blob; RC900 into ``report`` on failure."""
    try:
        ctx = ModuleContext.from_source(source, path=path)
    except SyntaxError as exc:
        report.findings.append(
            Finding(
                code=META_PARSE_ERROR,
                rule="parse-error",
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"cannot parse: {exc.msg}",
            )
        )
        return None
    return _Unit(
        ctx=ctx,
        suppressions=SuppressionIndex.parse(ctx.lines),
        source=source,
        path=path,
    )


def _run_module_rules(
    unit: _Unit, rules: List[Rule], report: CheckReport
) -> None:
    for rule in rules:
        if not rule.applies_to(unit.ctx):
            continue
        for finding in rule.run(unit.ctx):
            if unit.suppressions.matches(finding.code, finding.line):
                report.suppressed += 1
            else:
                report.findings.append(finding)


def _finish_unit(
    unit: _Unit,
    report: CheckReport,
    *,
    fix_suppressions: bool,
    report_unused: bool,
) -> None:
    """Suppression meta findings (RC901/RC902) for one file."""
    display = unit.ctx.display_path
    for pragma in unit.suppressions.unjustified():
        report.findings.append(
            Finding(
                code=META_MISSING_JUSTIFICATION,
                rule="suppression-missing-justification",
                path=display,
                line=pragma.line,
                col=0,
                message=(
                    "suppression needs a justification: "
                    "# repro: allow[{}] -- <why>".format(",".join(pragma.codes))
                ),
            )
        )

    stale = unit.suppressions.unused() if report_unused else []
    if stale and fix_suppressions and unit.path.exists():
        fixed = strip_suppressions(unit.ctx.lines, stale)
        text = "\n".join(fixed)
        if unit.source.endswith("\n"):
            text += "\n"
        # Lazy import: repro.check must stay importable without pulling
        # the resilience package in (and this is a cold, explicit path).
        from repro.resilience.atomic import atomic_write_text

        atomic_write_text(unit.path, text)
        return
    for pragma in stale:
        report.findings.append(
            Finding(
                code=META_UNUSED_SUPPRESSION,
                rule="unused-suppression",
                path=display,
                line=pragma.line,
                col=0,
                message=(
                    "suppression [{}] matches no finding; delete it or "
                    "run `repro check --fix-suppressions`".format(
                        ",".join(pragma.codes)
                    )
                ),
            )
        )
