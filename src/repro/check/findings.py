"""Findings and reports produced by ``repro check``.

A :class:`Finding` is one rule violation pinned to a file and line; a
:class:`CheckReport` is the outcome of a whole run — the ordered finding
list plus scan statistics — and knows how to render itself for humans
(``path:line:col CODE message``, grep-friendly) and as versioned JSON
(schema below, consumed by the CI artifact upload and the golden-corpus
tests).

JSON schema (``schema`` = 2)::

    {
      "schema": 2,
      "files_scanned": <int>,
      "suppressed": <int>,
      "findings": [
        {"code": "RC101", "rule": "wall-clock", "path": "src/...",
         "line": 12, "col": 4, "scope": "module", "message": "..."},
        ...
      ]
    }

Schema history: v1 (PR 5) had no ``scope`` field — every rule was
per-module. v2 (this PR) adds ``scope: "module" | "project"`` to each
finding; ``project`` marks findings from cross-module rules (RC6xx
trace-schema conformance) whose evidence spans files.
All v1 fields are unchanged, so v1 consumers that ignore unknown keys
keep working.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Version tag of the JSON output schema.
REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location.

    ``line`` is 1-based (as in tracebacks and editors); ``col`` is the
    0-based column offset reported by :mod:`ast`.
    """

    code: str
    rule: str
    path: str
    line: int
    col: int
    message: str
    #: ``"module"`` for per-file rules, ``"project"`` for cross-module
    #: rules whose evidence spans several files (JSON schema v2).
    scope: str = "module"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)

    def format(self) -> str:
        """Grep-friendly one-liner: ``path:line:col CODE message``."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "scope": self.scope,
            "message": self.message,
        }


@dataclass
class CheckReport:
    """The result of one analyzer run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        """Whether the run produced zero (unsuppressed) findings."""
        return not self.findings

    def exit_code(self) -> int:
        """Process exit status: 0 clean, 1 findings present."""
        return 0 if self.clean else 1

    def sorted(self) -> "CheckReport":
        """Self, with findings ordered by (path, line, col, code)."""
        self.findings.sort(key=Finding.sort_key)
        return self

    def summary(self) -> str:
        noun = "finding" if len(self.findings) == 1 else "findings"
        return (
            f"{len(self.findings)} {noun} in {self.files_scanned} files "
            f"({self.suppressed} suppressed)"
        )

    def format_human(self) -> str:
        """Findings one per line, then the summary line."""
        lines = [finding.format() for finding in self.findings]
        lines.append(f"# {self.summary()}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)
