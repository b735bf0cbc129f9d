"""Inline suppression pragmas: ``# repro: allow[RCxxx] -- why``.

A finding can be silenced in exactly one way: a pragma naming the code
and carrying a justification after `` -- ``. The pragma either sits on
the offending line itself or on a standalone comment line directly
above it (for lines too long to hold both code and justification)::

    handle = path.open("a")  # repro: allow[RCnnn] -- appends are flushed per record

    # repro: allow[RCnnn] -- the differential test reads columns on purpose
    lens = vectorized._lens

Multiple codes separate with commas: ``allow[RC301,RC302]``. The
justification is mandatory — a pragma without one is reported as
``RC901`` and suppresses nothing. A pragma whose codes never matched a
finding is reported as ``RC902`` (stale suppressions rot; ``repro
check --fix-suppressions`` deletes them from the file).

Parsing is line-based on purpose: pragmas must be visually attached to
what they excuse, and the analyzer never guesses across blank lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<codes>[A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)

#: A standalone pragma line: nothing but whitespace before the comment.
_STANDALONE_RE = re.compile(r"^\s*#")


@dataclass
class Suppression:
    """One parsed pragma."""

    line: int  # 1-based line the pragma sits on
    target_line: int  # 1-based line it applies to
    codes: Tuple[str, ...]
    justification: str
    used: Set[str] = field(default_factory=set)

    @property
    def justified(self) -> bool:
        return bool(self.justification.strip())


@dataclass
class SuppressionIndex:
    """All pragmas of one file, queryable by (code, line)."""

    suppressions: List[Suppression] = field(default_factory=list)
    _by_line: Dict[int, List[Suppression]] = field(default_factory=dict)

    @classmethod
    def parse(cls, lines: Sequence[str]) -> "SuppressionIndex":
        index = cls()
        for lineno, text in enumerate(lines, start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            codes = tuple(
                code.strip()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            standalone = _STANDALONE_RE.match(text) is not None
            suppression = Suppression(
                line=lineno,
                target_line=lineno + 1 if standalone else lineno,
                codes=codes,
                justification=match.group("why") or "",
            )
            index.suppressions.append(suppression)
            index._by_line.setdefault(
                suppression.target_line, []
            ).append(suppression)
        return index

    def matches(self, code: str, line: int) -> bool:
        """Whether a *justified* pragma covers ``code`` at ``line``.

        Marks the pragma as used; unjustified pragmas never match (they
        are themselves findings).
        """
        for suppression in self._by_line.get(line, ()):
            if code in suppression.codes and suppression.justified:
                suppression.used.add(code)
                return True
        return False

    def unjustified(self) -> List[Suppression]:
        return [s for s in self.suppressions if not s.justified]

    def unused(self) -> List[Suppression]:
        """Justified pragmas none of whose codes suppressed anything."""
        return [
            s for s in self.suppressions if s.justified and not s.used
        ]


def strip_suppressions(
    lines: Sequence[str], doomed: Sequence[Suppression]
) -> List[str]:
    """Source lines with the given pragmas removed.

    A standalone pragma line disappears entirely; a trailing pragma is
    cut back to the code before the comment (trailing whitespace
    trimmed). Used by ``repro check --fix-suppressions`` to delete
    stale (RC902) pragmas.
    """
    doomed_lines = {s.line for s in doomed}
    result: List[str] = []
    for lineno, text in enumerate(lines, start=1):
        if lineno not in doomed_lines:
            result.append(text)
            continue
        if _STANDALONE_RE.match(text):
            continue  # whole-line pragma: drop the line
        match = _PRAGMA_RE.search(text)
        assert match is not None  # doomed lines were parsed as pragmas
        result.append(text[: match.start()].rstrip())
    return result
