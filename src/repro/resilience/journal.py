"""Checkpointed sweep execution: the run journal and resume manifest.

The sweep cache makes *cached* runs resumable, but it is keyed by
content and only holds (cell, policy) payloads — it cannot say "this
exact invocation finished these cells". The :class:`RunJournal` can: it
is an append-only JSONL file, one line per completed cell, written
incrementally as the sweep runs. Because each line is flushed whole, a
process killed mid-run leaves at worst one torn trailing line — which
the loader detects and drops — and every earlier cell is recoverable.

Layout::

    {"t": "header", "schema": 1, "sweep": {<identity>}}
    {"t": "cell", "value": 2.0, "seed": 0,
     "points": {"LWD": {"ratio": ..., ...}, ...}}
    ...

A cell line holds its points only. Journals written by older versions
also carried a ``"stages"`` timing object per cell; the loader ignores
it, so they still resume.

The ``sweep`` identity embeds everything that determines cell results
(name, parameter grid, seeds, policies, measurement knobs, and the
cache token when present); resuming against a journal whose identity
differs raises :class:`~repro.core.errors.ResilienceError` instead of
silently mixing incompatible measurements.

A *resume manifest* is a tiny JSON file written (atomically) when a
run is interrupted; it records which experiment was running, at what
scale, and where its journal lives, so ``repro run --resume MANIFEST``
can reconstruct the invocation and skip every journaled cell.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, IO, List, Mapping, Optional, Tuple

from repro.core.errors import ResilienceError
from repro.resilience.atomic import atomic_write_json

#: Journal line-format version; bumped on incompatible changes.
JOURNAL_SCHEMA_VERSION = 1

#: Resume-manifest format version.
MANIFEST_SCHEMA_VERSION = 1

CellKey = Tuple[float, int]


class RunJournal:
    """Incremental record of completed sweep cells, keyed (value, seed).

    Usage: construct with a path, :meth:`open` with the sweep's
    identity header (loads any previous entries after validating the
    header), :meth:`record` after each completed cell, :meth:`close`
    when done. Entries recorded later for the same cell override
    earlier ones on load (last-wins), which is what makes re-running a
    partially journaled sweep safe.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._entries: Dict[CellKey, Dict[str, Any]] = {}
        self._handle: Optional[IO[str]] = None
        self._header: Optional[Dict[str, Any]] = None
        self._salvage = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self, sweep_identity: Mapping[str, Any]) -> int:
        """Load previous entries and open for appending; returns the
        number of cells restored.

        ``sweep_identity`` must be JSON-serializable and identical
        across the original run and every resume — a mismatch raises
        :class:`ResilienceError`. A missing file starts a fresh
        journal; a torn trailing line (killed writer) is dropped. A
        torn *identity header* (a writer killed inside its very first
        write) leaves nothing trustworthy: the file is truncated and a
        fresh header written, restoring zero cells.
        """
        identity = json.loads(_canonical(sweep_identity))
        restored = 0
        self._salvage = False
        if self.path.exists():
            restored = self._load(identity)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Deliberately non-atomic (RC403 does not apply): the journal
        # is an append-only WAL, flushed per record, torn tails
        # tolerated by _load. A salvaged journal (torn identity
        # header) is rewritten from scratch instead — every line after
        # a torn header is untrusted.
        mode = "w" if self._salvage else "a"
        self._handle = self.path.open(mode, encoding="utf-8")
        self._header = identity
        if self.path.stat().st_size == 0:
            self._append(
                {
                    "t": "header",
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "sweep": identity,
                }
            )
        return restored

    def _load(self, identity: Dict[str, Any]) -> int:
        header, entries = _parse_journal(self.path)
        if header is None:
            # The identity header itself is torn (a writer died inside
            # its first write) or the file is empty: nothing after it
            # can be trusted, so salvage by truncating on open.
            self._salvage = True
            self._entries = {}
            return 0
        if _canonical(header) != _canonical(identity):
            raise ResilienceError(
                f"journal {self.path} belongs to a different "
                f"sweep; refusing to resume (delete it or "
                f"pass a fresh --journal path)"
            )
        self._entries = entries
        return len(entries)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------

    @property
    def cells(self) -> int:
        """Number of distinct journaled cells currently loaded."""
        return len(self._entries)

    def get(self, value: float, seed: int) -> Optional[Dict[str, Any]]:
        """The journaled entry for one cell: ``{"points": ...}``."""
        return self._entries.get((float(value), int(seed)))

    def record(
        self,
        value: float,
        seed: int,
        points: Mapping[str, Mapping[str, float]],
    ) -> None:
        """Append one completed cell and flush it to disk immediately."""
        if self._handle is None:
            raise ResilienceError(
                f"journal {self.path} is not open for writing"
            )
        entry = {
            "t": "cell",
            "value": float(value),
            "seed": int(seed),
            "points": {name: dict(p) for name, p in points.items()},
        }
        self._entries[(float(value), int(seed))] = {"points": entry["points"]}
        self._append(entry)

    def _append(self, event: Mapping[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(
            json.dumps(event, separators=(",", ":")) + "\n"
        )
        self._handle.flush()


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _parse_journal(
    path: Path,
) -> Tuple[Optional[Dict[str, Any]], Dict[CellKey, Dict[str, Any]]]:
    """Parse a journal file into ``(identity, entries)``.

    Returns ``(None, {})`` when the identity header line is missing or
    torn (everything after an unreadable line is untrusted, and the
    header is written first). Torn trailing cell lines are dropped.
    Raises :class:`ResilienceError` on a schema mismatch or a cell line
    appearing before any header — both mean the file is not a journal
    this engine wrote, not a crash artifact.
    """
    header: Optional[Dict[str, Any]] = None
    entries: Dict[CellKey, Dict[str, Any]] = {}
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                # A torn line from a killed writer; drop it and
                # everything after (append order ⇒ it is last).
                break
            if not isinstance(event, dict):
                break
            kind = event.get("t")
            if kind == "header":
                schema = event.get("schema")
                if schema != JOURNAL_SCHEMA_VERSION:
                    raise ResilienceError(
                        f"journal {path} has schema {schema!r}; "
                        f"this engine writes {JOURNAL_SCHEMA_VERSION}"
                    )
                header = dict(event.get("sweep") or {})
            elif kind == "cell":
                if header is None:
                    raise ResilienceError(
                        f"journal {path} has a cell line before any "
                        f"header; not a journal this engine wrote"
                    )
                try:
                    key = (float(event["value"]), int(event["seed"]))
                    points = dict(event["points"])
                except (KeyError, TypeError, ValueError):
                    break  # torn / malformed: stop trusting the tail
                entries[key] = {"points": points}
    return header, entries


def read_journal(
    path: Path | str,
) -> Tuple[Dict[str, Any], Dict[CellKey, Dict[str, Any]]]:
    """Read-only parse of a journal, for merging and inspection.

    Returns ``(identity, entries)``. Unlike :meth:`RunJournal.open`,
    which can salvage a torn identity header by truncating, a reader
    cannot guess the identity — a missing or unreadable header raises
    :class:`ResilienceError`.
    """
    path = Path(path)
    if not path.exists():
        raise ResilienceError(f"journal {path} does not exist")
    header, entries = _parse_journal(path)
    if header is None:
        raise ResilienceError(
            f"journal {path} has no readable identity header"
        )
    return header, entries


def canonical_journal_lines(
    identity: Mapping[str, Any],
    entries: Mapping[CellKey, Mapping[str, Any]],
) -> List[str]:
    """The canonical projection of a journal: deterministic bytes.

    Header first, then cells sorted by ``(value, seed)`` — a pure
    function of the sweep identity, so two journals for the same sweep
    (serial vs pooled, faulted vs clean, resumed vs one-shot) project
    to identical lines.
    """
    lines = [
        _canonical(
            {
                "t": "header",
                "schema": JOURNAL_SCHEMA_VERSION,
                "sweep": dict(identity),
            }
        )
    ]
    for key in sorted(entries):
        value, seed = key
        lines.append(
            _canonical(
                {
                    "t": "cell",
                    "value": float(value),
                    "seed": int(seed),
                    "points": dict(entries[key]["points"]),
                }
            )
        )
    return lines


def canonical_journal_digest(
    identity: Mapping[str, Any],
    entries: Mapping[CellKey, Mapping[str, Any]],
) -> str:
    """sha256 hex digest of the canonical journal projection."""
    text = "\n".join(canonical_journal_lines(identity, entries)) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Resume manifests
# ----------------------------------------------------------------------


def default_manifest_path(journal_path: Path | str) -> Path:
    """Where the CLI drops the manifest for a journal: alongside it."""
    journal_path = Path(journal_path)
    return journal_path.with_name(journal_path.name + ".manifest.json")


def write_manifest(
    path: Path | str,
    *,
    experiment: str,
    journal: Path | str,
    options: Mapping[str, Any],
    completed: int,
    total: int,
) -> Path:
    """Atomically write a resume manifest; returns its path."""
    payload = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": "resume-manifest",
        "experiment": experiment,
        "journal": str(journal),
        "options": dict(options),
        "progress": {"completed": int(completed), "total": int(total)},
    }
    return atomic_write_json(path, payload, indent=2)


def load_manifest(path: Path | str) -> Dict[str, Any]:
    """Load and validate a resume manifest written by :func:`write_manifest`."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ResilienceError(f"cannot read resume manifest {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ResilienceError(
            f"resume manifest {path} is not valid JSON: {exc}"
        )
    if (
        not isinstance(payload, dict)
        or payload.get("kind") != "resume-manifest"
        or payload.get("schema") != MANIFEST_SCHEMA_VERSION
        or not isinstance(payload.get("experiment"), str)
        or not isinstance(payload.get("journal"), str)
    ):
        raise ResilienceError(
            f"{path} is not a resume manifest this engine understands"
        )
    payload.setdefault("options", {})
    return payload
