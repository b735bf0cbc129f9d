"""Atomic file publication: the torn-write guarantee, factored out.

The sweep cache has always written entries as *temp file + fsync +
``os.replace``* so a process killed mid-write can never leave a
truncated entry behind — readers see either the old content or the new
content, never half a file. This module makes that pattern a shared
primitive so every durable artifact the repo produces (the golden
fixture, JSONL event traces, reproduction reports, cache entries)
carries the same guarantee.

The temp file lives in the *same directory* as the target (``rename``
is only atomic within a filesystem) and is named after the writing
process, so concurrent writers cannot collide with each other either.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional


def tmp_path_for(path: Path) -> Path:
    """The sibling temp path used while atomically writing ``path``."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def atomic_write_text(
    path: Path | str, text: str, *, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` atomically; returns the final path.

    The data is flushed and fsynced to a sibling temp file first and
    published with ``os.replace``, so a crash at any instant leaves
    either the previous file or the new one — never a truncated mix.
    Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tmp_path_for(path)
    try:
        with tmp.open("w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on write failure
            tmp.unlink()
    return path


def atomic_write_json(
    path: Path | str,
    payload: Mapping[str, Any],
    *,
    indent: Optional[int] = None,
    sort_keys: bool = False,
) -> Path:
    """Serialize ``payload`` and atomically write it to ``path``.

    A trailing newline is appended so published JSON files are
    well-formed text files (matching the repo's committed artifacts).
    """
    body = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, body + "\n")
