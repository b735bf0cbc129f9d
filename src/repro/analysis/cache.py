"""Content-addressed on-disk cache for sweep cell results.

Paper-scale Fig. 5 runs (2*10^6 slots, nine panels, multiple seeds) take
hours; interrupting one used to throw everything away. The cache stores
one :class:`~repro.analysis.sweep.SweepPoint` per file, addressed by the
SHA-256 of a canonical JSON payload describing *everything* that
determines the measurement:

* the full :class:`~repro.core.config.SwitchConfig` (buffer size, per-port
  work/value, speedup, discipline);
* a caller-supplied *workload token* naming the trace generator and its
  parameters (experiment id, model, ``n_slots``, load, ...);
* the policy name, the sweep parameter value, and the replication seed;
* the measurement knobs (``by_value``, ``flush_every``, ``drain``);
* a cache schema version and the package version, so results from an
  older engine are never silently reused after a semantic change.

Because simulations are deterministic given that payload, a hit can be
substituted for a fresh run without changing a single output byte — the
parallel/serial/cached determinism contract that
:mod:`repro.analysis.sweep` tests rely on. Entries are written atomically
through :func:`repro.resilience.atomic.atomic_write_text` (temp file +
fsync + ``os.replace``) so concurrent sweeps sharing a cache directory
cannot observe torn files.

Integrity hardening (schema v2): every entry embeds the SHA-256 of its
measurement payload, verified on *every* read. An entry that fails the
checksum — bit rot, a torn write from a crashed pre-atomic writer, a
stray editor — is moved into ``<root>/quarantine/`` (never silently
reused, never silently deleted) and the lookup counts as a miss, so the
cell is simply recomputed. :meth:`SweepCache.verify` and
:meth:`SweepCache.gc` back the ``repro cache verify|gc`` subcommands.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.resilience.atomic import atomic_write_text

#: Bump when the cached payload layout or engine semantics change in a
#: way that invalidates previously stored measurements. v2 added the
#: per-entry payload checksum; v1 entries live at different addresses
#: (the version is part of the key) and are reaped by ``gc``.
CACHE_SCHEMA_VERSION = 2

#: Subdirectory of the cache root where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"


def default_cache_dir() -> Path:
    """The CLI's default cache location.

    ``SHMEM_CACHE_DIR`` overrides; otherwise ``results/sweep-cache``
    under the current directory (``results/`` is already gitignored).
    """
    env = os.environ.get("SHMEM_CACHE_DIR")
    if env:
        return Path(env)
    return Path("results") / "sweep-cache"


def config_payload(config: SwitchConfig) -> Dict[str, Any]:
    """A canonical JSON-ready description of a switch configuration."""
    return {
        "buffer_size": config.buffer_size,
        "speedup": config.speedup,
        "discipline": config.discipline.value,
        "ports": [[port.work, port.value] for port in config.ports],
    }


def _point_checksum(point: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a measurement payload."""
    canonical = json.dumps(dict(point), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheVerifyReport:
    """Outcome of a full-cache integrity scan (``repro cache verify``)."""

    entries: int = 0
    ok: int = 0
    corrupt: List[str] = field(default_factory=list)
    legacy: int = 0
    quarantined: int = 0  # files already sitting in quarantine/

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def summary(self) -> str:
        text = (
            f"{self.entries} entries: {self.ok} ok, "
            f"{len(self.corrupt)} corrupt, {self.legacy} legacy-schema"
        )
        if self.quarantined:
            text += f"; {self.quarantined} previously quarantined"
        return text


@dataclass
class CacheGcReport:
    """Outcome of a cache sweep (``repro cache gc``)."""

    removed_corrupt: int = 0
    removed_legacy: int = 0
    removed_quarantined: int = 0
    removed_tmp: int = 0

    @property
    def removed(self) -> int:
        return (
            self.removed_corrupt
            + self.removed_legacy
            + self.removed_quarantined
            + self.removed_tmp
        )

    def summary(self) -> str:
        return (
            f"removed {self.removed} files "
            f"({self.removed_corrupt} corrupt, {self.removed_legacy} "
            f"legacy, {self.removed_quarantined} quarantined, "
            f"{self.removed_tmp} stale temp)"
        )


class SweepCache:
    """Content-addressed store of sweep cell measurements.

    Parameters
    ----------
    root:
        Directory holding the cache; created lazily on first write.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector`; its
        ``torn`` clauses make chosen writes land truncated and
        non-atomically, simulating a writer killed mid-flush (the
        failure mode checksum-on-read exists to catch). Wired
        automatically by :func:`repro.analysis.sweep.run_sweep` when
        fault injection is active.

    The cache counts its own traffic (``hits``/``misses``/``writes``/
    ``corrupt``) so sweeps can report hit rates without threading extra
    state around.
    """

    def __init__(
        self, root: Path | str, *, fault_injector=None
    ) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def key(
        self,
        *,
        config: SwitchConfig,
        workload: Mapping[str, Any],
        policy: str,
        param_value: float,
        seed: int,
        by_value: Optional[bool],
        flush_every: Optional[int],
        drain: bool,
    ) -> str:
        """SHA-256 content address of one (cell, policy) measurement."""
        from repro import __version__

        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "engine": __version__,
            "config": config_payload(config),
            "workload": dict(workload),
            "policy": policy,
            "param_value": float(param_value),
            "seed": int(seed),
            "by_value": by_value,
            "flush_every": flush_every,
            "drain": bool(drain),
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored measurement dict for ``key``, or ``None`` on miss.

        Every read verifies the entry's embedded payload checksum.
        Corrupt or truncated entries (torn writes, bit rot) are moved to
        the quarantine directory and count as misses, so the cell is
        recomputed and the bad entry preserved for inspection. Entries
        from an older schema count as plain misses.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except json.JSONDecodeError:
            self._quarantine(path)
            self.misses += 1
            return None
        point = _validate_entry(entry)
        if point is None:
            if isinstance(entry, dict) and entry.get("schema") not in (
                None,
                CACHE_SCHEMA_VERSION,
            ):
                # A different engine's entry at this address: leave it.
                self.misses += 1
                return None
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return point

    def put(self, key: str, point: Mapping[str, Any]) -> None:
        """Atomically store a measurement dict under ``key``.

        The entry is published through
        :func:`~repro.resilience.atomic.atomic_write_text` (sibling temp
        file, fsync, ``os.replace``); ``repro cache gc`` reaps temp
        files a killed writer left behind.

        Raises :class:`~repro.core.errors.ConfigError` when the cache
        root is unusable (e.g. it names an existing file) so the CLI
        reports a clean error instead of a traceback.
        """
        path = self._path(key)
        payload = dict(point)
        body = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "point": payload,
                "sha256": _point_checksum(payload),
            }
        )
        write_index = self.writes
        self.writes += 1
        if self.fault_injector is not None and self.fault_injector.should(
            "torn", write_index
        ):
            # Injected torn write: half the body, straight to the final
            # path, no atomic rename — a crashed pre-atomic writer.
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                # repro: allow[RC403] -- deliberately torn write: this branch simulates a crashed pre-atomic writer for the chaos suite
                path.write_text(
                    body[: max(1, len(body) // 2)], encoding="utf-8"
                )
            except OSError as exc:  # pragma: no cover - unusable root
                raise ConfigError(
                    f"cannot write sweep cache entry under {self.root}: "
                    f"{exc}"
                ) from exc
            return
        try:
            atomic_write_text(path, body)
        except OSError as exc:
            raise ConfigError(
                f"cannot write sweep cache entry under {self.root}: {exc}"
            ) from exc

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (best effort) and count it."""
        self.corrupt += 1
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_root / path.name)
        except OSError:  # pragma: no cover - e.g. read-only cache
            pass

    # ------------------------------------------------------------------
    # Maintenance (repro cache verify | gc)
    # ------------------------------------------------------------------

    def _entry_files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            yield path

    def _tmp_files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/.*.tmp")):
            yield path

    def verify(self) -> CacheVerifyReport:
        """Scan every entry: parse it and check its payload checksum.

        Read-only — corrupt entries are *reported*, not moved (use
        :meth:`gc`, or let a normal read quarantine them).
        """
        report = CacheVerifyReport()
        for path in self._entry_files():
            report.entries += 1
            status = _classify_entry(path)
            if status == "ok":
                report.ok += 1
            elif status == "legacy":
                report.legacy += 1
            else:
                report.corrupt.append(str(path))
        if self.quarantine_root.is_dir():
            report.quarantined = sum(
                1 for _ in self.quarantine_root.iterdir()
            )
        return report

    def gc(self) -> CacheGcReport:
        """Delete corrupt entries, legacy-schema entries, stale temp
        files, and everything previously quarantined."""
        report = CacheGcReport()
        for path in self._entry_files():
            status = _classify_entry(path)
            if status == "ok":
                continue
            path.unlink(missing_ok=True)
            if status == "legacy":
                report.removed_legacy += 1
            else:
                report.removed_corrupt += 1
        for path in self._tmp_files():
            path.unlink(missing_ok=True)
            report.removed_tmp += 1
        if self.quarantine_root.is_dir():
            for path in sorted(self.quarantine_root.iterdir()):
                path.unlink(missing_ok=True)
                report.removed_quarantined += 1
        return report

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when untouched)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SweepCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes}, "
            f"corrupt={self.corrupt})"
        )


def _validate_entry(entry: Any) -> Optional[Dict[str, Any]]:
    """The entry's point payload if structurally sound and checksummed."""
    if not isinstance(entry, dict):
        return None
    if entry.get("schema") != CACHE_SCHEMA_VERSION:
        return None
    point = entry.get("point")
    checksum = entry.get("sha256")
    if not isinstance(point, dict) or not isinstance(checksum, str):
        return None
    if _point_checksum(point) != checksum:
        return None
    return point


def _classify_entry(path: Path) -> str:
    """'ok' | 'legacy' (older schema) | 'corrupt' for one entry file."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return "corrupt"
    if _validate_entry(entry) is not None:
        return "ok"
    if isinstance(entry, dict) and entry.get("schema") not in (
        None,
        CACHE_SCHEMA_VERSION,
    ):
        return "legacy"
    return "corrupt"
