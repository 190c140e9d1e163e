"""The incremental analysis cache under ``.repro-lint-cache/``.

Per file the cache stores the content hash, the per-file findings, and the
whole-program :class:`~repro.lint.program.symbols.ModuleSummary`.  A warm run
re-parses only files whose ``(mtime_ns, size)`` changed *and* whose SHA-256
actually differs; everything else is reconstructed from JSON.  The
interprocedural passes always run — they consume summaries, which are cheap —
so a change in one file is still seen by flows that end in another
(the "reverse-dependency cone" problem solves itself: the fixpoint is global
and the per-file work is what the cache skips).

The whole cache is invalidated by a *global signature* covering the tool
version, the registered rule ids, and the configuration digest — a rule or
config change must never serve stale findings.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass

from repro.lint.engine import Finding

from repro.lint.program.symbols import ModuleSummary
from repro.records import slot_init

DEFAULT_CACHE_DIRNAME = ".repro-lint-cache"
CACHE_FILENAME = "cache.json"

#: Bump when the on-disk schema (or summary semantics) change.
CACHE_VERSION = 1


@slot_init
@dataclass(frozen=True, slots=True)
class CachedFile:
    """One file's cached analysis output."""

    sha: str
    mtime_ns: int
    size: int
    findings: tuple[Finding, ...]
    summary: ModuleSummary | None  # None for files that failed to parse


def file_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class AnalysisCache:
    """Load/lookup/store/save for the per-file analysis cache."""

    def __init__(self, directory: str | pathlib.Path, signature: str) -> None:
        self.directory = pathlib.Path(directory)
        self.signature = f"v{CACHE_VERSION}:{signature}"
        self._entries: dict[str, dict[str, object]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def cache_path(self) -> pathlib.Path:
        return self.directory / CACHE_FILENAME

    # -- persistence ---------------------------------------------------------

    def load(self) -> None:
        """Read the cache file; any mismatch or corruption yields a cold cache."""
        try:
            raw = self.cache_path.read_text(encoding="utf-8")
        except OSError:
            return
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("signature") != self.signature:
            return
        entries = payload.get("files")
        if isinstance(entries, dict):
            self._entries = {
                str(path): entry
                for path, entry in sorted(entries.items())
                if isinstance(entry, dict)
            }

    def save(self) -> None:
        """Persist the cache; IO failures degrade to a cold next run."""
        payload = {
            "signature": self.signature,
            "files": {path: self._entries[path] for path in sorted(self._entries)},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp_path = self.cache_path.with_suffix(".tmp")
            tmp_path.write_text(blob, encoding="utf-8")
            os.replace(tmp_path, self.cache_path)
        except OSError:
            return

    # -- lookup / store ------------------------------------------------------

    def lookup(
        self, relpath: str, stat: os.stat_result, data: bytes | None
    ) -> CachedFile | None:
        """A cached entry for ``relpath``, or ``None`` on miss.

        With ``data=None`` only the fast ``(mtime_ns, size)`` path is tried;
        pass the file bytes to fall back to the SHA comparison (touch-only
        changes stay warm).
        """
        entry = self._entries.get(relpath)
        if entry is None:
            self.misses += 1
            return None
        same_stat = (
            entry.get("mtime_ns") == stat.st_mtime_ns
            and entry.get("size") == stat.st_size
        )
        if not same_stat:
            if data is None:
                self.misses += 1
                return None
            if entry.get("sha") != file_sha(data):
                self.misses += 1
                return None
        try:
            cached = self._decode(entry)
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        if not same_stat:
            # Content identical, stat drifted (touch): refresh the fast path.
            entry["mtime_ns"] = stat.st_mtime_ns
            entry["size"] = stat.st_size
        return cached

    def store(
        self,
        relpath: str,
        stat: os.stat_result,
        data: bytes,
        findings: tuple[Finding, ...],
        summary: ModuleSummary | None,
    ) -> None:
        self._entries[relpath] = {
            "sha": file_sha(data),
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "findings": [finding.as_dict() for finding in findings],
            "summary": summary.as_dict() if summary is not None else None,
        }

    def _decode(self, entry: dict[str, object]) -> CachedFile:
        findings = tuple(
            Finding.from_dict(payload)
            for payload in entry["findings"]  # type: ignore[union-attr]
        )
        summary_payload = entry["summary"]
        summary = (
            ModuleSummary.from_dict(summary_payload)  # type: ignore[arg-type]
            if summary_payload is not None
            else None
        )
        return CachedFile(
            sha=str(entry["sha"]),
            mtime_ns=int(entry["mtime_ns"]),  # type: ignore[arg-type]
            size=int(entry["size"]),  # type: ignore[arg-type]
            findings=findings,
            summary=summary,
        )
