"""Append-only JSONL audit journal of the service's completed studies.

This journal is a ledger, not resume state: one ``serve-manifest`` line
per service run, one ``study`` line per completed study (digest, dataset
SHA, simulated submit/complete times, cache reuse).  Crash recovery never
reads it; the :class:`~repro.serve.cache.DiskShardCache` alone makes a
re-run resume.  The journal exists so an operator can audit what a
long-running service measured, when (in simulated time), and whether two
runs of the same queue agreed — the lines are canonical JSON, so equal
histories are byte-equal.

A torn final line (the process died mid-append) is dropped on load and
cut by the next append (:mod:`repro.resilience.ledger`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.resilience.ledger import append_line, read_ledger

#: Bump when the journal's on-disk shape changes incompatibly.
SERVICE_JOURNAL_VERSION = 1


class ServiceJournalError(RuntimeError):
    """The service journal could not be read or written."""


class ServiceJournal:
    """Append-only JSONL ledger at a filesystem path."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        """Whether anything was ever journalled at this path."""
        return self.path.exists()

    def begin_run(self, manifest: dict) -> None:
        """Append one ``serve-manifest`` line marking a new service run."""
        record = {"kind": "serve-manifest", "version": SERVICE_JOURNAL_VERSION}
        record.update(manifest)
        self._append(record)

    def append_study(self, record: dict) -> None:
        """Append one completed study's ledger line."""
        if "sid" not in record:
            raise ServiceJournalError(f"not a study record: {sorted(record)!r}")
        payload = {"kind": "study"}
        payload.update(record)
        self._append(payload)

    def append_failure(self, record: dict) -> None:
        """Append one failed study's ledger line (taxonomy-classified)."""
        if "sid" not in record or "category" not in record:
            raise ServiceJournalError(f"not a failure record: {sorted(record)!r}")
        payload = {"kind": "failed-study"}
        payload.update(record)
        self._append(payload)

    def _append(self, record: dict) -> None:
        append_line(self.path, json.dumps(record, sort_keys=True))

    def load(self) -> list[dict]:
        """Every journalled record, in append order.

        A torn final line is dropped; malformed content anywhere else
        raises :class:`ServiceJournalError`.
        """
        scan = read_ledger(self.path)
        if scan.corrupt:
            raise ServiceJournalError(
                f"{self.path}:{scan.corrupt[0]}: corrupt journal line"
            )
        return [record for _, record in scan.records]

    def studies(self) -> list[dict]:
        """Just the ``study`` lines, in append order."""
        return [record for record in self.load() if record.get("kind") == "study"]

    def failures(self) -> list[dict]:
        """Just the ``failed-study`` lines, in append order."""
        return [
            record for record in self.load() if record.get("kind") == "failed-study"
        ]
