"""The dead-letter queue: where studies go after their retry budget.

A study that fails ``StudyRetryPolicy.max_attempts`` times is *parked*
here instead of aborting the daemon or spinning forever.  The DLQ is an
append-only JSONL ledger (``dlq.jsonl`` in the service state dir) folded
into current state on load, mirroring the service journal's recovery
contract (:mod:`repro.resilience.ledger`): a torn final line (crash
mid-append) is dropped on load and cut by the next append, and mid-file
corruption raises :class:`DLQError` (``repro serve fsck`` reports it).

Three record kinds fold left-to-right:

* ``dead``  — the study is parked with its failure classification.
  Re-observing the same death (a crash/restart replaying the same keyed
  faults) is idempotent — the entry is replaced, not duplicated, so the
  folded state is invariant across kill points.
* ``retry`` — an operator released the entry (``repro serve dlq retry``);
  the study's accumulated attempts carry over as the *base attempt
  offset* so its next run draws fresh keyed-hash fault/backoff values
  instead of replaying the exact failures that parked it.
* ``purge`` — the ledger is cleared.

While an entry is parked the service *skips* that (tenant, study,
occurrence) — poison is routed around, and the skip is deterministic
because parking itself is.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.resilience.ledger import append_line, read_ledger

DLQ_FILENAME = "dlq.jsonl"

Key = Tuple[str, str, int]


class DLQError(RuntimeError):
    """Corrupt DLQ ledger or an operation on a missing entry."""


@dataclass(frozen=True, slots=True)
class DeadLetterEntry:
    """One parked study and why it died."""

    tenant: str
    name: str
    occurrence: int
    category: str
    error: str
    attempts: int
    dead_at: float

    def key(self) -> Key:
        return (self.tenant, self.name, self.occurrence)

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "name": self.name,
            "occurrence": self.occurrence,
            "category": self.category,
            "error": self.error,
            "attempts": self.attempts,
            "dead_at": self.dead_at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeadLetterEntry":
        try:
            return cls(
                tenant=str(payload["tenant"]),
                name=str(payload["name"]),
                occurrence=int(payload["occurrence"]),
                category=str(payload["category"]),
                error=str(payload["error"]),
                attempts=int(payload["attempts"]),
                dead_at=float(payload["dead_at"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DLQError(f"malformed dead-letter record: {exc}") from exc


class _KeyState:
    """Folded state for one (tenant, name, occurrence)."""

    __slots__ = ("entry", "base_attempts")

    def __init__(self) -> None:
        self.entry: Optional[DeadLetterEntry] = None  # parked entry, if any
        self.base_attempts = 0  # attempts consumed by prior park/retry cycles


class DeadLetterQueue:
    """Persisted (or in-memory) fold of the dead-letter ledger."""

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self._path = Path(path) if path is not None else None
        self._state: Dict[Key, _KeyState] = {}
        if self._path is not None:
            self._fold_file()

    @property
    def path(self) -> Optional[Path]:
        return self._path

    # -- ledger fold -----------------------------------------------------

    def _fold_file(self) -> None:
        scan = read_ledger(self._path)
        if scan.corrupt:
            raise DLQError(f"corrupt DLQ record at line {scan.corrupt[0]} of {self._path}")
        for _, record in scan.records:
            self._fold_record(record)

    def _fold_record(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "dead":
            entry = DeadLetterEntry.from_dict(record)
            state = self._state.setdefault(entry.key(), _KeyState())
            state.entry = entry
        elif kind == "retry":
            key = (str(record["tenant"]), str(record["name"]), int(record["occurrence"]))
            state = self._state.get(key)
            if state is not None and state.entry is not None:
                state.base_attempts += state.entry.attempts
                state.entry = None
        elif kind == "purge":
            self._state.clear()
        else:
            raise DLQError(f"unknown DLQ record kind: {kind!r}")

    def _append(self, record: dict) -> None:
        self._fold_record(record)
        if self._path is None:
            return
        append_line(self._path, json.dumps(record, sort_keys=True, separators=(",", ":")))

    # -- operations ------------------------------------------------------

    def add(self, entry: DeadLetterEntry) -> None:
        """Park a study (idempotent per key until retried/purged)."""
        self._append({"kind": "dead", **entry.to_dict()})

    def retry(self, tenant: str, name: str, occurrence: int) -> DeadLetterEntry:
        """Release a parked entry for re-execution; returns it."""
        key: Key = (tenant, name, occurrence)
        state = self._state.get(key)
        if state is None or state.entry is None:
            raise DLQError(f"no dead-letter entry for {tenant}/{name}#{occurrence}")
        entry = state.entry
        self._append(
            {"kind": "retry", "tenant": tenant, "name": name, "occurrence": occurrence}
        )
        return entry

    def purge(self) -> int:
        """Clear every entry (and attempt history); returns parked count."""
        count = len(self.entries())
        self._append({"kind": "purge"})
        return count

    # -- queries ---------------------------------------------------------

    def entries(self) -> List[DeadLetterEntry]:
        """Currently parked entries in canonical key order."""
        parked = [s.entry for s in self._state.values() if s.entry is not None]
        return sorted(parked, key=lambda e: e.key())

    def parked_keys(self) -> frozenset:
        """Keys the service must skip."""
        return frozenset(k for k, s in self._state.items() if s.entry is not None)

    def base_attempts(self, tenant: str, name: str, occurrence: int) -> int:
        """Attempt offset for a released study: keyed draws for its next
        run start past every attempt already consumed."""
        state = self._state.get((tenant, name, occurrence))
        return state.base_attempts if state is not None else 0

    def __len__(self) -> int:
        return len(self.entries())
