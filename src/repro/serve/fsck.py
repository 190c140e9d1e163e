"""``repro serve fsck`` — validate (and optionally repair) a state dir.

A service state directory accumulates three kinds of durable state: the
append-only journal (``service.jsonl``), the digest-keyed disk shard cache
(``shard-cache/*.json``), and the dead-letter queue (``dlq.jsonl``).  A
``repro study --checkpoint DIR`` directory has the same layout with only
the shard cache, so the same check validates a study checkpoint.  All
three are crash-tolerant by construction — torn final lines are dropped on
load and cut by the next append, cache entries are written atomically and
carry a payload SHA-256 — but an operator still wants a way to *ask*
whether the state is healthy after an unclean shutdown, a disk incident,
or a suspicious run.

:func:`fsck_state_dir` walks everything and reports findings without
touching a byte; ``repair=True`` additionally applies the safe fixes:

* a torn final journal/DLQ line is truncated away (it was never durable);
* a corrupt or mis-shaped cache entry is evicted (a miss re-executes the
  shard — a corrupt entry must never be worth more than that);
* orphaned ``*.json.tmp`` files (a ``put`` that died before its rename)
  are removed.

Corruption *mid-file* in a journal is reported but never repaired — that
is not a crash signature, and destroying ledger history is an operator
decision, not a tool default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.records import slot_init
from repro.resilience.ledger import read_ledger
from repro.serve.cache import SHARD_CACHE_DIR, CacheEntryError, decode_entry

#: Severity labels used by :class:`Finding`.
FSCK_OK = "ok"
FSCK_REPAIRED = "repaired"
FSCK_ERROR = "error"


@slot_init
@dataclass(frozen=True, slots=True)
class Finding:
    """One fsck observation: where, how bad, what (was) to be done."""

    path: str
    severity: str
    detail: str

    def to_dict(self) -> dict:
        return {"path": self.path, "severity": self.severity, "detail": self.detail}


@dataclass
class FsckReport:
    """Everything one fsck pass observed, plus summary counters."""

    findings: list[Finding] = field(default_factory=list)
    journal_records: int = 0
    cache_entries: int = 0
    dlq_records: int = 0

    @property
    def clean(self) -> bool:
        """Whether nothing still needs fixing (repaired findings count as fixed)."""
        return not self.errors

    @property
    def errors(self) -> list[Finding]:
        """Findings that remain unrepaired."""
        return [f for f in self.findings if f.severity == FSCK_ERROR]

    def note(self, path: Path, severity: str, detail: str) -> None:
        self.findings.append(Finding(str(path), severity, detail))


def _check_jsonl(
    path: Path, report: FsckReport, *, repair: bool, label: str
) -> int:
    """Validate one append-only JSONL ledger; returns intact record count.

    The ledger is read as the service reads it
    (:func:`~repro.resilience.ledger.read_ledger`).  A torn final line is
    the expected crash signature: repairable by truncation, the same cut
    the next append makes.  A bad line anywhere else is reported as an
    error and left alone.
    """
    if not path.exists():
        report.note(path, FSCK_OK, f"no {label} (nothing journalled)")
        return 0
    scan = read_ledger(path)
    intact = sum(1 for _, record in scan.records if isinstance(record, dict))
    problems = scan.problems()
    for lineno, detail in problems:
        report.note(path, FSCK_ERROR, f"line {lineno}: {detail} (not repairable)")
    if scan.torn is not None:
        offset, length = scan.torn
        if repair:
            with path.open("r+b") as handle:
                handle.truncate(offset)
            report.note(path, FSCK_REPAIRED, f"truncated torn final line ({length} bytes)")
        else:
            report.note(
                path, FSCK_ERROR, f"torn final line ({length} bytes); --repair truncates"
            )
    elif not problems:
        report.note(path, FSCK_OK, f"{intact} intact {label} records")
    return intact


def _check_cache(directory: Path, report: FsckReport, *, repair: bool) -> int:
    """Verify every shard-cache envelope; returns the valid entry count."""
    if not directory.exists():
        report.note(directory, FSCK_OK, "no shard cache")
        return 0
    valid = 0
    for tmp in sorted(directory.glob("*.json.tmp")):
        if repair:
            tmp.unlink(missing_ok=True)
            report.note(tmp, FSCK_REPAIRED, "removed orphaned temp file")
        else:
            report.note(
                tmp, FSCK_ERROR, "orphaned temp file (a put died); --repair removes"
            )
    for entry in sorted(directory.glob("*.json")):
        try:
            decode_entry(entry.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, CacheEntryError, OSError) as exc:
            if repair:
                entry.unlink(missing_ok=True)
                report.note(entry, FSCK_REPAIRED, f"evicted corrupt entry: {exc}")
            else:
                report.note(
                    entry, FSCK_ERROR, f"corrupt entry ({exc}); --repair evicts"
                )
            continue
        valid += 1
    report.note(directory, FSCK_OK, f"{valid} valid cache entries")
    return valid


def fsck_state_dir(
    state_dir: Union[str, Path], *, repair: bool = False
) -> FsckReport:
    """Validate one service state directory; optionally apply safe repairs."""
    root = Path(state_dir)
    report = FsckReport()
    if not root.exists():
        report.note(root, FSCK_ERROR, "state dir does not exist")
        return report
    report.journal_records = _check_jsonl(
        root / "service.jsonl", report, repair=repair, label="journal"
    )
    report.dlq_records = _check_jsonl(
        root / "dlq.jsonl", report, repair=repair, label="dead-letter"
    )
    report.cache_entries = _check_cache(
        root / SHARD_CACHE_DIR, report, repair=repair
    )
    return report
