"""Grandfathered findings: the checked-in baseline file.

A baseline entry suppresses every finding with the same
``(rule, path, symbol)`` fingerprint and must carry a human-written
justification — the self-lint test rejects empty ones.  Stale entries (no
finding matches any more) are reported so the file can only shrink over
time, never quietly rot.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.lint.engine import Finding
from repro.records import slot_init

BASELINE_VERSION = 1

#: The justification ``write_baseline`` stamps on fresh entries.  Kept in
#: one place so the loader can recognise (and reject) it verbatim.
PLACEHOLDER_JUSTIFICATION = "TODO: justify or fix"


class BaselinePlaceholderError(ValueError):
    """A baseline entry still carries an empty or placeholder justification.

    Raised at *load* time: a placeholder that reaches the suppression path
    would silently grandfather findings nobody ever reviewed.  The CLI maps
    this to exit 2 with the offending fingerprints listed.
    """


def _is_placeholder(justification: str) -> bool:
    text = justification.strip()
    return not text or text.upper().startswith("TODO")


@slot_init
@dataclass(frozen=True, slots=True)
class BaselineEntry:
    """One deliberately-exempted finding fingerprint."""

    rule: str
    path: str
    symbol: str
    justification: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)

    def as_dict(self) -> dict[str, str]:
        return {
            "rule": self.rule,
            "path": self.path,
            "symbol": self.symbol,
            "justification": self.justification,
        }


@slot_init
@dataclass(frozen=True, slots=True)
class Baseline:
    """The set of grandfathered fingerprints plus split logic."""

    entries: tuple[BaselineEntry, ...] = ()

    def split(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], list[Finding], list[BaselineEntry]]:
        """Partition findings into ``(new, suppressed)`` and list stale entries.

        An entry may match any number of findings (for example both
        ``time.perf_counter`` calls in one file); an entry matching none is
        *stale* and should be deleted from the file.
        """
        known = {entry.fingerprint: entry for entry in self.entries}
        new: list[Finding] = []
        suppressed: list[Finding] = []
        matched: set[tuple[str, str, str]] = set()
        for finding in findings:
            if finding.fingerprint in known:
                suppressed.append(finding)
                matched.add(finding.fingerprint)
            else:
                new.append(finding)
        stale = [e for e in self.entries if e.fingerprint not in matched]
        return new, suppressed, stale


def load_baseline(path: str | pathlib.Path, *, strict: bool = True) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline.

    ``strict`` (the default, and what every suppression path uses) rejects
    entries whose justification is empty or still the ``write_baseline``
    placeholder — baselining is an explicit, reviewed act, and the loader
    is where unreviewed entries stop.  ``strict=False`` exists for the
    write/prune fixers, which must read files they themselves stamped with
    placeholders.
    """
    baseline_path = pathlib.Path(path)
    if not baseline_path.is_file():
        return Baseline()
    data = json.loads(baseline_path.read_text(encoding="utf-8"))
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {data.get('version')!r} in {baseline_path}"
        )
    entries = tuple(
        BaselineEntry(
            rule=entry["rule"],
            path=entry["path"],
            symbol=entry["symbol"],
            justification=entry.get("justification", ""),
        )
        for entry in data.get("entries", ())
    )
    if strict:
        unjustified = [e for e in entries if _is_placeholder(e.justification)]
        if unjustified:
            listing = ", ".join(
                "{}:{}:{}".format(*entry.fingerprint) for entry in unjustified
            )
            raise BaselinePlaceholderError(
                f"{baseline_path} has {len(unjustified)} entr"
                f"{'y' if len(unjustified) == 1 else 'ies'} with a missing or "
                f"placeholder justification ({listing}); replace each "
                f"{PLACEHOLDER_JUSTIFICATION!r} with why the finding is exempt"
            )
    return Baseline(entries=entries)


def prune_baseline(
    findings: Sequence[Finding], path: str | pathlib.Path
) -> tuple[Baseline, list[BaselineEntry]]:
    """Delete stale entries from the baseline file (the ``--prune-baseline`` fixer).

    Returns the pruned baseline and the entries that were removed.  The file
    is rewritten only when something was actually stale, so a clean run never
    touches its mtime.
    """
    # Lenient load: pruning placeholder-bearing files must work, or the
    # fixer could never clean up what --write-baseline just stamped.
    existing = load_baseline(path, strict=False)
    _new, _suppressed, stale = existing.split(findings)
    if not stale:
        return existing, []
    stale_fingerprints = {entry.fingerprint for entry in stale}
    kept = tuple(
        entry
        for entry in existing.entries
        if entry.fingerprint not in stale_fingerprints
    )
    payload = {
        "version": BASELINE_VERSION,
        "entries": [entry.as_dict() for entry in kept],
    }
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return Baseline(entries=kept), list(stale)


def write_baseline(
    findings: Iterable[Finding],
    path: str | pathlib.Path,
    justification: str = PLACEHOLDER_JUSTIFICATION,
) -> Baseline:
    """Write a baseline covering ``findings`` (one entry per fingerprint).

    Newly-written entries carry a placeholder justification; the self-lint
    gate will refuse them until a human replaces the text, which is the
    point — baselining is an explicit, reviewed act.
    """
    existing = load_baseline(path, strict=False)
    keep = {entry.fingerprint: entry for entry in existing.entries}
    for finding in findings:
        keep.setdefault(
            finding.fingerprint,
            BaselineEntry(
                rule=finding.rule,
                path=finding.path,
                symbol=finding.symbol,
                justification=justification,
            ),
        )
    entries = tuple(sorted(keep.values(), key=lambda e: e.fingerprint))
    payload = {
        "version": BASELINE_VERSION,
        "entries": [entry.as_dict() for entry in entries],
    }
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return Baseline(entries=entries)
