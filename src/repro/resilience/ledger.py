"""Append-only JSONL ledgers: one append rule and one read rule.

The service state dir keeps two ledgers, the journal (``service.jsonl``)
and the dead-letter queue (``dlq.jsonl``), one JSON value per line.  An
append writes one whole line, so a crash mid-append can damage only the
file's final line.  A *torn tail* is a final line that is not blank and
does not parse, and both rules below agree on it:

* :func:`read_ledger` skips blank lines, drops a torn tail, and reports
  every other line that does not parse as corrupt;
* :func:`append_line` cuts a torn tail before it writes, and ends an
  unterminated final line that does parse with its newline.  So an append
  never glues its line onto a fragment, and never turns a line the reader
  drops into mid-file corruption.

Callers keep their own line encoding and error class.  ``repro serve
fsck`` reads through :func:`read_ledger` too, so it judges a ledger the
way the service that loads it does.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Optional

#: Bytes read per step while :func:`append_line` looks for the final line.
_TAIL_CHUNK = 4096


@dataclass
class LedgerScan:
    """A whole ledger as read: its intact values and its damage."""

    #: ``(line number, value)`` for every line that parses, in file order.
    records: list[tuple[int, object]] = field(default_factory=list)
    #: Line numbers of lines that do not parse, the final line excepted.
    corrupt: list[int] = field(default_factory=list)
    #: ``(byte offset, length)`` of a torn tail, if the ledger has one.
    torn: Optional[tuple[int, int]] = None


def _is_torn(line: bytes) -> bool:
    if not line.strip():
        return False
    try:
        json.loads(line)
    except ValueError:
        return True
    return False


def read_ledger(path: Path) -> LedgerScan:
    """Read the ledger at ``path``; a missing file reads as empty."""
    scan = LedgerScan()
    if not path.exists():
        return scan
    lines = path.read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    offset = 0
    for index, line in enumerate(lines):
        start, offset = offset, offset + len(line) + 1
        if not line.strip():
            continue
        try:
            scan.records.append((index + 1, json.loads(line)))
        except ValueError:
            if index == len(lines) - 1:
                scan.torn = (start, len(line))
            else:
                scan.corrupt.append(index + 1)
    return scan


def _final_line(handle: BinaryIO) -> tuple[int, bytes, bool]:
    """The final line's start offset, its bytes, and whether it ends in a newline."""
    end = handle.seek(0, os.SEEK_END)
    if end == 0:
        return 0, b"", True
    handle.seek(end - 1)
    terminated = handle.read(1) == b"\n"
    position = end - 1 if terminated else end
    chunks: list[bytes] = []  # the final line's bytes, last chunk first
    while position > 0:
        step = min(_TAIL_CHUNK, position)
        position -= step
        handle.seek(position)
        chunk = handle.read(step)
        newline = chunk.rfind(b"\n")
        if newline >= 0:
            chunks.append(chunk[newline + 1 :])
            return position + newline + 1, b"".join(reversed(chunks)), terminated
        chunks.append(chunk)
    return 0, b"".join(reversed(chunks)), terminated


def append_line(path: Path, line: str) -> None:
    """Append one encoded record (without its newline) to the ledger at ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as handle:
        start, final, terminated = _final_line(handle)
        prefix = b""
        if _is_torn(final):
            handle.truncate(start)
        elif not terminated:
            prefix = b"\n"
        handle.write(prefix + line.encode("utf-8") + b"\n")
