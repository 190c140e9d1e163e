"""Run-level trace assembly: one canonical JSONL chunk per shard, one log.

At the end of a shard, :func:`fold_rows` makes a single pass over the
recorder's rows: it derives the shard's ``obs_*`` metrics and encodes the
rows into the shard's canonical JSONL chunk.  The chunk rides inside the
shard's result (so the shard cache and process workers carry it as one
string), and the run-level :class:`TraceLog` keeps
the chunks in **shard-index order** — never completion order.  Its JSONL
serialization is therefore a pure function of the study spec, and
:meth:`TraceLog.digest` (SHA-256 over those bytes, fed chunk by chunk) is
the run's trace identity, recorded in the run metrics.

Each line is exactly ``json.dumps({"shard": i, **fields}, sort_keys=True,
separators=(",", ":"))`` of the event's non-default fields; the encoder
writes those bytes directly, without building a dict per event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Mapping, Optional, Sequence

from repro.obs.events import KIND_BEGIN, KIND_END, KIND_INSTANT, ROW_FIELDS, freeze_attrs
from repro.obs.metrics import MetricsRegistry

#: ``float.__repr__`` of non-finite values, and their JSON spellings.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def encode_line(row: tuple, seq: int, shard: int) -> str:
    """One event row as its canonical JSON line (no trailing newline).

    Keys appear in sorted order and default-valued fields (instant kind,
    zero span/parent, empty strings, no attrs) are omitted, so the bytes
    equal ``json.dumps`` of the event's compact dict with ``sort_keys``.
    """
    ts, name, kind, span, parent, actor, target, detail = row[:ROW_FIELDS]
    line = f'{{"actor":{_quote(actor)},' if actor else "{"
    if len(row) > ROW_FIELDS:
        quoted = map(_quote, row[ROW_FIELDS:])
        line += '"attrs":{' + ",".join([k + ":" + v for k, v in zip(quoted, quoted)]) + "},"
    if detail:
        line += f'"detail":{_quote(detail)},'
    if kind != KIND_INSTANT:
        line += f'"kind":{_quote(kind)},'
    line += f'"name":{_quote(name)},'
    if parent:
        line += f'"parent":{parent!r},'
    line += f'"seq":{seq!r},"shard":{shard!r},'
    if span:
        line += f'"span":{span!r},'
    if target:
        line += f'"target":{_quote(target)},'
    stamp = repr(ts)
    return line + f'"ts":{_NON_FINITE.get(stamp, stamp)}}}'


def row_from_record(record: Mapping) -> tuple:
    """The row of one parsed trace line (inverse of :func:`encode_line`)."""
    return (
        record["ts"],
        str(record["name"]),
        str(record.get("kind", KIND_INSTANT)),
        int(record.get("span", 0)),
        int(record.get("parent", 0)),
        str(record.get("actor", "")),
        str(record.get("target", "")),
        str(record.get("detail", "")),
    ) + freeze_attrs(record.get("attrs"))


def fold_rows(
    rows: Sequence[tuple], registry: MetricsRegistry, shard: Optional[int] = None
) -> Optional[str]:
    """One pass over a shard's rows: derive its metrics, encode its chunk.

    Adds the standard ``obs_*`` series to ``registry``:

    * ``obs_events_total{name=...}`` — every event, by name;
    * ``obs_faults_total{kind=...}`` — fault injections, by taxonomy kind;
    * ``obs_span_seconds{name=...}`` — span durations (simulated seconds),
      paired by span id within the stream and observed in event order.

    Counts are tallied in the pass and applied once per label.  With
    ``shard`` given, the same pass encodes the rows (a row's position is
    its ``seq``) and the shard's canonical JSONL chunk is returned;
    otherwise the result is ``None``.
    """
    counts: dict[str, int] = {}
    faults: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    open_spans: dict[int, float] = {}
    lines: Optional[list[str]] = None if shard is None else []
    for seq, row in enumerate(rows):
        name = row[1]
        counts[name] = counts.get(name, 0) + 1
        kind = row[2]
        if kind == KIND_BEGIN:
            open_spans[row[3]] = row[0]
        elif kind == KIND_END:
            started = open_spans.pop(row[3], None)
            if started is not None:
                durations.setdefault(name, []).append(row[0] - started)
        if name == "fault.injected":
            fault = _attr(row, "kind") or "unknown"
            faults[fault] = faults.get(fault, 0) + 1
        if lines is not None:
            lines.append(encode_line(row, seq, shard))  # type: ignore[arg-type]
    for name, count in counts.items():
        registry.counter("obs_events_total", count, help="events recorded, by name", name=name)
    for fault, count in faults.items():
        registry.counter(
            "obs_faults_total", count,
            help="fault injections observed at instrumented seams", kind=fault,
        )
    for name, values in durations.items():
        registry.observe_all(
            "obs_span_seconds", values, help="span durations in simulated seconds", name=name
        )
    if lines is None:
        return None
    return "\n".join(lines) + "\n" if lines else ""


def _attr(row: tuple, key: str) -> Optional[str]:
    """The value of one attribute of a row, or ``None``."""
    for index in range(ROW_FIELDS, len(row), 2):
        if row[index] == key:
            return row[index + 1]
    return None


@dataclass(frozen=True, slots=True)
class TraceLog:
    """An assembled run trace: ``(shard index, JSONL chunk)`` in index order."""

    shards: tuple[tuple[int, str], ...]

    @classmethod
    def from_shard_payloads(cls, payloads: Mapping[int, str]) -> "TraceLog":
        """Assemble from per-shard canonical chunks keyed by shard index."""
        return cls(shards=tuple((index, payloads[index]) for index in sorted(payloads)))

    def lines(self) -> Iterator[dict]:
        """Every event as a dict tagged with its shard, in deterministic order."""
        for _index, chunk in self.shards:
            for line in chunk.splitlines():
                yield json.loads(line)

    def shard_rows(self) -> Iterator[tuple[int, list[tuple]]]:
        """Each shard's index and its rows parsed back, in ``seq`` order."""
        for index, chunk in self.shards:
            yield index, [row_from_record(json.loads(line)) for line in chunk.splitlines()]

    def __len__(self) -> int:
        return sum(chunk.count("\n") for _index, chunk in self.shards)

    def to_jsonl(self) -> str:
        """The canonical JSONL serialization (one event per line)."""
        return "".join(chunk for _index, chunk in self.shards)

    def digest(self) -> str:
        """SHA-256 over :meth:`to_jsonl` — the run's trace identity."""
        digest = hashlib.sha256()
        for _index, chunk in self.shards:
            digest.update(chunk.encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceLog":
        """Parse a trace written by :meth:`to_jsonl` (shard tags regroup it).

        Lines are re-encoded canonically; within each shard they must carry
        consecutive ``seq`` numbers from 0, as every recorded trace does.
        """
        chunks: dict[int, list[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            shard = int(record.get("shard", 0))
            lines = chunks.setdefault(shard, [])
            if int(record["seq"]) != len(lines):
                raise ValueError(
                    f"line {lineno}: shard {shard} event has seq {record['seq']}, "
                    f"expected {len(lines)}"
                )
            lines.append(encode_line(row_from_record(record), len(lines), shard) + "\n")
        return cls.from_shard_payloads(
            {shard: "".join(lines) for shard, lines in chunks.items()}
        )

    def summarize(self) -> dict:
        """Aggregate view: counts by name, span/fault totals, sim time span."""
        names: dict[str, int] = {}
        faults: dict[str, int] = {}
        spans = 0
        first_ts: float | None = None
        last_ts: float | None = None
        for line in self.lines():
            names[line["name"]] = names.get(line["name"], 0) + 1
            kind = line.get("kind", KIND_INSTANT)
            if kind == KIND_BEGIN:
                spans += 1
            if line["name"] == "fault.injected":
                fault_kind = line.get("attrs", {}).get("kind", "unknown")
                faults[fault_kind] = faults.get(fault_kind, 0) + 1
            ts = float(line["ts"])
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = ts if last_ts is None else max(last_ts, ts)
        return {
            "events": len(self),
            "shards": len(self.shards),
            "spans": spans,
            "names": {name: names[name] for name in sorted(names)},
            "faults": {kind: faults[kind] for kind in sorted(faults)},
            "sim_first_ts": first_ts,
            "sim_last_ts": last_ts,
            "digest": self.digest(),
        }
