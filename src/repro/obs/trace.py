"""Run-level trace assembly: one canonical JSONL chunk per shard, one log.

At the end of a shard, :func:`fold_rows` derives the shard's ``obs_*``
metrics from the recorder's rows and encodes the rows into the shard's
canonical JSONL chunk.  The chunk rides inside the shard's result (so the
shard cache and process workers carry it as one string), and the
run-level :class:`TraceLog` keeps the chunks in **shard-index order** —
never completion order.  Its JSONL serialization is therefore a pure
function of the study spec, and
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
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO, Union

from repro.obs.events import KIND_BEGIN, KIND_END, KIND_INSTANT, ROW_FIELDS, freeze_attrs
from repro.obs.metrics import MetricsRegistry

#: Characters of a chunk encoded at a time, by the digest and the JSONL
#: writer; below glibc's default 128 KiB threshold for serving an
#: allocation with its own memory mapping.
_SLICE = 1 << 16

#: ``float.__repr__`` of non-finite values, and their JSON spellings.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def encode_line(row: tuple, seq: int, shard: int) -> str:
    """One event row as its canonical JSON line (no trailing newline)."""
    return _encode_chunk((row,), shard, seq)[:-1]


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[Any], str], preset: Optional[Mapping] = None) -> None:
        super().__init__(preset or ())
        self._make = make

    def __missing__(self, key: object) -> str:
        value = self[key] = self._make(key)
        return value


def _encode_chunk(rows: Iterable[tuple], shard: int, start: int = 0) -> str:
    """Rows as canonical JSON lines, each ending in a newline; the first
    row's ``seq`` is ``start`` and each next row's is one more.

    Keys appear in sorted order and default-valued fields (instant kind,
    zero span/parent, empty strings, no attrs) are omitted, so each line
    equals ``json.dumps`` of the event's compact dict with ``sort_keys``.

    Field values repeat within a shard: names and kinds come from a fixed
    set, actors and targets are a few hundred zIDs, and a timestamp recurs
    about six times.  So each text field's JSON text (``"detail":"...",``)
    is kept in a memo keyed by the field's value, the attribute text by
    the row's attribute pairs, and the timestamp text by the float; only
    ``parent``, ``seq`` and ``span`` are formatted per row.  The memos
    live for one call, one chunk, so they hold at most that chunk's
    distinct values.  They are keyed by one field each, not by a
    combination: zIDs make most combinations distinct, and each distinct
    tuple key is one more object for the cyclic collector to track.  Only
    non-zero floats go through the timestamp memo: ``0.0`` and ``-0.0``,
    or ``1`` and ``1.0``, are equal keys that print differently.
    """
    actors = _Memo(lambda actor: f'{{"actor":{_quote(actor)},', {"": "{"})
    attr_sets = _Memo(_attrs_text)
    details = _Memo(lambda detail: f'"detail":{_quote(detail)},', {"": ""})
    kinds = _Memo(lambda kind: f'"kind":{_quote(kind)},', {KIND_INSTANT: ""})
    names = _Memo(lambda name: f'"name":{_quote(name)},')
    tails = _Memo(lambda target: f'"target":{_quote(target)},"ts":', {"": '"ts":'})
    stamps = _Memo(_stamp)
    shard_text = f',"shard":{shard!r},'
    lines: list[str] = []
    append = lines.append
    for seq, row in enumerate(rows, start):
        ts, name, kind, span, parent, actor, target, detail = row[:ROW_FIELDS]
        head = actors[actor]
        if len(row) > ROW_FIELDS:
            head += attr_sets[row[ROW_FIELDS:]]
        parent_text = f'"parent":{parent},' if parent else ""
        span_text = f'"span":{span},' if span else ""
        stamp = stamps[ts] if ts.__class__ is float and ts else _stamp(ts)
        append(
            f"{head}{details[detail]}{kinds[kind]}{names[name]}{parent_text}"
            f'"seq":{seq}{shard_text}{span_text}{tails[target]}{stamp}}}'
        )
    append("")
    return "\n".join(lines)


def _attrs_text(attrs: tuple) -> str:
    """The ``"attrs":{...},`` text of flattened, sorted attribute pairs."""
    quoted = map(_quote, attrs)
    return '"attrs":{' + ",".join([k + ":" + v for k, v in zip(quoted, quoted)]) + "},"


def _stamp(ts: float) -> str:
    """A timestamp as JSON text: ``repr``, with JSON's non-finite spellings."""
    text = repr(ts)
    return _NON_FINITE.get(text, text)


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
    """Fold a shard's rows: derive its metrics, encode its chunk.

    Adds the standard ``obs_*`` series to ``registry``:

    * ``obs_events_total{name=...}`` — every event, by name;
    * ``obs_faults_total{kind=...}`` — fault injections, by taxonomy kind;
    * ``obs_span_seconds{name=...}`` — span durations (simulated seconds),
      paired by span id within the stream and observed in event order.

    Counts are tallied in the pass and applied once per label.  With
    ``shard`` given, the rows are then encoded (a row's position is its
    ``seq``) and the shard's canonical JSONL chunk is returned; otherwise
    the result is ``None``.
    """
    counts: dict[str, int] = {}
    faults: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    open_spans: dict[int, float] = {}
    for row in rows:
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
    return None if shard is None else _encode_chunk(rows, shard)


def _checked_rows(
    run: Iterable[tuple[int, dict]], shard: int, start: int
) -> Iterator[tuple]:
    """The rows of one shard's ``(line number, record)`` run, whose ``seq``
    numbers must count up from ``start``."""
    for seq, (lineno, record) in enumerate(run, start):
        if int(record["seq"]) != seq:
            raise ValueError(
                f"line {lineno}: shard {shard} event has seq {record['seq']}, expected {seq}"
            )
        yield row_from_record(record)


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

    def _slices(self) -> Iterator[str]:
        """:meth:`to_jsonl` in slices of at most :data:`_SLICE` characters.

        Encoding a whole multi-megabyte chunk would make one more copy of
        it, in a fresh memory mapping page-faulted in anew on every call;
        slices this small reuse heap memory.
        """
        for _index, chunk in self.shards:
            for start in range(0, len(chunk), _SLICE):
                yield chunk[start : start + _SLICE]

    def write_jsonl(self, out: TextIO) -> None:
        """Write :meth:`to_jsonl` to a text stream, a slice at a time."""
        for piece in self._slices():
            out.write(piece)

    def to_jsonl(self) -> str:
        """The canonical JSONL serialization (one event per line)."""
        return "".join(chunk for _index, chunk in self.shards)

    def digest(self) -> str:
        """SHA-256 over :meth:`to_jsonl` — the run's trace identity."""
        digest = hashlib.sha256()
        for piece in self._slices():
            digest.update(piece.encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def from_jsonl(cls, source: Union[str, Iterable[str]]) -> "TraceLog":
        """Parse a trace written by :meth:`write_jsonl` (shard tags regroup it).

        ``source`` is the JSONL text or any iterable of its lines, such as
        an open file, which is then read a line at a time.  Lines are
        re-encoded canonically; within each shard they must carry
        consecutive ``seq`` numbers from 0, as every recorded trace does.
        """
        chunks: dict[int, list[str]] = {}
        encoded: dict[int, int] = {}
        lines = source.splitlines() if isinstance(source, str) else source
        records = (
            (lineno, json.loads(line))
            for lineno, line in enumerate(lines, start=1)
            if line.strip()
        )
        # Each run of consecutive lines from one shard is encoded as one
        # batch, streamed from the parser; a canonical trace is one run per
        # shard.
        for shard, run in groupby(records, key=lambda item: int(item[1].get("shard", 0))):
            start = encoded.get(shard, 0)
            chunk = _encode_chunk(_checked_rows(run, shard, start), shard, start)
            encoded[shard] = start + chunk.count("\n")
            chunks.setdefault(shard, []).append(chunk)
        return cls.from_shard_payloads(
            {shard: "".join(parts) for shard, parts in chunks.items()}
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
