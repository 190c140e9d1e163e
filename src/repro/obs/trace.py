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
:func:`read_trace` is the one parser of those lines.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import countOf, itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, TextIO

from repro.obs.events import KIND_BEGIN, KIND_END, KIND_INSTANT, ROW_FIELDS, freeze_attrs
from repro.obs.metrics import MetricsRegistry
from repro.records import slot_init

#: Characters of a chunk encoded at a time, by the digest and the JSONL
#: writer; below glibc's default 128 KiB threshold for serving an
#: allocation with its own memory mapping.
_SLICE = 1 << 16

#: Rows of one shard encoded at a time when a row stream is written back
#: or digested; their text, about 90 KB, stays below the same threshold.
_BATCH = 1 << 9

#: Parses the JSON value a string starts with; ``json.loads`` would scan
#: each stripped line for whitespace twice more.
_decode = json.JSONDecoder().raw_decode

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
    """The row of one parsed trace line (inverse of :func:`encode_line`).

    A ``ts`` that is not an ``int`` or ``float`` (a ``bool`` is neither)
    raises :class:`ValueError`: it could not be encoded back as JSON.
    """
    ts = record["ts"]
    if ts.__class__ not in (int, float):
        raise ValueError(f"event ts {ts!r} is not a number")
    return (
        ts,
        str(record["name"]),
        str(record.get("kind", KIND_INSTANT)),
        int(record.get("span", 0)),
        int(record.get("parent", 0)),
        str(record.get("actor", "")),
        str(record.get("target", "")),
        str(record.get("detail", "")),
    ) + freeze_attrs(record.get("attrs"))


def fold_rows(
    rows: Iterable[tuple], registry: MetricsRegistry, shard: Optional[int] = None
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


def _attr(row: tuple, key: str) -> Optional[str]:
    """The value of one attribute of a row, or ``None``."""
    for index in range(ROW_FIELDS, len(row), 2):
        if row[index] == key:
            return row[index + 1]
    return None


def read_trace(lines: Iterable[str]) -> Iterator[tuple[int, int, tuple]]:
    """Each event of a JSONL trace as ``(shard, seq, row)``, in file order.

    ``lines`` is any iterable of lines, such as an open file; blank ones
    are skipped.  The trace must have the shape :meth:`TraceLog.write_jsonl`
    writes: each shard's events are one run of lines, in ascending shard
    order, whose ``seq`` numbers count up from 0.  A line that is not a
    JSON object, an event without ``name``, ``seq`` or ``ts``, a ``ts``
    that is not a number, a ``seq`` gap and a shard out of order each raise
    :class:`ValueError` naming the line.
    """
    shard: Optional[int] = None
    expected = 0
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record, end = _decode(text)
        except json.JSONDecodeError:
            record, end = None, 0
        if end != len(text) or not isinstance(record, dict):
            raise ValueError(f"line {lineno}: not a JSON object")
        try:
            index = int(record.get("shard", 0))
            seq = int(record["seq"])
            row = row_from_record(record)
        except KeyError as missing:
            raise ValueError(f"line {lineno}: event has no {missing} field") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if index != shard:
            if shard is not None and index < shard:
                raise ValueError(f"line {lineno}: shard {index} follows shard {shard}")
            shard, expected = index, 0
        if seq != expected:
            raise ValueError(f"line {lineno}: shard {index} event has seq {seq}, expected {expected}")
        expected += 1
        yield index, seq, row


def _batches(rows: Iterable[tuple[int, int, tuple]]) -> Iterator[tuple[int, int, list[tuple]]]:
    """A :func:`read_trace` stream as ``(shard, first seq, rows)`` batches of
    at most :data:`_BATCH` consecutive rows of one shard."""
    for shard, run in groupby(rows, itemgetter(0)):
        while batch := list(islice(run, _BATCH)):
            yield shard, batch[0][1], list(map(itemgetter(2), batch))


def summarize(rows: Iterable[tuple[int, int, tuple]]) -> dict:
    """Aggregate view of a :func:`read_trace` stream, in one pass: counts
    of events, shards with events, spans, events by name and faults by
    kind, the simulated time span, and the SHA-256 of the rows' canonical
    JSONL, which is :meth:`TraceLog.digest` of the trace they came from."""
    names: Counter[str] = Counter()
    faults: Counter[str] = Counter()
    events = spans = 0
    shards: set[int] = set()
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    digest = hashlib.sha256()
    for shard, first, batch in _batches(rows):
        digest.update(_encode_chunk(batch, shard, first).encode("utf-8"))
        shards.add(shard)
        events += len(batch)
        names.update(map(itemgetter(1), batch))
        spans += countOf(map(itemgetter(2), batch), KIND_BEGIN)
        for row in batch:
            if row[1] == "fault.injected":
                fault = _attr(row, "kind")
                faults["unknown" if fault is None else fault] += 1
        # min and max fold left to right, as a running min(first_ts, ts) does.
        stamps = [float(row[0]) for row in batch]
        first_ts = min(stamps) if first_ts is None else min(first_ts, *stamps)
        last_ts = max(stamps) if last_ts is None else max(last_ts, *stamps)
    return {
        "events": events,
        "shards": len(shards),
        "spans": spans,
        "names": {name: names[name] for name in sorted(names)},
        "faults": {kind: faults[kind] for kind in sorted(faults)},
        "sim_first_ts": first_ts,
        "sim_last_ts": last_ts,
        "digest": digest.hexdigest(),
    }


@slot_init
@dataclass(frozen=True, slots=True)
class TraceLog:
    """An assembled run trace: ``(shard index, JSONL chunk)`` in index order."""

    shards: tuple[tuple[int, str], ...]

    @classmethod
    def from_shard_payloads(cls, payloads: Mapping[int, str]) -> "TraceLog":
        """Assemble from per-shard canonical chunks keyed by shard index."""
        return cls(shards=tuple((index, payloads[index]) for index in sorted(payloads)))

    def rows(self) -> Iterator[tuple[int, int, tuple]]:
        """Every event as :func:`read_trace` yields it from :meth:`to_jsonl`."""
        return read_trace(line for _index, chunk in self.shards for line in chunk.splitlines())

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
