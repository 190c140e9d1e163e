"""Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and friends.

:func:`write_trace` writes a :func:`~repro.obs.trace.read_trace` row stream
in each supported format, in one pass; the metrics snapshot and Prometheus
expositions come from :class:`~repro.obs.metrics.MetricsRegistry`.  Every
exporter is a pure function of the deterministic trace, so exported
artifacts inherit the byte-identity guarantee.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, TextIO

from repro.obs.events import KIND_BEGIN, KIND_END, KIND_INSTANT, ROW_FIELDS
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import _batches, _encode_chunk, fold_rows

#: The row fields after ``kind``, which become ``args`` when not default.
_ARGS = ("span", "parent", "actor", "target", "detail")

#: Chrome trace-event phase codes by event kind.
_PHASES = {KIND_BEGIN: "B", KIND_END: "E", KIND_INSTANT: "i"}

#: The Chrome trace's keys besides ``traceEvents``, which sorts after both.
_CHROME_FIELDS = {
    "displayTimeUnit": "ms",
    "otherData": {"clock": "simulated", "source": "repro.obs"},
}

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` as an encoder.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _chrome_events(rows: Iterable[tuple[int, int, tuple]]) -> Iterator[dict]:
    """Each event of a row stream in Chrome trace-event form, in trace order.

    Simulated seconds become microsecond timestamps; each shard maps to a
    ``pid`` so per-shard span nesting renders as one track per shard.
    """
    for shard, seq, row in rows:
        ts, name, kind = row[:3]
        record: dict = {
            "name": name,
            "ph": _PHASES.get(kind, "i"),
            "ts": round(float(ts) * 1e6, 3),
            "pid": shard,
            "tid": 0,
        }
        if kind == KIND_INSTANT:
            record["s"] = "t"
        args: dict = {"seq": seq}
        args.update((key, value) for key, value in zip(_ARGS, row[3:ROW_FIELDS]) if value)
        args.update(zip(row[ROW_FIELDS::2], row[ROW_FIELDS + 1 :: 2]))
        record["args"] = args
        yield record


def write_trace(rows: Iterable[tuple[int, int, tuple]], format: str, out: TextIO) -> None:
    """Write a :func:`~repro.obs.trace.read_trace` row stream to a text
    stream in one pass, in one of four formats.

    ``jsonl`` — the canonical event log (digest-bearing bytes), a batch of
    rows at a time;
    ``chrome`` — Chrome trace-event JSON in canonical form and a newline,
    an event at a time (``traceEvents`` sorts last, so the other keys go
    first);
    ``prom`` — Prometheus text exposition of the trace-derived metrics;
    ``snapshot`` — canonical JSON metrics snapshot of the same.  Each
    shard's rows stream through :func:`~repro.obs.trace.fold_rows`, the
    pass that built the live per-shard registries.
    """
    if format == "jsonl":
        for shard, first, batch in _batches(rows):
            out.write(_encode_chunk(batch, shard, first))
    elif format == "chrome":
        encode = _CANONICAL.encode
        out.write(encode(_CHROME_FIELDS)[:-1] + ',"traceEvents":[')
        for index, record in enumerate(_chrome_events(rows)):
            out.write(("," if index else "") + encode(record))
        out.write("]}\n")
    elif format in ("prom", "snapshot"):
        registry = MetricsRegistry()
        for _shard, run in groupby(rows, itemgetter(0)):
            fold_rows(map(itemgetter(2), run), registry)
        if format == "prom":
            out.write(registry.prometheus_text())
        else:
            out.write(registry.snapshot_json() + "\n")
    else:
        raise ValueError(f"unknown trace export format: {format!r}")


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse (and thereby validate) a Prometheus text-format exposition.

    The inverse of :meth:`MetricsRegistry.prometheus_text`, used by the
    serve CI smoke and tests to assert a scrape actually parses: returns
    ``{family_name: {"type": ..., "help": ..., "samples": {rendered_labels:
    value}}}`` where histogram series land under their ``_bucket`` /
    ``_sum`` / ``_count`` sample names.  Raises :class:`ValueError` on any
    line that is not a comment, a ``# HELP``/``# TYPE`` annotation, or a
    well-formed ``name{labels} value`` sample.
    """
    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        return families.setdefault(name, {"type": "", "help": "", "samples": {}})

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            family(parts[2])["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            family(parts[2])["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue
        name, labels, rest = _split_sample(line, lineno)
        try:
            value = float(rest)
        except ValueError:
            raise ValueError(f"line {lineno}: bad sample value: {line!r}") from None
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        if base not in families:
            raise ValueError(f"line {lineno}: sample for undeclared family: {line!r}")
        family(base)["samples"][f"{name}{labels}"] = value
    return families


def _split_sample(line: str, lineno: int) -> tuple[str, str, str]:
    """``(name, rendered_labels, value_text)`` for one sample line."""
    if "{" in line:
        name, _, rest = line.partition("{")
        labels, closed, value = rest.rpartition("} ")
        if not closed:
            raise ValueError(f"line {lineno}: unterminated label set: {line!r}")
        return name, "{" + labels + "}", value.strip()
    name, _, value = line.partition(" ")
    if not value:
        raise ValueError(f"line {lineno}: sample without value: {line!r}")
    return name, "", value.strip()


def render_summary(summary: Mapping) -> str:
    """Human-readable form of :func:`~repro.obs.trace.summarize`."""
    lines = [
        f"events: {summary['events']} across {summary['shards']} shard(s), "
        f"{summary['spans']} spans",
    ]
    if summary.get("sim_last_ts") is not None:
        lines.append(
            f"simulated time: {summary['sim_first_ts']:.3f}s .. "
            f"{summary['sim_last_ts']:.3f}s"
        )
    names = summary.get("names", {})
    if names:
        lines.append("event counts:")
        for name in sorted(names):
            lines.append(f"  {name:28s} {names[name]}")
    faults = summary.get("faults", {})
    if faults:
        lines.append(
            "faults: " + ", ".join(f"{kind}={faults[kind]}" for kind in sorted(faults))
        )
    lines.append(f"digest: {summary['digest']}")
    return "\n".join(lines)
