"""Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and friends.

The JSONL event log and the metrics snapshot/Prometheus expositions live on
:class:`~repro.obs.trace.TraceLog` and
:class:`~repro.obs.metrics.MetricsRegistry`; this module holds the format
translations.  Every exporter is a pure function of the deterministic trace,
so exported artifacts inherit the byte-identity guarantee.
"""

from __future__ import annotations

import io
import json
from typing import Iterator, Mapping, TextIO

from repro.obs.events import KIND_BEGIN, KIND_END, KIND_INSTANT
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceLog, fold_rows

#: Chrome trace-event phase codes by event kind.
_PHASES = {KIND_BEGIN: "B", KIND_END: "E", KIND_INSTANT: "i"}

#: The Chrome trace's keys besides ``traceEvents``, which sorts after both.
_CHROME_FIELDS = {
    "displayTimeUnit": "ms",
    "otherData": {"clock": "simulated", "source": "repro.obs"},
}

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` as an encoder.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def chrome_trace(trace: TraceLog) -> dict:
    """The Chrome trace-event form: load in ``chrome://tracing`` / Perfetto.

    Simulated seconds become microsecond timestamps; each shard maps to a
    ``pid`` so per-shard span nesting renders as one track per shard.
    """
    return {**_CHROME_FIELDS, "traceEvents": list(_chrome_events(trace))}


def _chrome_events(trace: TraceLog) -> Iterator[dict]:
    """Each event of :func:`chrome_trace`, in trace order."""
    for line in trace.lines():
        kind = line.get("kind", KIND_INSTANT)
        record: dict = {
            "name": line["name"],
            "ph": _PHASES.get(kind, "i"),
            "ts": round(float(line["ts"]) * 1e6, 3),
            "pid": line.get("shard", 0),
            "tid": 0,
        }
        if kind == KIND_INSTANT:
            record["s"] = "t"
        args = {
            key: line[key]
            for key in ("actor", "target", "detail", "seq", "span", "parent")
            if key in line
        }
        args.update(line.get("attrs", {}))
        if args:
            record["args"] = args
        yield record


def chrome_trace_json(trace: TraceLog) -> str:
    """Canonical JSON of :func:`chrome_trace`."""
    return export_trace(trace, "chrome")


def registry_from_trace(trace: TraceLog) -> MetricsRegistry:
    """Re-derive the ``obs_*`` metrics from an exported trace file.

    Shards are processed in index order through :func:`fold_rows`, the
    same pass that built the live per-shard registries, so span pairing
    happens within each shard's stream.
    """
    registry = MetricsRegistry()
    for _index, rows in trace.shard_rows():
        fold_rows(rows, registry)
    return registry


def write_trace(trace: TraceLog, format: str, out: TextIO) -> None:
    """Write a trace in one of the supported formats to a text stream.

    ``jsonl`` — the canonical event log (digest-bearing bytes);
    ``chrome`` — Chrome trace-event JSON, the bytes of
    ``json.dumps(chrome_trace(trace), sort_keys=True, separators=(",",
    ":"))`` and a newline, written an event at a time (``traceEvents``
    sorts last, so the other keys go first);
    ``prom`` — Prometheus text exposition of the trace-derived metrics;
    ``snapshot`` — canonical JSON metrics snapshot of the same.
    """
    if format == "jsonl":
        trace.write_jsonl(out)
    elif format == "chrome":
        encode = _CANONICAL.encode
        out.write(encode(_CHROME_FIELDS)[:-1] + ',"traceEvents":[')
        for index, record in enumerate(_chrome_events(trace)):
            out.write(("," if index else "") + encode(record))
        out.write("]}\n")
    elif format == "prom":
        out.write(registry_from_trace(trace).prometheus_text())
    elif format == "snapshot":
        out.write(registry_from_trace(trace).snapshot_json() + "\n")
    else:
        raise ValueError(f"unknown trace export format: {format!r}")


def export_trace(trace: TraceLog, format: str) -> str:
    """:func:`write_trace`'s text as one string."""
    out = io.StringIO()
    write_trace(trace, format, out)
    return out.getvalue()


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
    """Human-readable form of :meth:`TraceLog.summarize`."""
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
