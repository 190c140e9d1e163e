"""``repro.obs`` — the deterministic observability plane.

Spans and events are clocked on **simulated time** and recorded per shard,
so a run's assembled trace is byte-identical across worker counts and
crash/resume histories — the same contract the datasets already honour.
Metrics are counters/gauges/fixed-bucket histograms with an associative
per-shard merge.  Exporters cover JSONL, Chrome trace-event JSON,
Prometheus text, and a canonical metrics snapshot.  Wall-clock annotations
are quarantined in the digest-excluded :class:`ProfilingChannel`.

See ``docs/observability.md`` for the determinism contract and formats.
"""

from repro.obs.events import (
    FIGURE_STEP,
    KIND_BEGIN,
    KIND_END,
    KIND_INSTANT,
    Event,
    freeze_attrs,
)
from repro.obs.exporters import parse_prometheus_text, render_summary, write_trace
from repro.obs.metrics import DEFAULT_BUCKETS, SERVICE_BUCKETS, MetricsRegistry
from repro.obs.profiling import ProfilingChannel
from repro.obs.recorder import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.obs.trace import TraceLog, encode_line, fold_rows, read_trace, summarize

#: Observability levels accepted by the engine's ``StudySpec.obs``.
OBS_OFF = "off"
OBS_METRICS = "metrics"
OBS_TRACE = "trace"
OBS_LEVELS = (OBS_OFF, OBS_METRICS, OBS_TRACE)

__all__ = [
    "DEFAULT_BUCKETS",
    "Event",
    "FIGURE_STEP",
    "KIND_BEGIN",
    "KIND_END",
    "KIND_INSTANT",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "OBS_LEVELS",
    "OBS_METRICS",
    "OBS_OFF",
    "OBS_TRACE",
    "ProfilingChannel",
    "SERVICE_BUCKETS",
    "TraceLog",
    "TraceRecorder",
    "encode_line",
    "fold_rows",
    "freeze_attrs",
    "parse_prometheus_text",
    "read_trace",
    "render_summary",
    "summarize",
    "write_trace",
]
