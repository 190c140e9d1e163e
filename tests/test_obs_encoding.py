"""Reference checks for the trace fast path: line encoder and metrics pass.

The recorder stores flat rows and :func:`repro.obs.fold_rows` derives the
``obs_*`` metrics from them in one pass and encodes them straight into
canonical JSONL.  Both are checked here against the straightforward forms
they replace: ``json.dumps`` of each event's compact dict (the
digest-bearing bytes), and the per-event metrics loop, copied below as
the reference.  ``TestChunkMemos`` draws chunks whose values repeat, so
the encoder's per-chunk memos are hit.  ``TestReader`` reads multi-shard
traces back through :func:`repro.obs.read_trace` and checks the one-pass
:func:`repro.obs.summarize` against the per-line dict loop it replaced.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.runner as runner
import repro.obs.trace as trace_module
from repro.engine.experiments import EXPERIMENT_ORDER
from repro.engine.runner import ShardTask, run_shard, shard_registry
from repro.engine.sharding import make_shard_specs, partition_plans
from repro.engine.study import StudySpec, compute_plans
from repro.obs import (
    KIND_BEGIN,
    KIND_END,
    KIND_INSTANT,
    Event,
    MetricsRegistry,
    TraceLog,
    TraceRecorder,
    encode_line,
    fold_rows,
    freeze_attrs,
    read_trace,
    summarize,
    write_trace,
)
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec


def reference_line(event, shard: int) -> str:
    """``json.dumps`` of ``{"shard": i, **compact event dict}`` — the bytes
    every trace line must equal (the compact dict omits default fields)."""
    payload: dict = {"ts": event.ts, "seq": event.seq, "name": event.name}
    if event.kind != KIND_INSTANT:
        payload["kind"] = event.kind
    if event.span:
        payload["span"] = event.span
    if event.parent:
        payload["parent"] = event.parent
    if event.actor:
        payload["actor"] = event.actor
    if event.target:
        payload["target"] = event.target
    if event.detail:
        payload["detail"] = event.detail
    if event.attrs:
        payload["attrs"] = {key: value for key, value in event.attrs}
    return json.dumps({"shard": shard, **payload}, sort_keys=True, separators=(",", ":"))


def reference_registry_from_events(events, registry: MetricsRegistry) -> MetricsRegistry:
    """The per-event derivation loop the one-pass fold replaces."""
    open_spans: dict[int, float] = {}
    for event in events:
        registry.counter(
            "obs_events_total", 1, help="events recorded, by name", name=event.name
        )
        if event.name == "fault.injected":
            registry.counter(
                "obs_faults_total", 1,
                help="fault injections observed at instrumented seams",
                kind=event.attr("kind") or "unknown",
            )
        if event.kind == KIND_BEGIN:
            open_spans[event.span] = event.ts
        elif event.kind == KIND_END:
            started = open_spans.pop(event.span, None)
            if started is not None:
                registry.histogram(
                    "obs_span_seconds", event.ts - started,
                    help="span durations in simulated seconds",
                    name=event.name,
                )
    return registry


#: Text that exercises every escaping path: quotes, backslashes, control
#: characters, non-ASCII and astral code points.
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\t\b\f é中\U0001f600'),
        st.characters(),
    ),
    max_size=12,
)
_INTS = st.integers(min_value=0, max_value=2**63)
_TS = st.one_of(
    st.sampled_from([0.0, 0.1 + 0.2, 1e16, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _rows(draw):
    row = (
        draw(_TS),
        draw(_TEXT),
        draw(st.sampled_from([KIND_INSTANT, KIND_BEGIN, KIND_END])),
        draw(_INTS),
        draw(_INTS),
        draw(_TEXT),
        draw(_TEXT),
        draw(_TEXT),
    )
    return row + freeze_attrs(draw(st.dictionaries(_TEXT, _TEXT, max_size=4)))


class TestLineEncoder:
    @settings(max_examples=400, deadline=None)
    @given(row=_rows(), seq=_INTS, shard=_INTS)
    def test_matches_json_dumps(self, row, seq, shard):
        expected = reference_line(Event.from_row(seq, row), shard)
        assert encode_line(row, seq, shard) == expected

    @pytest.mark.parametrize("ts", [0.0, 0.1 + 0.2, 1e16, 5e-324, -0.0, math.inf, math.nan])
    def test_timestamps(self, ts):
        row = (ts, "x", KIND_INSTANT, 0, 0, "", "", "")
        assert encode_line(row, 0, 0) == reference_line(Event.from_row(0, row), 0)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(_rows(), max_size=6), shard=_INTS)
    def test_chunk_is_the_lines_in_seq_order(self, rows, shard):
        chunk = fold_rows(rows, MetricsRegistry(), shard)
        assert chunk == "".join(
            reference_line(Event.from_row(seq, row), shard) + "\n"
            for seq, row in enumerate(rows)
        )


#: A small pool, so that a chunk repeats every field value and its memos
#: hit.  The same strings serve every text field, so a memo shared between
#: two fields writes one field's key into the other; two attribute sets
#: share their keys, so a memo keyed by the keys alone mixes up values.
_POOL_TEXT = ("", "zid-7", 'q"\\é')
_POOL_ATTRS = ({}, {"kind": "reset", "port": "443"}, {"kind": "zid-7", "port": ""})
_POOL_TS = (0.0, -0.0, 0.1 + 0.2, 1e16, math.nan, math.inf)
_POOL_IDS = (0, 1, 7)
#: The pool of each fixed row field, in row order.
_POOL_FIELDS = (
    _POOL_TS, _POOL_TEXT, (KIND_INSTANT, KIND_BEGIN, KIND_END), _POOL_IDS, _POOL_IDS,
    _POOL_TEXT, _POOL_TEXT, _POOL_TEXT,
)


@st.composite
def _pool_rows(draw):
    row = tuple(draw(st.sampled_from(values)) for values in _POOL_FIELDS)
    return row + freeze_attrs(draw(st.sampled_from(_POOL_ATTRS)))


def reference_chunk(rows, shard: int) -> str:
    return "".join(
        reference_line(Event.from_row(seq, row), shard) + "\n" for seq, row in enumerate(rows)
    )


class TestChunkMemos:
    """The encoder's per-chunk memos, on chunks whose values repeat."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_pool_rows(), min_size=20, max_size=80))
    def test_repeating_rows_match_json_dumps(self, rows):
        for shard in (0, 3):
            assert fold_rows(rows, MetricsRegistry(), shard) == reference_chunk(rows, shard)

    @pytest.mark.parametrize("stamps", [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)])
    def test_signed_zeros_keep_their_sign(self, stamps):
        rows = [(ts, "x", KIND_INSTANT, 0, 0, "", "", "") for ts in stamps]
        assert fold_rows(rows, MetricsRegistry(), 0) == reference_chunk(rows, 0)

    @pytest.mark.parametrize("stamps", [("1.0", "1"), ("1", "1.0")])
    def test_reparsed_int_and_float_stamps_come_back_as_written(self, stamps):
        text = "".join(
            f'{{"name":"x","seq":{seq},"shard":0,"ts":{stamp}}}\n'
            for seq, stamp in enumerate(stamps)
        )
        assert jsonl_of(read_trace(text.splitlines())) == text

    def test_memos_last_one_chunk(self):
        # Values built at run time, so that only this test holds them; a
        # memo that outlived its chunk would keep a reference to each.
        actor, detail, target, key, value = ("".join(["live-", part]) for part in "adtkv")
        ts = float("".join(["12.", "5"]))
        rows = [
            (ts, "x", KIND_INSTANT, 0, 0, actor, target, detail, key, value),
            (ts, "x", KIND_BEGIN, 1, 0, actor, target, detail, key, value),
        ]
        held = [sys.getrefcount(item) for item in (actor, detail, target, key, value, ts)]
        assert fold_rows(rows, MetricsRegistry(), 0) == reference_chunk(rows, 0)
        assert [sys.getrefcount(item) for item in (actor, detail, target, key, value, ts)] == held


def jsonl_of(rows) -> str:
    """The JSONL export of a row stream, as one string."""
    out = io.StringIO()
    write_trace(rows, "jsonl", out)
    return out.getvalue()


def reference_summary(text: str) -> dict:
    """The summary of a JSONL trace as the per-line dict loop computed it
    before rows were read once: the reference for :func:`summarize`."""
    lines = [json.loads(line) for line in text.splitlines()]
    names: dict[str, int] = {}
    faults: dict[str, int] = {}
    spans = 0
    first_ts: float | None = None
    last_ts: float | None = None
    for line in lines:
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
        "events": len(lines),
        "shards": len({line.get("shard", 0) for line in lines}),
        "spans": spans,
        "names": {name: names[name] for name in sorted(names)},
        "faults": {kind: faults[kind] for kind in sorted(faults)},
        "sim_first_ts": first_ts,
        "sim_last_ts": last_ts,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


#: Names the summary counts apart: a fault, and a span's two ends.
_NAMES = st.one_of(st.sampled_from(["fault.injected", "dns.resolve"]), _TEXT)


@st.composite
def _traces(draw):
    """A trace of up to four shards, some without events, whose rows come
    from both row strategies and are often faults."""
    indexes = draw(st.lists(st.integers(0, 6), unique=True, max_size=4))
    payloads = {}
    for index in indexes:
        rows = draw(st.lists(st.one_of(_rows(), _pool_rows()), max_size=8))
        rows = [row[:1] + (draw(_NAMES),) + row[2:] for row in rows]
        payloads[index] = fold_rows(rows, MetricsRegistry(), index)
    return TraceLog.from_shard_payloads(payloads)


class TestReader:
    """:func:`read_trace` and the consumers of its row stream."""

    @settings(max_examples=100, deadline=None)
    @given(trace=_traces(), batch=st.sampled_from([1, 2, 3, 4096]))
    def test_one_pass_consumers_match_the_references(self, trace, batch):
        # Small batches split shards, so a batch's first seq is not 0.
        text = trace.to_jsonl()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_module, "_BATCH", batch)
            assert jsonl_of(read_trace(text.splitlines(keepends=True))) == text
            summary = summarize(read_trace(io.StringIO(text)))
            assert json.dumps(summarize(trace.rows())) == json.dumps(summary)
        assert summary["digest"] == trace.digest()
        # Through JSON, so that NaN stamps compare equal.
        assert json.dumps(summary) == json.dumps(reference_summary(text))

    def test_interleaved_shards_are_rejected(self):
        # `write_jsonl` writes each shard's events as one run, so a shard
        # that comes back after another is a damaged or spliced file.
        chunks = {
            shard: reference_chunk(
                [(seq + 0.5, "x", KIND_INSTANT, 0, 0, "zid-7", "", "") for seq in range(4)],
                shard,
            ).splitlines(keepends=True)
            for shard in (0, 1)
        }
        text = "".join(chunks[0][:1] + chunks[1][:3] + chunks[0][1:] + chunks[1][3:])
        with pytest.raises(ValueError, match="^line 5: shard 0 follows shard 1"):
            list(read_trace(text.splitlines()))


class TestTraceDigest:
    @pytest.mark.parametrize("sizes", [(0, 1), (65_535, 65_537), (200_003, 131_072)])
    def test_digest_is_the_sha256_of_the_jsonl(self, sizes):
        # Chunks shorter than, straddling and spanning several of the
        # slices the digest encodes at a time, one of them not ASCII.
        trace = TraceLog.from_shard_payloads(
            {0: "a" * sizes[0] + "\n", 1: "\u00e9\U0001f600" * sizes[1] + "\n"}
        )
        expected = hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest()
        assert trace.digest() == expected


CHAOS_CONFIG = WorldConfig(
    scale=1.0,
    seed=17,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
    fault_profile="chaos",
    fault_seed=5,
)
CHAOS_COUNTRIES = (
    CountrySpec(code="AA", population=220),
    CountrySpec(code="BB", population=160),
)


@pytest.fixture(scope="module")
def recorded_chaos_shard():
    """Shard 0 of a traced two-shard chaos study, plus its live recorder."""
    spec = StudySpec(
        config=CHAOS_CONFIG, countries=CHAOS_COUNTRIES, seed=23, shards=2,
        window=40, obs="trace",
    )
    plans = partition_plans(compute_plans(build_world(CHAOS_CONFIG, CHAOS_COUNTRIES), spec), 2)
    shard_spec = make_shard_specs(spec.seed, spec.shards)[0]
    task = ShardTask(
        config=spec.config,
        countries=spec.countries,
        spec=shard_spec,
        plans=tuple((name, plans[0][name]) for name in EXPERIMENT_ORDER),
        retry=spec.retry,
        validity=spec.validity,
        obs=spec.obs,
    )
    recorders: list[TraceRecorder] = []

    class CapturingRecorder(TraceRecorder):
        __slots__ = ()

        def __init__(self, clock) -> None:
            super().__init__(clock)
            recorders.append(self)

    patch = pytest.MonkeyPatch()
    patch.setattr(runner, "TraceRecorder", CapturingRecorder)
    try:
        _datasets, metrics, payload = run_shard(task)
    finally:
        patch.undo()
    (recorder,) = recorders
    return task, metrics, payload, recorder.events


class TestOnePassMetrics:
    def test_shard_is_chaotic(self, recorded_chaos_shard):
        _task, _metrics, _payload, events = recorded_chaos_shard
        names = {event.name for event in events}
        assert "fault.injected" in names
        assert any(event.kind == KIND_END for event in events)

    def test_snapshot_equals_per_event_loop(self, recorded_chaos_shard):
        task, metrics, payload, events = recorded_chaos_shard
        expected = reference_registry_from_events(events, shard_registry(task, metrics))
        assert (
            json.dumps(payload["metrics"], sort_keys=True, separators=(",", ":"))
            == expected.snapshot_json()
        )

    def test_chunk_equals_per_event_encoding(self, recorded_chaos_shard):
        task, _metrics, payload, events = recorded_chaos_shard
        shard = task.spec.index
        assert payload["trace"] == "".join(
            reference_line(event, shard) + "\n" for event in events
        )
