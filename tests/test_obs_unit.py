"""Unit tests for the observability plane: events, recorders, metrics.

The bus is the simulation's flight recorder, so the properties under test
are the determinism primitives: frozen events with canonical attrs, strict
sequence/nesting bookkeeping in the recorder, and a metrics merge that is
associative and shard-order independent.
"""

import dataclasses
import io
import json

import pytest

from repro.net.clock import SimClock
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_RECORDER,
    Event,
    KIND_BEGIN,
    KIND_END,
    KIND_INSTANT,
    MetricsRegistry,
    NullRecorder,
    ProfilingChannel,
    TraceLog,
    TraceRecorder,
    encode_line,
    fold_rows,
    freeze_attrs,
    write_trace,
)
from repro.obs.trace import row_from_record
from repro.tracing import Timeline


class TestEvent:
    def test_frozen(self):
        event = Event(ts=1.0, seq=0, name="x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.name = "y"

    def test_attrs_canonicalized(self):
        assert freeze_attrs({"b": 2, "a": "one"}) == ("a", "one", "b", "2")
        assert freeze_attrs(None) == ()
        assert freeze_attrs({}) == ()

    def test_line_omits_defaults(self):
        row = (2.5, "dns.answer", KIND_INSTANT, 0, 0, "", "", "")
        assert json.loads(encode_line(row, 3, 0)) == {
            "ts": 2.5, "seq": 3, "shard": 0, "name": "dns.answer",
        }

    def test_roundtrip(self):
        event = Event(
            ts=7.25, seq=11, name="proxy.request", kind=KIND_BEGIN,
            span=4, parent=2, actor="superproxy", target="z42",
            detail="http://a.aa/", attrs=(("status", "200"),),
        )
        row = (7.25, "proxy.request", KIND_BEGIN, 4, 2, "superproxy", "z42",
               "http://a.aa/", "status", "200")
        assert Event.from_row(11, row) == event
        record = json.loads(encode_line(row, 11, 0))
        assert record["seq"] == 11
        assert row_from_record(record) == row

    def test_attr_lookup(self):
        event = Event(ts=0.0, seq=0, name="f", attrs=(("kind", "stall"),))
        assert event.attr("kind") == "stall"
        assert event.attr("missing") is None


class TestTraceRecorder:
    def test_sequence_is_total_order_even_with_frozen_clock(self):
        recorder = TraceRecorder(SimClock())
        for name in ("a", "b", "c"):
            recorder.event(name)
        assert [e.seq for e in recorder.events] == [0, 1, 2]
        assert all(e.ts == 0.0 for e in recorder.events)

    def test_span_nesting_and_parents(self):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        with recorder.span("outer"):
            clock.advance(1.0)
            recorder.event("inside")
            with recorder.span("inner"):
                clock.advance(2.0)
        recorder.event("after")

        kinds = [(e.name, e.kind, e.span, e.parent) for e in recorder.events]
        assert kinds == [
            ("outer", KIND_BEGIN, 1, 0),
            ("inside", KIND_INSTANT, 0, 1),
            ("inner", KIND_BEGIN, 2, 1),
            ("inner", KIND_END, 2, 1),
            ("outer", KIND_END, 1, 0),
            ("after", KIND_INSTANT, 0, 0),
        ]
        begin = recorder.events[2]
        end = recorder.events[3]
        assert end.ts - begin.ts == 2.0

    def test_span_end_names_the_exception(self):
        recorder = TraceRecorder(SimClock())
        with pytest.raises(ValueError):
            with recorder.span("risky"):
                raise ValueError("boom")
        end = recorder.events[-1]
        assert end.kind == KIND_END
        assert end.attr("error") == "ValueError"

    def test_clear_resets_counters(self):
        recorder = TraceRecorder(SimClock())
        with recorder.span("s"):
            recorder.event("e")
        recorder.clear()
        assert recorder.events == ()
        recorder.event("fresh")
        assert recorder.events[0].seq == 0


class TestNullRecorder:
    def test_records_nothing(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.events == ()
        NULL_RECORDER.event("ignored", actor="a", attrs={"k": 1})
        with NULL_RECORDER.span("ignored"):
            pass
        assert NULL_RECORDER.events == ()

    def test_span_context_manager_is_shared(self):
        recorder = NullRecorder()
        assert recorder.span("a") is recorder.span("b")


def _registry_a() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("nodes_total", 3, experiment="dns")
    registry.counter("nodes_total", 1, experiment="http")
    registry.gauge("sim_seconds", 40.0, shard=0)
    registry.histogram("latency_seconds", 0.2)
    registry.histogram("latency_seconds", 10.0)
    return registry


def _registry_b() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("nodes_total", 2, experiment="dns")
    registry.gauge("sim_seconds", 35.0, shard=0)
    registry.histogram("latency_seconds", 5000.0)
    return registry


def _registry_c() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("retries_total", 7)
    registry.gauge("sim_seconds", 62.0, shard=1)
    return registry


class TestMetricsRegistry:
    def test_merge_semantics(self):
        merged = MetricsRegistry.merge_all([_registry_a(), _registry_b()])
        payload = merged.to_dict()
        dns = payload["nodes_total"]["samples"][0]
        assert dns["labels"] == [["experiment", "dns"]]
        assert dns["value"] == 5.0
        assert payload["sim_seconds"]["samples"][0]["value"] == 40.0  # max
        hist = payload["latency_seconds"]["samples"][0]["value"]
        assert hist[-2] == 3  # count
        assert hist[-1] == 5010.2  # sum
        assert hist[len(DEFAULT_BUCKETS)] == 1  # overflow bucket (5000 s)

    def test_merge_is_associative_and_shard_order_independent(self):
        import itertools

        parts = [_registry_a, _registry_b, _registry_c]
        snapshots = set()
        for order in itertools.permutations(parts):
            merged = MetricsRegistry.merge_all(make() for make in order)
            snapshots.add(merged.snapshot_json())
        left = MetricsRegistry.merge_all(
            [MetricsRegistry.merge_all([_registry_a(), _registry_b()]), _registry_c()]
        )
        right = MetricsRegistry.merge_all(
            [_registry_a(), MetricsRegistry.merge_all([_registry_b(), _registry_c()])]
        )
        snapshots.add(left.snapshot_json())
        snapshots.add(right.snapshot_json())
        assert len(snapshots) == 1

    def test_label_named_name_does_not_collide(self):
        # The metric name and amount are positional-only, so "name" (and
        # "amount") are usable as label keys; "help" stays a keyword.
        registry = MetricsRegistry()
        registry.counter("events_total", 1, help="x", name="dns.answer", amount="9")
        entry = registry.to_dict()["events_total"]
        assert entry["help"] == "x"
        assert entry["samples"][0]["labels"] == [
            ["amount", "9"], ["name", "dns.answer"],
        ]

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n", -1)

    def test_type_and_bucket_mismatches_rejected(self):
        registry = MetricsRegistry()
        registry.counter("n", 1)
        with pytest.raises(ValueError):
            registry.gauge("n", 2.0)
        registry.histogram("h", 1.0, buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", 1.0, buckets=(1.0, 3.0))

    def test_roundtrip(self):
        registry = MetricsRegistry.merge_all([_registry_a(), _registry_c()])
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.snapshot_json() == registry.snapshot_json()
        assert clone.prometheus_text() == registry.prometheus_text()

    def test_prometheus_exposition_shape(self):
        text = _registry_a().prometheus_text()
        assert '# TYPE nodes_total counter' in text
        assert 'nodes_total{experiment="dns"} 3' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert 'latency_seconds_count 2' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", 1, reason='6x "timeout"\\slow')
        assert 'reason="6x \\"timeout\\"\\\\slow"' in registry.prometheus_text()


class TestRegistryFromEvents:
    def test_derives_counts_faults_and_span_durations(self):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        with recorder.span("dns.resolve"):
            clock.advance(0.5)
            recorder.event("fault.injected", attrs={"kind": "stall"})
        recorder.event("fault.injected", attrs={"kind": "stall"})

        registry = MetricsRegistry()
        assert fold_rows(recorder.rows, registry) is None
        payload = registry.to_dict()
        events_by_name = {
            tuple(s["labels"][0]): s["value"]
            for s in payload["obs_events_total"]["samples"]
        }
        assert events_by_name[("name", "dns.resolve")] == 2.0  # begin + end
        assert events_by_name[("name", "fault.injected")] == 2.0
        faults = payload["obs_faults_total"]["samples"][0]
        assert faults["labels"] == [["kind", "stall"]]
        assert faults["value"] == 2.0
        hist = payload["obs_span_seconds"]["samples"][0]["value"]
        assert hist[-2] == 1 and hist[-1] == 0.5

    def test_trace_file_derivation_matches_live_rows(self):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        with recorder.span("s"):
            clock.advance(0.3)
            recorder.event("fault.injected", attrs={"kind": "reset"})
        live = MetricsRegistry()
        chunk = fold_rows(recorder.rows, live, 0)
        out = io.StringIO()
        write_trace(TraceLog.from_shard_payloads({0: chunk}).rows(), "snapshot", out)
        assert out.getvalue() == live.snapshot_json() + "\n"


class TestProfilingChannel:
    def test_disabled_channel_records_nothing(self):
        channel = ProfilingChannel(enabled=False)
        channel.note("cache.lookup", hits=1)
        with channel.section("merge"):
            pass
        assert channel.notes == ()
        assert channel.total_seconds() is None

    def test_enabled_channel_labels_sections(self):
        channel = ProfilingChannel()
        channel.note("cache.lookup", hits=2)
        with channel.section("merge"):
            pass
        labels = [note["label"] for note in channel.notes]
        assert labels == ["cache.lookup", "merge"]
        assert channel.notes[0]["hits"] == 2
        assert "wall_seconds" in channel.notes[1]
        assert channel.to_dict()["clock"] == "wall"


class TestTimelineOverBus:
    def test_timeline_is_a_view_over_figure_step_events(self):
        timeline = Timeline(title="Handshake")
        timeline.add("client", "hello", target="server", detail="v1")
        timeline.add("server", "ack")
        assert len(timeline) == 2
        assert timeline.labels()[0].startswith("client")
        assert timeline.actors() == ["client", "server"]
        assert timeline.bus.events[0].name == "figure.step"
        assert timeline.bus.events[0].attr("action") == "hello"
        rendered = timeline.render()
        assert "Handshake" in rendered and "(1) client -> server: hello" in rendered

    def test_timeline_record_is_frozen(self):
        timeline = Timeline(title="T")
        with pytest.raises(dataclasses.FrozenInstanceError):
            timeline.title = "U"
