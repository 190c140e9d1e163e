"""Exporter golden files and the ``repro trace`` CLI.

A small hand-built two-shard trace is pinned byte-for-byte in
``tests/fixtures/obs/``: the canonical JSONL, its Chrome trace-event form,
and the trace-derived metrics in both expositions.  Regenerate with::

    PYTHONPATH=src python -m tests.test_obs_export

after an intentional format change, and review the diff like a schema
migration — these bytes are what the digest contract is made of.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.net.clock import SimClock
from repro.obs import (
    MetricsRegistry,
    TraceLog,
    TraceRecorder,
    chrome_trace,
    chrome_trace_json,
    export_trace,
    fold_rows,
    registry_from_trace,
    render_summary,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "obs"


def build_fixture_trace() -> TraceLog:
    """Two shards of representative traffic: spans, faults, nesting."""
    payloads = {}
    for shard, stall in ((0, False), (1, True)):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        with recorder.span("shard.run", actor="engine", attrs={"shard": shard}):
            with recorder.span("proxy.request", actor="superproxy", target="z1",
                               detail="http://a.aa/"):
                with recorder.span("dns.resolve", actor="z1", target="a.aa"):
                    clock.advance(0.12)
                    recorder.event("dns.answer", actor="z1", target="a.aa",
                                   attrs={"rcode": 0, "answers": 1})
                if stall:
                    recorder.event("fault.injected", actor="z1", detail="stall",
                                   attrs={"kind": "stall", "seconds": 30})
                    clock.advance(30.0)
                clock.advance(0.4)
                recorder.event("proxy.result", actor="superproxy", target="z1",
                               detail="ok", attrs={"status": 200})
        payloads[shard] = fold_rows(recorder.rows, MetricsRegistry(), shard)
    return TraceLog.from_shard_payloads(payloads)


GOLDENS = {
    "trace.jsonl": lambda t: t.to_jsonl(),
    "trace_chrome.json": chrome_trace_json,
    "metrics.prom": lambda t: registry_from_trace(t).prometheus_text(),
    "metrics_snapshot.json": lambda t: registry_from_trace(t).snapshot_json() + "\n",
}


class TestGoldenFiles:
    def test_exports_match_goldens(self):
        trace = build_fixture_trace()
        for name, render in GOLDENS.items():
            golden = (FIXTURES / name).read_text(encoding="utf-8")
            assert render(trace) == golden, f"{name} drifted from its golden file"

    def test_export_trace_dispatch_matches_goldens(self):
        trace = build_fixture_trace()
        for format, name in (
            ("jsonl", "trace.jsonl"),
            ("chrome", "trace_chrome.json"),
            ("prom", "metrics.prom"),
            ("snapshot", "metrics_snapshot.json"),
        ):
            golden = (FIXTURES / name).read_text(encoding="utf-8")
            assert export_trace(trace, format) == golden

    def test_jsonl_roundtrips_through_parser(self):
        trace = build_fixture_trace()
        reparsed = TraceLog.from_jsonl(trace.to_jsonl())
        assert reparsed == trace
        assert reparsed.digest() == trace.digest()

    def test_parser_rejects_lines_out_of_seq_order(self):
        # A row's seq is its position in the shard, so a trace with a
        # dropped or reordered line cannot be re-encoded faithfully.
        lines = build_fixture_trace().to_jsonl().splitlines(keepends=True)
        with pytest.raises(ValueError, match="seq"):
            TraceLog.from_jsonl("".join(lines[:2] + lines[3:]))


class TestChromeTrace:
    def test_loads_as_json_with_wellformed_events(self):
        trace = build_fixture_trace()
        payload = json.loads(chrome_trace_json(trace))
        events = payload["traceEvents"]
        assert len(events) == len(trace)
        assert {e["ph"] for e in events} <= {"B", "E", "i"}
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends)
        assert {e["pid"] for e in events} == {0, 1}
        # Simulated seconds become microseconds.
        answer = next(e for e in events if e["name"] == "dns.answer")
        assert answer["ts"] == pytest.approx(0.12e6)
        assert answer["args"]["rcode"] == "0"

    def test_instants_carry_scope(self):
        payload = chrome_trace(build_fixture_trace())
        for event in payload["traceEvents"]:
            assert (event["ph"] == "i") == ("s" in event)


class TestSummary:
    def test_render_summary_mentions_the_essentials(self):
        trace = build_fixture_trace()
        text = render_summary(trace.summarize())
        assert "6 spans" in text
        assert "fault.injected" in text
        assert "stall=1" in text
        assert trace.digest() in text


class TestTraceCli:
    def test_summarize(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(build_fixture_trace().to_jsonl(), encoding="utf-8")
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shard(s)" in out and "digest:" in out

    def test_export_to_file(self, tmp_path, capsys):
        trace = build_fixture_trace()
        src = tmp_path / "trace.jsonl"
        src.write_text(trace.to_jsonl(), encoding="utf-8")
        out = tmp_path / "chrome.json"
        assert main(
            ["trace", "export", str(src), "--format", "chrome", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == chrome_trace(trace)

    def test_export_to_stdout(self, tmp_path, capsys):
        trace = build_fixture_trace()
        src = tmp_path / "trace.jsonl"
        src.write_text(trace.to_jsonl(), encoding="utf-8")
        assert main(["trace", "export", str(src), "--format", "prom"]) == 0
        assert capsys.readouterr().out == registry_from_trace(trace).prometheus_text()


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    trace = build_fixture_trace()
    for name, render in GOLDENS.items():
        (FIXTURES / name).write_text(render(trace), encoding="utf-8")
        print(f"wrote {FIXTURES / name}")
