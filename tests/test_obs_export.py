"""Exporter golden files and the ``repro trace`` CLI.

A small hand-built two-shard trace is pinned byte-for-byte in
``tests/fixtures/obs/``: the canonical JSONL, its Chrome trace-event form,
and the trace-derived metrics in both expositions.  Regenerate with::

    PYTHONPATH=src python -m tests.test_obs_export

after an intentional format change, and review the diff like a schema
migration — these bytes are what the digest contract is made of.
"""

from __future__ import annotations

import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.net.clock import SimClock
from repro.obs import (
    MetricsRegistry,
    TraceLog,
    TraceRecorder,
    fold_rows,
    read_trace,
    render_summary,
    summarize,
    write_trace,
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


#: Each golden file and the export format it pins.
GOLDENS = {
    "trace.jsonl": "jsonl",
    "trace_chrome.json": "chrome",
    "metrics.prom": "prom",
    "metrics_snapshot.json": "snapshot",
}


def export(rows, format: str) -> str:
    """:func:`write_trace`'s text as one string."""
    out = io.StringIO()
    write_trace(rows, format, out)
    return out.getvalue()


class TestGoldenFiles:
    def test_exports_match_goldens(self):
        # From the in-memory trace and from its file, as `repro trace` reads it.
        trace = build_fixture_trace()
        assert trace.to_jsonl() == (FIXTURES / "trace.jsonl").read_text(encoding="utf-8")
        for name, format in GOLDENS.items():
            golden = (FIXTURES / name).read_text(encoding="utf-8")
            assert export(trace.rows(), format) == golden, f"{name} drifted from its golden file"
            with open(FIXTURES / "trace.jsonl", encoding="utf-8") as handle:
                assert export(read_trace(handle), format) == golden, f"{name} from the file"

    def test_jsonl_roundtrips_through_parser(self):
        trace = build_fixture_trace()
        lines = trace.to_jsonl().splitlines(keepends=True)
        assert export(read_trace(lines), "jsonl") == trace.to_jsonl()
        assert summarize(read_trace(lines))["digest"] == trace.digest()

    @pytest.mark.parametrize(
        "edit, lineno, message",
        [
            # A row's seq is its position in the shard, so a trace with a
            # dropped line cannot be re-encoded faithfully.
            (lambda lines: lines[:2] + lines[3:], 3, "shard 0 event has seq 3, expected 2"),
            # Shard 1's first line moved ahead of shard 0's.
            (lambda lines: lines[8:9] + lines[:8] + lines[9:], 2, "shard 0 follows shard 1"),
            (lambda lines: lines[:5] + ['{"name":"x",\n'] + lines[5:], 6, "not a JSON object"),
            (lambda lines: lines[:1] + ["[1, 2]\n"] + lines[1:], 2, "not a JSON object"),
            (lambda lines: lines[:4] + [lines[4].replace(',"ts":', ',"stamp":')] + lines[5:],
             5, "event has no 'ts' field"),
        ],
        ids=["seq-gap", "shard-backwards", "not-json", "not-an-object", "no-ts"],
    )
    def test_parser_rejects_malformed_lines(self, edit, lineno, message):
        lines = edit(build_fixture_trace().to_jsonl().splitlines(keepends=True))
        with pytest.raises(ValueError, match=f"^line {lineno}: {message}"):
            list(read_trace(lines))


class TestChromeTrace:
    def test_loads_as_json_with_wellformed_events(self):
        trace = build_fixture_trace()
        payload = json.loads(export(trace.rows(), "chrome"))
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
        payload = json.loads(export(build_fixture_trace().rows(), "chrome"))
        for event in payload["traceEvents"]:
            assert (event["ph"] == "i") == ("s" in event)


class TestSummary:
    def test_render_summary_mentions_the_essentials(self):
        trace = build_fixture_trace()
        text = render_summary(summarize(trace.rows()))
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
        assert out.read_text(encoding="utf-8") == export(trace.rows(), "chrome")

    def test_export_to_stdout(self, tmp_path, capsys):
        trace = build_fixture_trace()
        src = tmp_path / "trace.jsonl"
        src.write_text(trace.to_jsonl(), encoding="utf-8")
        assert main(["trace", "export", str(src), "--format", "prom"]) == 0
        assert capsys.readouterr().out == export(trace.rows(), "prom")

    @pytest.mark.parametrize("command", ["summarize", "export"])
    def test_malformed_file_fails_in_one_line(self, tmp_path, capsys, command):
        lines = build_fixture_trace().to_jsonl().splitlines(keepends=True)
        src = tmp_path / "trace.jsonl"
        src.write_text("".join(lines[:3] + lines[4:]), encoding="utf-8")
        argv = ["trace", command, str(src)]
        if command == "export":
            argv += ["--format", "prom", "--out", str(tmp_path / "metrics.prom")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "trace: line 4: shard 0 event has seq 4, expected 3\n"
        # No export, complete or partial, is left behind.
        assert [path.name for path in tmp_path.iterdir()] == ["trace.jsonl"]


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    trace = build_fixture_trace()
    for name, format in GOLDENS.items():
        (FIXTURES / name).write_text(export(trace.rows(), format), encoding="utf-8")
        print(f"wrote {FIXTURES / name}")
