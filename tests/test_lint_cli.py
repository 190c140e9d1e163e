"""Reporter stability and the ``repro lint`` CLI subcommand."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.lint import (
    ALL_RULES,
    Baseline,
    BaselineEntry,
    BaselinePlaceholderError,
    Finding,
    LintConfig,
    LintEngine,
    load_baseline,
    render_json,
    render_text,
    write_baseline,
)
from repro.lint.baseline import PLACEHOLDER_JUSTIFICATION

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "lint"


def _findings(stem: str) -> list[Finding]:
    return LintEngine(LintConfig()).lint_file(FIXTURES / f"{stem}.py", FIXTURES)


def _justify_baseline(path: pathlib.Path, text: str = "reviewed: test fixture") -> None:
    """Replace every placeholder justification in a baseline file."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    for entry in payload["entries"]:
        entry["justification"] = text
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestReporters:
    def test_json_is_stable_and_parseable(self):
        findings = _findings("ster001_bad")
        first = render_json(findings)
        second = render_json(list(reversed(findings)))
        assert first == second  # sorted findings, sorted keys
        payload = json.loads(first)
        assert payload["version"] == 1
        assert payload["count"] == len(findings) == len(payload["findings"])
        assert payload["suppressed"] == 0 and payload["stale_baseline"] == []
        entry = payload["findings"][0]
        assert set(entry) == {"rule", "path", "line", "col", "symbol", "message"}

    def test_json_round_trips_fingerprints(self):
        findings = _findings("det002_bad")
        payload = json.loads(render_json(findings))
        rebuilt = [Finding(**f) for f in payload["findings"]]
        assert [f.fingerprint for f in rebuilt] == [f.fingerprint for f in findings]

    def test_text_contains_locations_and_summary(self):
        findings = _findings("safe002_bad")
        text = render_text(findings)
        assert "safe002_bad.py:" in text
        assert "SAFE002" in text
        assert text.rstrip().endswith(f"{len(findings)} finding(s)")

    def test_text_reports_stale_entries(self):
        stale = [BaselineEntry("DET001", "gone.py", "random.random", "obsolete")]
        text = render_text([], stale=stale)
        assert "stale baseline" in text
        assert "gone.py" in text


class TestBaselineRoundtrip:
    def test_write_then_split_suppresses_everything(self, tmp_path):
        findings = _findings("det001_bad")
        path = tmp_path / "baseline.json"
        write_baseline(findings, path, justification="reviewed: test fixture")
        new, suppressed, stale = load_baseline(path).split(findings)
        assert new == [] and stale == []
        assert len(suppressed) == len(findings)

    def test_placeholder_justification_rejected_at_load(self, tmp_path):
        # write_baseline stamps the placeholder by default; the strict
        # loader (every suppression path) must refuse it until a human
        # replaces the text.
        findings = _findings("det001_bad")
        path = tmp_path / "baseline.json"
        write_baseline(findings, path)
        with pytest.raises(BaselinePlaceholderError, match="placeholder"):
            load_baseline(path)
        # The lenient load the write/prune fixers use still works.
        lenient = load_baseline(path, strict=False)
        assert len(lenient.entries) > 0
        assert all(
            e.justification == PLACEHOLDER_JUSTIFICATION for e in lenient.entries
        )

    def test_blank_justification_rejected_at_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({
                "version": 1,
                "entries": [{
                    "rule": "DET001", "path": "x.py",
                    "symbol": "random.random", "justification": "   ",
                }],
            }),
            encoding="utf-8",
        )
        with pytest.raises(BaselinePlaceholderError, match="DET001:x.py"):
            load_baseline(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == Baseline()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    def test_stale_detection(self):
        baseline = Baseline(
            entries=(BaselineEntry("STER001", "gone.py", "socket", "why"),)
        )
        new, suppressed, stale = baseline.split(_findings("ster001_good"))
        assert new == [] and suppressed == []
        assert [e.path for e in stale] == ["gone.py"]


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys):
        code = main([
            "lint", "ster001_good.py", "det002_good.py", "--root", str(FIXTURES),
        ])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, capsys):
        code = main(["lint", "ster001_bad.py", "--root", str(FIXTURES)])
        assert code == 1
        out = capsys.readouterr().out
        assert "STER001" in out and "ster001_bad.py:" in out

    def test_json_format(self, capsys):
        code = main([
            "lint", "det001_bad.py", "--root", str(FIXTURES), "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] > 0
        assert {f["rule"] for f in payload["findings"]} == {"DET001"}

    def test_write_baseline_then_justify_then_clean(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", "safe001_bad.py", "--root", str(FIXTURES),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        assert baseline.is_file()
        # Fresh entries carry the placeholder; they only suppress once a
        # human has replaced it (see TestExitCodeContract for the refusal).
        _justify_baseline(baseline)
        capsys.readouterr()
        code = main([
            "lint", "safe001_bad.py", "--root", str(FIXTURES),
            "--baseline", str(baseline),
        ])
        assert code == 0
        assert "baselined" in capsys.readouterr().out

    def test_stale_baseline_fails(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({
                "version": 1,
                "entries": [{
                    "rule": "STER001", "path": "gone.py",
                    "symbol": "socket", "justification": "obsolete",
                }],
            }),
            encoding="utf-8",
        )
        code = main([
            "lint", ".", "--root", str(FIXTURES),
            "--baseline", str(baseline),
        ])
        assert code == 1
        assert "stale" in capsys.readouterr().out

    def test_subtree_scan_ignores_out_of_scope_baseline(self, capsys, tmp_path):
        # A restricted scan must not flag baseline entries for files it
        # never visited (otherwise `repro lint <subtree>` always fails).
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({
                "version": 1,
                "entries": [{
                    "rule": "STER001", "path": "elsewhere/gone.py",
                    "symbol": "socket", "justification": "obsolete",
                }],
            }),
            encoding="utf-8",
        )
        code = main([
            "lint", "ster001_good.py", "--root", str(FIXTURES),
            "--baseline", str(baseline),
        ])
        assert code == 0
        assert "stale" not in capsys.readouterr().out

    def test_repo_default_invocation_is_clean(self, capsys):
        root = pathlib.Path(__file__).resolve().parents[1]
        code = main(["lint", "--root", str(root), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0


class TestExitCodeContract:
    """0 = clean, 1 = findings/stale, 2 = internal error — never a traceback."""

    def test_unparseable_target_is_a_finding_not_exit_two(self, capsys):
        root = FIXTURES / "program" / "parse_err"
        code = main(["lint", ".", "--root", str(root), "--no-cache"])
        assert code == 1
        out = capsys.readouterr().out
        assert "PARSE001" in out and "broken.py" in out

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        import repro.lint as lint_pkg

        class _Boom:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("deliberate analyzer failure")

        monkeypatch.setattr(lint_pkg, "ProgramAnalyzer", _Boom)
        code = main(["lint", "--root", str(FIXTURES)])
        assert code == 2
        assert "internal error" in capsys.readouterr().err

    def test_placeholder_baseline_exits_two(self, capsys, tmp_path):
        # An unjustified baseline is a config error, not findings: exit 2
        # with the offending fingerprints, so CI can't mistake a silently
        # unreviewed suppression file for a clean (or merely dirty) tree.
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", "safe001_bad.py", "--root", str(FIXTURES),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        capsys.readouterr()
        code = main([
            "lint", "safe001_bad.py", "--root", str(FIXTURES),
            "--baseline", str(baseline),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "placeholder justification" in err
        assert "SAFE001" in err

    def test_debug_reraises_internal_errors(self, monkeypatch):
        import repro.lint as lint_pkg

        class _Boom:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("deliberate analyzer failure")

        monkeypatch.setattr(lint_pkg, "ProgramAnalyzer", _Boom)
        with pytest.raises(RuntimeError, match="deliberate"):
            main(["lint", "--debug", "--root", str(FIXTURES)])


class TestPruneBaseline:
    def test_prune_removes_stale_entries_and_exits_clean(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({
                "version": 1,
                "entries": [{
                    "rule": "STER001", "path": "gone.py",
                    "symbol": "socket", "justification": "obsolete",
                }],
            }),
            encoding="utf-8",
        )
        code = main([
            "lint", "ster001_good.py", "det002_good.py", "--root", str(FIXTURES),
            "--baseline", str(baseline), "--prune-baseline", "--no-cache",
        ])
        assert code == 0
        assert "pruned 1 stale" in capsys.readouterr().err
        assert load_baseline(baseline).entries == ()


class TestSarifOutput:
    def test_sarif_report_carries_code_flows(self, capsys, tmp_path):
        root = FIXTURES / "program" / "flow_cross"
        sarif_path = tmp_path / "out" / "lint.sarif"
        code = main([
            "lint", ".", "--root", str(root),
            "--sarif", str(sarif_path), "--no-cache",
        ])
        assert code == 1
        payload = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        rule_ids = [r["id"] for r in rules]
        assert {"DET100", "RACE001", "PARSE001"} <= set(rule_ids)
        # Five ids share the ImportBan class; SARIF consumers key on ids.
        for rule in ALL_RULES:
            assert rule_ids.count(rule.rule_id) == 1, rule.rule_id
        for entry in rules:
            assert entry["shortDescription"]["text"], entry["id"]
            assert entry["fullDescription"]["text"], entry["id"]
        flow_results = [r for r in run["results"] if r["ruleId"] == "DET100"]
        assert flow_results, "expected the cross-module flow in the SARIF report"
        thread = flow_results[0]["codeFlows"][0]["threadFlows"][0]["locations"]
        uris = [
            loc["location"]["physicalLocation"]["artifactLocation"]["uri"]
            for loc in thread
        ]
        assert "timesrc.py" in uris and "writer.py" in uris

    def test_parallel_jobs_cli_matches_serial(self, capsys):
        root = FIXTURES / "program" / "flow_cross"
        assert main(["lint", ".", "--root", str(root), "--no-cache"]) == 1
        serial_out = capsys.readouterr().out
        assert main([
            "lint", ".", "--root", str(root), "--no-cache", "--jobs", "2",
        ]) == 1
        assert capsys.readouterr().out == serial_out
