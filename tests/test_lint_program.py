"""Whole-program analysis: call graph, taint flows, races, path traces.

Each fixture under ``tests/fixtures/lint/program/`` is a miniature project
linted with its own directory as the root, so module names and relpaths stay
one-component and the expectations stay readable.
"""

from __future__ import annotations

import ast
import pathlib

from repro.lint import LintConfig, ProgramAnalyzer, render_text
from repro.lint.program import build_module_summary, module_name_for

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint" / "program"


def _analyze(name: str):
    root = FIXTURES / name
    analyzer = ProgramAnalyzer(LintConfig.default(), use_cache=False)
    return analyzer.lint_paths([root], root=root)


def _rules(result) -> set[str]:
    return {f.rule for f in result.findings}


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/engine/study.py") == "repro.engine.study"

    def test_init_collapses_to_package(self):
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"

    def test_bare_module(self):
        assert module_name_for("writer.py") == "writer"


class TestFlowRules:
    def test_cross_module_wallclock_flow_is_det100(self):
        result = _analyze("flow_cross")
        flows = [f for f in result.findings if f.rule == "DET100"]
        assert len(flows) == 1
        finding = flows[0]
        assert finding.path == "writer.py"
        assert finding.symbol == "time.time->stable_digest"
        # The trace must tell the whole cross-module story.
        trace_paths = [step.path for step in finding.trace]
        assert "timesrc.py" in trace_paths and "writer.py" in trace_paths
        assert "flows into sink stable_digest" in finding.trace[-1].note

    def test_via_call_edge_rng_flow_is_det101(self):
        result = _analyze("flow_call")
        flows = [f for f in result.findings if f.rule == "DET101"]
        assert len(flows) == 1
        finding = flows[0]
        # The sink is in sink_mod.py even though the source is in driver.py.
        assert finding.path == "sink_mod.py"
        assert finding.symbol.startswith("random.random->")
        notes = " | ".join(step.note for step in finding.trace)
        assert "passed as argument 'value' to record()" in notes

    def test_env_flow_via_return_edge_is_det102(self):
        result = _analyze("flow_env")
        flows = [f for f in result.findings if f.rule == "DET102"]
        assert len(flows) == 1
        finding = flows[0]
        assert finding.path == "publish.py"
        assert finding.symbol == "os.environ->run_digest"
        notes = " | ".join(step.note for step in finding.trace)
        assert "value returned from load()" in notes

    def test_set_order_flow_is_det103(self):
        result = _analyze("flow_setorder")
        flows = [f for f in result.findings if f.rule == "DET103"]
        assert len(flows) == 1
        assert "list" in flows[0].trace[0].note

    def test_seeded_rng_and_sorted_sanitize(self):
        result = _analyze("flow_neg")
        assert not {"DET100", "DET101", "DET102", "DET103"} & _rules(result)


class TestRaceRules:
    def test_worker_reachable_mutation_and_cache(self):
        result = _analyze("race_pos")
        race1 = [f for f in result.findings if f.rule == "RACE001"]
        race2 = [f for f in result.findings if f.rule == "RACE002"]
        assert len(race1) == 1
        assert race1[0].symbol == "_CACHE@work"
        assert "worker entrypoint" in race1[0].trace[0].note
        assert len(race2) == 1
        assert race2[0].symbol == "expensive"

    def test_read_only_globals_and_locals_are_clean(self):
        result = _analyze("race_neg")
        assert not {"RACE001", "RACE002"} & _rules(result)

    def test_caches_behind_a_same_module_class_are_race002(self):
        # The worker builds a class defined in its own module and calls a
        # method on the local holding the instance; each path reaches a cache.
        result = _analyze("race_class")
        race2 = {f.symbol: [step.note for step in f.trace] for f in result.findings
                 if f.rule == "RACE002"}
        assert sorted(race2) == ["corpus", "layout"]
        assert "called from __init__()" in race2["corpus"]
        assert "called from build()" in race2["layout"]

    def test_shared_column_array_mutation_is_race001(self):
        # The columnar world's array-backed columns are shared with worker
        # processes; mutating one from a worker-reachable function must be
        # flagged, read-only access must not.
        result = _analyze("race_array")
        race1 = [f for f in result.findings if f.rule == "RACE001"]
        assert len(race1) == 1
        assert race1[0].symbol == "_IP_COLUMN@work"


    def test_engine_hands_both_shard_entry_points_to_the_pool(self):
        # RACE001/RACE002 start from the names passed to pool.run, so every
        # entry point a study can execute a shard through must be one.
        relpath = "src/repro/engine/study.py"
        tree = ast.parse((ROOT / relpath).read_text(encoding="utf-8"))
        summary = build_module_summary(tree, relpath, LintConfig.default())
        assert sorted(summary.worker_entries) == [
            "repro.engine.runner.execute_shard",
            "repro.engine.runner.execute_shard_live",
        ]


class TestParseErrors:
    def test_unparseable_file_is_a_finding_not_a_crash(self):
        result = _analyze("parse_err")
        parse = [f for f in result.findings if f.rule == "PARSE001"]
        assert len(parse) == 1
        assert parse[0].path == "broken.py"
        assert parse[0].symbol == "syntax-error"


class TestGoldenTrace:
    def test_flow_cross_text_report_matches_golden(self):
        result = _analyze("flow_cross")
        flows = [f for f in result.findings if f.rule == "DET100"]
        rendered = render_text(flows)
        golden = (FIXTURES / "golden" / "flow_cross.txt").read_text(encoding="utf-8")
        assert rendered == golden


class TestDeterminismOfTheAnalyzerItself:
    def test_two_runs_are_identical(self):
        first = _analyze("flow_cross")
        second = _analyze("flow_cross")
        assert [f.as_dict() for f in first.findings] == [
            f.as_dict() for f in second.findings
        ]

    def test_parallel_jobs_match_serial(self):
        root = FIXTURES / "flow_cross"
        serial = ProgramAnalyzer(
            LintConfig.default(), use_cache=False, jobs=1
        ).lint_paths([root], root=root)
        parallel = ProgramAnalyzer(
            LintConfig.default(), use_cache=False, jobs=2
        ).lint_paths([root], root=root)
        assert [f.as_dict() for f in serial.findings] == [
            f.as_dict() for f in parallel.findings
        ]
