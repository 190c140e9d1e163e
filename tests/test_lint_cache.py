"""The incremental analysis cache: warm hits, invalidation, robustness.

The property that matters most: a warm run must produce byte-identical
findings to a cold run — including whole-program flow findings whose source
and sink live in *different* files — because the interprocedural passes
always re-run over the cached summaries.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.lint import LintConfig, ProgramAnalyzer
from repro.lint.program import DEFAULT_CACHE_DIRNAME

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "lint" / "program"


@pytest.fixture()
def project(tmp_path):
    """A mutable copy of the cross-module flow fixture."""
    root = tmp_path / "proj"
    shutil.copytree(FIXTURES / "flow_cross", root)
    return root


def _analyzer(root, **kwargs):
    return ProgramAnalyzer(LintConfig.default(), **kwargs)


def _run(root, **kwargs):
    return _analyzer(root, **kwargs).lint_paths([root], root=root)


def _dicts(result):
    return [f.as_dict() for f in result.findings]


def test_warm_run_serves_every_file_from_cache(project):
    cold = _run(project)
    assert cold.stats["parsed"] == cold.stats["files"] > 0
    warm = _run(project)
    assert warm.stats["cached"] == warm.stats["files"]
    assert warm.stats["parsed"] == 0
    assert _dicts(warm) == _dicts(cold)


def test_editing_one_file_reparses_only_that_file(project):
    _run(project)
    source = project / "timesrc.py"
    source.write_text(
        source.read_text(encoding="utf-8").replace(
            "time.time()", "time.monotonic()"
        ),
        encoding="utf-8",
    )
    warm = _run(project)
    assert warm.stats["parsed"] == 1
    assert warm.stats["cached"] == warm.stats["files"] - 1
    # The flow finding lives in writer.py (served from cache) but must
    # still reflect the edit in timesrc.py: global passes re-run always.
    flows = [f for f in warm.findings if f.rule == "DET100"]
    assert len(flows) == 1
    assert flows[0].trace[0].note == "wall-clock read time.monotonic()"


def test_touch_without_content_change_stays_warm(project):
    _run(project)
    source = project / "timesrc.py"
    source.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    warm = _run(project)
    # mtime changed, SHA did not: the hash fallback keeps the entry warm.
    assert warm.stats["parsed"] == 0


def test_config_change_invalidates_the_cache(project):
    _run(project)
    altered = LintConfig(flow_sinks=("stable_digest", "extra_sink"))
    warm = ProgramAnalyzer(altered).lint_paths([project], root=project)
    assert warm.stats["parsed"] == warm.stats["files"]


def test_analyzer_version_change_invalidates_the_cache(project, monkeypatch):
    # A cache written by another analyzer version must not serve its
    # findings: rule ids and config can match while the rules changed.
    monkeypatch.setattr("repro.lint.program.analyzer.ANALYZER_VERSION", "older")
    _run(project)
    monkeypatch.undo()
    warm = _run(project)
    assert warm.stats["parsed"] == warm.stats["files"] > 0


def test_corrupt_cache_degrades_to_cold_run(project):
    _run(project)
    cache_file = project / DEFAULT_CACHE_DIRNAME / "cache.json"
    cache_file.write_text("{ not json", encoding="utf-8")
    warm = _run(project)
    assert warm.stats["parsed"] == warm.stats["files"]
    assert [f.rule for f in warm.findings if f.rule == "DET100"] == ["DET100"]


def test_no_cache_leaves_no_directory(project):
    result = _run(project, use_cache=False)
    assert result.stats["cached"] == 0
    assert not (project / DEFAULT_CACHE_DIRNAME).exists()


def test_explicit_cache_dir_is_honored(project, tmp_path):
    elsewhere = tmp_path / "cachehome"
    _run(project, cache_dir=elsewhere)
    assert (elsewhere / "cache.json").is_file()
    warm = _run(project, cache_dir=elsewhere)
    assert warm.stats["cached"] == warm.stats["files"]


def test_cache_file_is_deterministic_json(project):
    _run(project)
    cache_file = project / DEFAULT_CACHE_DIRNAME / "cache.json"
    first = cache_file.read_text(encoding="utf-8")
    payload = json.loads(first)
    assert set(payload) == {"signature", "files"}
    _run(project)
    assert cache_file.read_text(encoding="utf-8") == first
