"""Fixture-driven tests: every rule fires on bad code, stays silent on good.

Each rule has a ``<ruleid>_bad.py`` / ``<ruleid>_good.py`` pair under
``tests/fixtures/lint/``.  The bad file must produce at least the expected
findings *for that rule and no other*; the good file must produce no
findings at all (near-misses are part of the point).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import LintConfig, LintEngine

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "lint"

#: (rule id, fixture stem, expected symbols in the bad file).
CASES = [
    ("STER001", "ster001", {
        "socket", "urllib.request", "http.client", "ssl", "subprocess",
    }),
    ("DET001", "det001", {
        "random.choice", "random.random", "random.Random()",
    }),
    ("DET002", "det002", {
        "time.monotonic", "time.time", "time.perf_counter", "time.sleep",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    }),
    ("DET003", "det003", {
        "list(set)", "join(set)", "for-in-set", "sample(set)",
    }),
    ("SAFE001", "safe001", {"collect", "index", "tag", "build"}),
    ("SAFE002", "safe002", {
        "bare-except", "except-Exception", "except-BaseException",
    }),
    ("SIM001", "sim001", {"Answer", "Header"}),
]


def fixture_engine() -> LintEngine:
    """An engine whose SIM001 record modules include the sim001 fixtures."""
    config = LintConfig(record_modules=("*sim001_*.py",))
    return LintEngine(config)


@pytest.mark.parametrize("rule_id,stem,symbols", CASES, ids=[c[0] for c in CASES])
class TestRuleFixtures:
    def test_bad_fixture_fires(self, rule_id, stem, symbols):
        findings = fixture_engine().lint_file(FIXTURES / f"{stem}_bad.py", FIXTURES)
        assert findings, f"{rule_id}: bad fixture produced no findings"
        assert {f.rule for f in findings} == {rule_id}, (
            f"{stem}_bad.py should only trip {rule_id}: {findings}"
        )
        assert {f.symbol for f in findings} == symbols
        assert all(f.line > 0 for f in findings)
        assert all(f.path == f"{stem}_bad.py" for f in findings)

    def test_good_fixture_is_silent(self, rule_id, stem, symbols):
        findings = fixture_engine().lint_file(FIXTURES / f"{stem}_good.py", FIXTURES)
        assert findings == [], f"{stem}_good.py should be clean: {findings}"


class TestEngineMechanics:
    def test_findings_sorted_and_deterministic(self):
        engine = fixture_engine()
        once = engine.lint_paths([FIXTURES], root=FIXTURES)
        twice = engine.lint_paths([FIXTURES], root=FIXTURES)
        assert once == twice
        assert once == sorted(once, key=lambda f: f.sort_key)

    def test_allowlist_suppresses(self):
        config = LintConfig(allow={"STER001": ("*ster001_bad.py",)})
        findings = LintEngine(config).lint_file(
            FIXTURES / "ster001_bad.py", FIXTURES
        )
        assert findings == []

    def test_select_restricts_rules(self):
        config = LintConfig(select=("DET002",))
        engine = LintEngine(config)
        findings = engine.lint_paths([FIXTURES], root=FIXTURES)
        rules = {f.rule for f in findings}
        assert "DET002" in rules
        # PARSE001 is exempt from --select: an unparseable file (the
        # program/parse_err fixture) cannot be checked for DET002 either.
        assert rules <= {"DET002", "PARSE001"}

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        findings = fixture_engine().lint_file(bad, tmp_path)
        assert [f.rule for f in findings] == ["PARSE001"]

    def test_lint_source_string(self):
        findings = fixture_engine().lint_source("import socket\n", "inline.py")
        assert [f.rule for f in findings] == ["STER001"]
        assert findings[0].path == "inline.py"

    def test_rule_docs_complete(self):
        from repro.lint.engine import iter_rule_docs

        docs = list(iter_rule_docs())
        ids = [rule_id for rule_id, _, _ in docs]
        assert ids == sorted(set(ids)) or len(ids) == len(set(ids))
        for rule_id, title, rationale in docs:
            assert rule_id and title and rationale


#: (rule id, package directory, expected symbols in the bad fixture) for the
#: package-scoped ImportBan rows; their fixtures live under ``repro/<package>/``.
PACKAGE_CASES = [
    ("FLT001", "faults", {
        "random", "secrets", "uuid", "numpy.random", "os.urandom", "os.getrandom",
    }),
    ("OBS001", "obs", {
        "time", "datetime", "time.perf_counter", "datetime.now",
    }),
    ("SRV001", "serve", {
        "random", "time", "datetime", "numpy.random.mtrand",
        "time.time", "datetime.now", "os.urandom", "os.getrandom",
    }),
    ("WLD001", "worldbuilder", {
        "random", "time", "datetime", "numpy.random",
        "time.time", "datetime.now", "os.urandom", "os.getrandom",
    }),
]


@pytest.mark.parametrize(
    "rule_id,package,symbols", PACKAGE_CASES, ids=[c[0] for c in PACKAGE_CASES]
)
class TestPackageImportBans:
    """Each row is scoped to ``repro/<package>/``.

    The bad fixtures also trip DET001/DET002 (by design — the rules overlap
    inside these packages), so these tests select one row alone.
    """

    @staticmethod
    def engine(rule_id: str) -> LintEngine:
        return LintEngine(LintConfig(select=(rule_id,)))

    @staticmethod
    def fixture(rule_id: str, package: str, kind: str) -> pathlib.Path:
        return FIXTURES / "repro" / package / f"{rule_id.lower()}_{kind}.py"

    def test_bad_fixture_fires(self, rule_id, package, symbols):
        bad = self.fixture(rule_id, package, "bad")
        findings = self.engine(rule_id).lint_file(bad, FIXTURES)
        assert {f.rule for f in findings} == {rule_id}
        assert {f.symbol for f in findings} == symbols
        assert all(f.path == f"repro/{package}/{bad.name}" for f in findings)

    def test_good_fixture_is_silent(self, rule_id, package, symbols):
        good = self.fixture(rule_id, package, "good")
        findings = self.engine(rule_id).lint_file(good, FIXTURES)
        assert findings == [], f"{good.name} should be clean: {findings}"

    def test_rule_is_scoped_to_package(self, rule_id, package, symbols):
        source = self.fixture(rule_id, package, "bad").read_text(encoding="utf-8")
        findings = self.engine(rule_id).lint_source(source, "repro/engine/elsewhere.py")
        assert findings == []

    def test_shipped_package_is_clean(self, rule_id, package, symbols):
        import repro

        src = pathlib.Path(repro.__file__).resolve().parent.parent
        findings = self.engine(rule_id).lint_paths([src / "repro" / package], root=src)
        assert findings == []


class TestObservabilityRule:
    """OBS001 exempts ``repro/obs/profiling.py``, the digest-excluded
    wall-clock channel."""

    PROFILING = FIXTURES / "repro" / "obs" / "profiling.py"

    @staticmethod
    def engine() -> LintEngine:
        return LintEngine(LintConfig(select=("OBS001",)))

    def test_profiling_module_is_exempt(self):
        findings = self.engine().lint_file(self.PROFILING, FIXTURES)
        assert findings == [], f"profiling.py is the wall-clock channel: {findings}"


class TestContainedFailuresRule:
    """SRV002 is path-scoped to ``repro/serve/``: a blanket handler there
    must re-raise or route the exception into the failure taxonomy.

    Its bad fixture also trips SAFE002 (by design — SRV002 is the stricter,
    service-scoped variant), so these tests select SRV002 alone.
    """

    BAD = FIXTURES / "repro" / "serve" / "srv002_bad.py"
    GOOD = FIXTURES / "repro" / "serve" / "srv002_good.py"

    @staticmethod
    def engine() -> LintEngine:
        return LintEngine(LintConfig(select=("SRV002",)))

    def test_bad_fixture_fires(self):
        findings = self.engine().lint_file(self.BAD, FIXTURES)
        assert findings, "SRV002 bad fixture produced no findings"
        assert {f.rule for f in findings} == {"SRV002"}
        assert sorted(f.symbol for f in findings) == [
            "bare-except", "except-Exception", "except-Exception",
        ]

    def test_good_fixture_is_silent(self):
        findings = self.engine().lint_file(self.GOOD, FIXTURES)
        assert findings == [], f"srv002_good.py should be clean: {findings}"

    def test_rule_is_scoped_to_serve_package(self):
        source = self.BAD.read_text(encoding="utf-8")
        findings = self.engine().lint_source(source, "repro/engine/elsewhere.py")
        assert findings == []

    def test_shipped_serve_package_is_clean(self):
        import repro.serve as serve_pkg

        package_dir = pathlib.Path(serve_pkg.__file__).resolve().parent
        engine = self.engine()
        for module in sorted(package_dir.glob("*.py")):
            findings = engine.lint_file(module, package_dir.parent.parent)
            assert findings == [], f"{module.name}: {findings}"
