"""The whole-program analyzer: per-file rules + flows + races, cached.

:class:`ProgramAnalyzer` is the one entry point the CLI and the tier-1 gate
call.  It composes the existing per-file :class:`~repro.lint.engine.LintEngine`
with the whole-program passes:

1. discover files (same exclusion rules as the per-file engine);
2. for each file, serve findings + module summary from the incremental
   cache when the content is unchanged, else parse — serially or on a
   ``ProcessPoolExecutor`` with ``--jobs N``;
3. rebuild the :class:`~repro.lint.program.callgraph.ProgramIndex` from all
   summaries (cached or fresh) and run the taint and race passes — these
   always run globally, which is how a change in one file re-triggers flows
   that *end* in another file without any reverse-dependency bookkeeping;
4. apply the allow/select configuration to the program-level findings and
   return everything sorted, with cache statistics.
"""

from __future__ import annotations

import concurrent.futures
import os
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.lint.config import LintConfig
from repro.lint.engine import Finding, LintEngine

from repro.lint.program.cache import AnalysisCache, DEFAULT_CACHE_DIRNAME
from repro.lint.program.callgraph import ProgramIndex
from repro.lint.program.races import detect_races
from repro.lint.program.symbols import ModuleSummary, build_module_summary
from repro.lint.program.taint import analyze_flows

#: Bump to invalidate every cache when analysis semantics change.  The
#: cache signature covers rule ids, not what the rules find, so a per-file
#: rule whose findings or messages change under its old id needs a bump.
#: Version 3: the import-ban rows (STER001, FLT001, OBS001, SRV001, WLD001)
#: match more imports and calls and word their messages anew.
ANALYZER_VERSION = "4"


@dataclass(slots=True)
class _FileResult:
    """Everything one file contributes, fresh or from cache."""

    relpath: str
    findings: tuple[Finding, ...]
    summary: ModuleSummary | None
    from_cache: bool
    stat: os.stat_result | None = None
    data: bytes | None = None


@dataclass(slots=True)
class ProgramResult:
    """Findings plus run statistics (for reporters and the benchmark)."""

    findings: list[Finding] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)


def _analyze_source(
    data: bytes, relpath: str, config: LintConfig
) -> tuple[tuple[Finding, ...], ModuleSummary | None]:
    """Parse once; share the tree between per-file rules and the summary."""
    engine = LintEngine(config)
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        finding = Finding(
            rule="PARSE001", path=relpath, line=0, col=0,
            symbol="unreadable", message=f"file cannot be decoded: {exc}",
        )
        return (finding,), None
    tree, parse_findings = engine.parse_source(source, relpath)
    if tree is None:
        return tuple(parse_findings), None
    findings = tuple(engine.lint_parsed(tree, relpath))
    summary = build_module_summary(tree, relpath, config)
    return findings, summary


def _analyze_one(
    payload: tuple[str, str, LintConfig]
) -> tuple[str, tuple[Finding, ...], ModuleSummary | None]:
    """Process-pool worker: read + analyze one file (module-level: picklable)."""
    abspath, relpath, config = payload
    try:
        data = pathlib.Path(abspath).read_bytes()
    except OSError as exc:
        finding = Finding(
            rule="PARSE001", path=relpath, line=0, col=0,
            symbol="unreadable", message=f"file cannot be read: {exc}",
        )
        return relpath, (finding,), None
    findings, summary = _analyze_source(data, relpath, config)
    return relpath, findings, summary


class ProgramAnalyzer:
    """Whole-program lint: per-file rules + DET1xx flows + RACE00x races."""

    def __init__(
        self,
        config: LintConfig | None = None,
        cache_dir: str | pathlib.Path | None = None,
        use_cache: bool = True,
        jobs: int = 1,
    ) -> None:
        self.config = config if config is not None else LintConfig.default()
        self.engine = LintEngine(self.config)
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.jobs = max(1, jobs)

    # -- cache wiring --------------------------------------------------------

    def _signature(self) -> str:
        rule_ids = ",".join(rule.rule_id for rule in self.engine.rules)
        return f"{ANALYZER_VERSION}|{rule_ids}|{self.config.signature()}"

    def _open_cache(self, root: pathlib.Path) -> AnalysisCache | None:
        if not self.use_cache:
            return None
        directory = (
            pathlib.Path(self.cache_dir)
            if self.cache_dir is not None
            else root / DEFAULT_CACHE_DIRNAME
        )
        cache = AnalysisCache(directory, self._signature())
        cache.load()
        return cache

    # -- the run -------------------------------------------------------------

    def lint_paths(
        self,
        paths: Iterable[str | pathlib.Path],
        root: str | pathlib.Path | None = None,
    ) -> ProgramResult:
        root_path = pathlib.Path(root) if root is not None else pathlib.Path.cwd()
        files = self.engine.discover(paths, root_path)
        cache = self._open_cache(root_path)

        results: dict[str, _FileResult] = {}
        to_parse: list[tuple[str, str, os.stat_result, bytes]] = []

        for path in files:
            relpath = self.engine._relpath(path, root_path)
            try:
                stat = path.stat()
            except OSError as exc:
                results[relpath] = _FileResult(
                    relpath=relpath,
                    findings=(
                        Finding(
                            rule="PARSE001", path=relpath, line=0, col=0,
                            symbol="unreadable",
                            message=f"file cannot be read: {exc}",
                        ),
                    ),
                    summary=None,
                    from_cache=False,
                )
                continue
            if cache is not None:
                hit = cache.lookup(relpath, stat, None)
                if hit is not None:
                    results[relpath] = _FileResult(
                        relpath=relpath, findings=hit.findings,
                        summary=hit.summary, from_cache=True,
                    )
                    continue
            try:
                data = path.read_bytes()
            except OSError as exc:
                results[relpath] = _FileResult(
                    relpath=relpath,
                    findings=(
                        Finding(
                            rule="PARSE001", path=relpath, line=0, col=0,
                            symbol="unreadable",
                            message=f"file cannot be read: {exc}",
                        ),
                    ),
                    summary=None,
                    from_cache=False,
                )
                continue
            if cache is not None:
                hit = cache.lookup(relpath, stat, data)
                if hit is not None:
                    results[relpath] = _FileResult(
                        relpath=relpath, findings=hit.findings,
                        summary=hit.summary, from_cache=True,
                    )
                    continue
            to_parse.append((str(path), relpath, stat, data))

        self._parse_batch(to_parse, results)

        if cache is not None:
            for abspath, relpath, stat, data in to_parse:
                fresh = results[relpath]
                cache.store(relpath, stat, data, fresh.findings, fresh.summary)
            cache.save()

        findings: list[Finding] = []
        summaries: list[ModuleSummary] = []
        for relpath in sorted(results):
            result = results[relpath]
            findings.extend(result.findings)
            if result.summary is not None:
                summaries.append(result.summary)

        findings.extend(self._program_findings(summaries))
        findings.sort(key=lambda f: f.sort_key)

        cached_count = sum(1 for r in results.values() if r.from_cache)
        stats = {
            "files": len(results),
            "parsed": len(results) - cached_count,
            "cached": cached_count,
        }
        return ProgramResult(findings=findings, stats=stats)

    def _parse_batch(
        self,
        to_parse: Sequence[tuple[str, str, os.stat_result, bytes]],
        results: dict[str, _FileResult],
    ) -> None:
        if self.jobs > 1 and len(to_parse) > 1:
            payloads = [
                (abspath, relpath, self.config)
                for abspath, relpath, _stat, _data in to_parse
            ]
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs
            ) as pool:
                for relpath, file_findings, summary in pool.map(
                    _analyze_one, payloads
                ):
                    results[relpath] = _FileResult(
                        relpath=relpath, findings=file_findings,
                        summary=summary, from_cache=False,
                    )
            return
        for _abspath, relpath, _stat, data in to_parse:
            file_findings, summary = _analyze_source(data, relpath, self.config)
            results[relpath] = _FileResult(
                relpath=relpath, findings=file_findings,
                summary=summary, from_cache=False,
            )

    def _program_findings(self, summaries: Sequence[ModuleSummary]) -> list[Finding]:
        index = ProgramIndex.build(summaries, self.config)
        program: list[Finding] = []
        program.extend(analyze_flows(index))
        program.extend(detect_races(index))
        selected = (
            set(self.config.select) if self.config.select is not None else None
        )
        kept = []
        for finding in program:
            if self.config.is_allowed(finding.rule, finding.path):
                continue
            if selected is not None and finding.rule not in selected:
                continue
            kept.append(finding)
        return kept
