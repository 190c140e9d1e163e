"""The lint engine: file discovery, parsing, rule dispatch, allowlisting.

The engine is deliberately dependency-free (``ast`` + ``pathlib`` only) so
the gate it implements can never be skipped for environmental reasons — the
same constraint the simulation itself lives under.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from repro.lint.config import LintConfig
from repro.records import slot_init

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.lint.rules.base import Rule


@slot_init
@dataclass(frozen=True, slots=True)
class TraceStep:
    """One hop of a whole-program source→sink path trace."""

    path: str
    line: int
    note: str

    def as_dict(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "note": self.note}

    def render(self) -> str:
        return f"{self.path}:{self.line} {self.note}"


@slot_init
@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``symbol`` is the stable name of the offending construct (for example
    ``time.perf_counter`` or a class name) — baselines match on
    ``(rule, path, symbol)`` so they survive unrelated edits that shift line
    numbers.  Whole-program findings additionally carry ``trace``, the full
    source→sink path (one :class:`TraceStep` per hop).
    """

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str
    trace: tuple[TraceStep, ...] = ()

    @property
    def sort_key(self) -> tuple[str, int, int, str, str]:
        """Deterministic ordering: location first, then rule, then symbol."""
        return (self.path, self.line, self.col, self.rule, self.symbol)

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """The identity used for baseline matching."""
        return (self.rule, self.path, self.symbol)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (keys sorted by the reporter).

        ``trace`` is included only when present, so per-file findings keep
        their historical key set byte-for-byte.
        """
        payload: dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }
        if self.trace:
            payload["trace"] = [step.as_dict() for step in self.trace]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Finding":
        """Rebuild a finding from :meth:`as_dict` output (cache layer)."""
        trace = tuple(
            TraceStep(
                path=str(step["path"]), line=int(step["line"]), note=str(step["note"])  # type: ignore[index]
            )
            for step in payload.get("trace", ())  # type: ignore[union-attr]
        )
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            col=int(payload["col"]),  # type: ignore[arg-type]
            symbol=str(payload["symbol"]),
            message=str(payload["message"]),
            trace=trace,
        )


@slot_init
@dataclass(frozen=True, slots=True)
class FileContext:
    """Everything a rule needs to know about the file under analysis."""

    path: str
    tree: ast.Module
    config: LintConfig

    def finding(self, rule: str, node: ast.AST, symbol: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            symbol=symbol,
            message=message,
        )


class LintEngine:
    """Runs every enabled rule over every discovered ``*.py`` file."""

    def __init__(
        self,
        config: LintConfig | None = None,
        rules: Sequence["Rule"] | None = None,
    ) -> None:
        # Imported here so `rules` modules can import engine types freely.
        from repro.lint.rules import ALL_RULES

        self.config = config if config is not None else LintConfig.default()
        selected = tuple(rules) if rules is not None else ALL_RULES
        if self.config.select is not None:
            wanted = set(self.config.select)
            selected = tuple(r for r in selected if r.rule_id in wanted)
        self.rules = selected

    # -- discovery ---------------------------------------------------------

    def discover(
        self, paths: Iterable[str | pathlib.Path], root: pathlib.Path
    ) -> list[pathlib.Path]:
        """Expand files/directories into a sorted, de-duplicated file list."""
        seen: dict[pathlib.Path, None] = {}
        for raw in paths:
            path = pathlib.Path(raw)
            if not path.is_absolute():
                path = root / path
            if path.is_dir():
                for candidate in sorted(path.rglob("*.py")):
                    seen.setdefault(candidate)
            elif path.suffix == ".py":
                seen.setdefault(path)
        return [p for p in seen if not self._excluded(self._relpath(p, root))]

    def _relpath(self, path: pathlib.Path, root: pathlib.Path) -> str:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def _excluded(self, relpath: str) -> bool:
        return any(fnmatch.fnmatch(relpath, pattern) for pattern in self.config.exclude)

    # -- linting -----------------------------------------------------------

    def parse_source(
        self, source: str, relpath: str
    ) -> tuple[ast.Module | None, list[Finding]]:
        """Parse once for all rules; a syntax error becomes a PARSE001 finding.

        An unparseable file is a *finding*, never a traceback — the gate must
        report it and keep scanning the rest of the tree.
        """
        try:
            return ast.parse(source, filename=relpath), []
        except (SyntaxError, ValueError) as exc:
            lineno = getattr(exc, "lineno", 0) or 0
            offset = getattr(exc, "offset", 0) or 0
            msg = getattr(exc, "msg", None) or str(exc)
            return None, [
                Finding(
                    rule="PARSE001",
                    path=relpath,
                    line=lineno,
                    col=offset,
                    symbol="syntax-error",
                    message=f"file does not parse: {msg}",
                )
            ]

    def lint_parsed(self, tree: ast.Module, relpath: str) -> list[Finding]:
        """Run every enabled per-file rule over an already-parsed module."""
        context = FileContext(path=relpath, tree=tree, config=self.config)
        findings: list[Finding] = []
        for rule in self.rules:
            if self.config.is_allowed(rule.rule_id, relpath):
                continue
            findings.extend(rule.check(context))
        return sorted(findings, key=lambda f: f.sort_key)

    def lint_source(self, source: str, relpath: str) -> list[Finding]:
        """Lint a source string as if it lived at ``relpath``."""
        tree, parse_findings = self.parse_source(source, relpath)
        if tree is None:
            return parse_findings
        return self.lint_parsed(tree, relpath)

    def lint_file(self, path: pathlib.Path, root: pathlib.Path) -> list[Finding]:
        """Lint one file on disk; the finding paths are relative to ``root``."""
        relpath = self._relpath(path, root)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return [
                Finding(
                    rule="PARSE001",
                    path=relpath,
                    line=0,
                    col=0,
                    symbol="unreadable",
                    message=f"file cannot be read: {exc}",
                )
            ]
        return self.lint_source(source, relpath)

    def lint_paths(
        self,
        paths: Iterable[str | pathlib.Path],
        root: str | pathlib.Path | None = None,
    ) -> list[Finding]:
        """Lint every python file under ``paths`` (files or directories)."""
        root_path = pathlib.Path(root) if root is not None else pathlib.Path.cwd()
        findings: list[Finding] = []
        for path in self.discover(paths, root_path):
            findings.extend(self.lint_file(path, root_path))
        return sorted(findings, key=lambda f: f.sort_key)


def scope_predicate(
    paths: Iterable[str | pathlib.Path], root: str | pathlib.Path
) -> "Callable[[str], bool]":
    """``predicate(relpath)`` — True when a scan of ``paths`` covers it.

    Used to avoid flagging baseline entries as stale when the scan never
    looked at their files (for example ``repro lint src/repro/core``).
    """
    root_path = pathlib.Path(root).resolve()
    scope: list[tuple[str, bool]] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if not path.is_absolute():
            path = root_path / path
        try:
            rel = path.resolve().relative_to(root_path).as_posix()
        except ValueError:
            rel = path.as_posix()
        scope.append((rel, path.is_dir()))

    def covers(relpath: str) -> bool:
        for rel, is_dir in scope:
            if is_dir and (rel == "." or relpath == rel or relpath.startswith(rel + "/")):
                return True
            if not is_dir and relpath == rel:
                return True
        return False

    return covers


PARSE_RULE_DOC: tuple[str, str, str] = (
    "PARSE001",
    "file cannot be parsed or read",
    "An unparseable file is invisible to every other rule; the gate must "
    "surface it as a finding instead of crashing or silently skipping it.",
)


def iter_rule_docs() -> Iterator[tuple[str, str, str]]:
    """``(rule_id, title, rationale)`` triples for every registered rule.

    Covers the per-file rules, the engine-level PARSE001, and the
    whole-program flow/race rules.
    """
    from repro.lint.program.races import RACE_RULE_DOCS
    from repro.lint.program.taint import FLOW_RULE_DOCS
    from repro.lint.rules import ALL_RULES

    for rule in ALL_RULES:
        yield rule.rule_id, rule.title, rule.rationale
    yield PARSE_RULE_DOC
    yield from FLOW_RULE_DOCS
    yield from RACE_RULE_DOCS
