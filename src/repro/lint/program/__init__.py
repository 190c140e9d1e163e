"""Whole-program analysis: symbol table, call graph, taint, races, cache.

The per-file rules in :mod:`repro.lint.rules` are blind to anything that
crosses a module boundary — a wall-clock value *produced* in one module and
*digested* in another sails straight through them.  This package grows the
lint pass into a whole-program engine:

* :mod:`repro.lint.program.symbols` — one compact, JSON-able
  :class:`ModuleSummary` per file: functions, imports, call sites with
  argument taint, module-level mutable state, worker-entrypoint evidence.
* :mod:`repro.lint.program.callgraph` — the project-wide function index and
  call graph resolved over import maps.
* :mod:`repro.lint.program.taint` — interprocedural taint analysis tracking
  nondeterminism sources into digest/shard-cache/trace/metrics sinks
  (DET100–DET103), with full source→sink path traces.
* :mod:`repro.lint.program.races` — static shard-race detection over the
  same call graph (RACE001/RACE002).
* :mod:`repro.lint.program.cache` — the mtime+SHA incremental cache under
  ``.repro-lint-cache/`` that makes warm runs re-parse only changed files.
* :mod:`repro.lint.program.analyzer` — the orchestrator
  (:class:`ProgramAnalyzer`) combining all of the above with ``--jobs``
  parallel parsing.

Summaries — not ASTs — are what the interprocedural passes consume, so a
warm run can skip parsing entirely for unchanged files and still re-run the
whole-program fixpoint over the full project.
"""

from __future__ import annotations

from repro.lint.program.analyzer import ProgramAnalyzer, ProgramResult
from repro.lint.program.cache import AnalysisCache, DEFAULT_CACHE_DIRNAME
from repro.lint.program.callgraph import ProgramIndex
from repro.lint.program.races import RACE_RULE_DOCS, detect_races
from repro.lint.program.symbols import ModuleSummary, build_module_summary, module_name_for
from repro.lint.program.taint import FLOW_RULE_DOCS, analyze_flows

__all__ = [
    "AnalysisCache",
    "DEFAULT_CACHE_DIRNAME",
    "FLOW_RULE_DOCS",
    "ModuleSummary",
    "ProgramAnalyzer",
    "ProgramIndex",
    "ProgramResult",
    "RACE_RULE_DOCS",
    "analyze_flows",
    "build_module_summary",
    "detect_races",
    "module_name_for",
]
