#!/usr/bin/env python
"""Time the whole-program lint cold vs warm; emit ``BENCH_lint.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_lint.py [--repeats N] [--out PATH]

The benchmark copies ``src/repro`` (plus ``pyproject.toml`` and the
baseline) into a staging directory so it can safely edit files, then times
three points:

* ``cold`` — empty cache: every file is read, parsed, and summarized.
* ``warm`` — second run over the unchanged tree: every per-file result is
  served from the incremental cache; only the whole-program fixpoint runs.
* ``one_changed`` — one file's content edited between runs: exactly one
  file re-parses, everything else stays cached.

The cold and warm finding sets must be identical (the cache's correctness
contract), so the payload records the findings digest once and asserts it;
``speedup_warm_vs_cold`` is what the acceptance gate reads (must be ≥ 3×).
The digest covers each finding's ``(rule, path, symbol)`` triple — the
identity the baseline matches on — so it moves when the set of findings
changes, not when an unrelated edit shifts a line; CI asserts it against
the pin in ``results/BENCH_lint.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

from repro.lint import LintConfig, ProgramAnalyzer

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"


def _findings_digest(result) -> str:
    blob = json.dumps(
        sorted(f.fingerprint for f in result.findings), separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _stage_tree(staging: pathlib.Path) -> pathlib.Path:
    root = staging / "proj"
    shutil.copytree(REPO_ROOT / "src" / "repro", root / "src" / "repro")
    shutil.copy(REPO_ROOT / "pyproject.toml", root / "pyproject.toml")
    baseline = REPO_ROOT / "lint-baseline.json"
    if baseline.is_file():
        shutil.copy(baseline, root / "lint-baseline.json")
    return root


def _timed_runs(root: pathlib.Path, cache_dir: pathlib.Path, repeats: int):
    wall: list[float] = []
    result = None
    for _attempt in range(repeats):
        analyzer = ProgramAnalyzer(LintConfig.load(root), cache_dir=cache_dir)
        started = time.perf_counter()
        result = analyzer.lint_paths([root / "src" / "repro"], root=root)
        wall.append(time.perf_counter() - started)
    assert result is not None
    return result, wall


def _wall_block(wall: list[float]) -> dict:
    return {
        "runs": len(wall),
        "best": round(min(wall), 4),
        "mean": round(statistics.mean(wall), 4),
    }


def bench(repeats: int) -> dict:
    staging = pathlib.Path(tempfile.mkdtemp(prefix="bench-lint-"))
    try:
        root = _stage_tree(staging)
        cache_dir = staging / "cache"

        cold_wall: list[float] = []
        cold_result = None
        for _attempt in range(repeats):
            shutil.rmtree(cache_dir, ignore_errors=True)
            cold_result, wall = _timed_runs(root, cache_dir, 1)
            cold_wall.extend(wall)
        assert cold_result is not None

        warm_result, warm_wall = _timed_runs(root, cache_dir, repeats)

        # A real content edit (appended comment) in one file before every
        # repeat: each timed run re-parses exactly that file while the
        # whole-program passes still see the full tree.
        edited = root / "src" / "repro" / "cli.py"
        one_wall = []
        one_result = None
        for attempt in range(repeats):
            edited.write_text(
                edited.read_text(encoding="utf-8") + f"\n# bench: edit {attempt}\n",
                encoding="utf-8",
            )
            one_result, wall = _timed_runs(root, cache_dir, 1)
            one_wall.extend(wall)
        assert one_result is not None
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    if _findings_digest(cold_result) != _findings_digest(warm_result):
        raise SystemExit("cache changed the findings — correctness violation")

    cold_best = min(cold_wall)
    warm_best = min(warm_wall)
    return {
        "benchmark": "whole-program-lint-cache",
        "files": cold_result.stats["files"],
        "findings_digest_sha256": _findings_digest(cold_result),
        "cold": {
            "parsed": cold_result.stats["parsed"],
            "wall_seconds": _wall_block(cold_wall),
        },
        "warm": {
            "parsed": warm_result.stats["parsed"],
            "cached": warm_result.stats["cached"],
            "wall_seconds": _wall_block(warm_wall),
        },
        "one_changed": {
            "parsed": one_result.stats["parsed"],
            "cached": one_result.stats["cached"],
            "wall_seconds": _wall_block(one_wall),
        },
        "speedup_warm_vs_cold": round(cold_best / warm_best, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per point")
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_lint.json"),
        help="output path (default: results/BENCH_lint.json)",
    )
    args = parser.parse_args(argv)

    print(
        f"benchmarking whole-program lint over src/repro ({args.repeats} repeats) ...",
        flush=True,
    )
    payload = bench(args.repeats)
    print(
        "cold best {cold:.3f}s, warm best {warm:.3f}s -> {speedup}x "
        "(one-changed re-parsed {one} file(s))".format(
            cold=payload["cold"]["wall_seconds"]["best"],
            warm=payload["warm"]["wall_seconds"]["best"],
            speedup=payload["speedup_warm_vs_cold"],
            one=payload["one_changed"]["parsed"],
        ),
        flush=True,
    )

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
