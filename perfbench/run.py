#!/usr/bin/env python3
"""The repository benchmark: run one workload, print one JSON result line.

Run from the repository root (no build step; the sources under ``src/`` are
imported directly)::

    python3 perfbench/run.py --workload serial --seed 1 --seconds 36 --trace 0

``--workload`` is ``serial``, ``chaos`` or ``serve`` (see
``perfbench/workloads.py``).  ``--seed`` generates the study specs the run
submits; ``--seconds`` is how long the timed loop runs.

With ``--trace 0`` the result carries the end-to-end metrics:

* ``study_ms`` — wall time per completed study: a timed call's wall time
  divided by the studies it completed (one for ``serial`` and ``chaos``, a
  wave of twelve for ``serve``), scaled to the reference host speed (see
  below), median over the run's timed calls.  Each call starts after a
  full garbage collection, so calls do not inherit each other's garbage;
* ``setup_s`` — median of ``SETUP_REPEATS`` set-ups, scaled the same way:
  building the world (or a service) and serving the pinned reference
  request cold.  Set-up time is excluded from ``study_ms``.

A shared host's speed wanders: for seconds to minutes at a time the same
study takes up to 1.4 times as long.  A median over one run still moves
with the minutes it ran in, and the best call with whether it caught a fast
spell.  So every timed call and set-up is bracketed by two runs of a fixed
integer loop (:func:`probe_seconds`), and its time is multiplied by
``PROBE_REFERENCE_S`` over the mean of the two: the time it would have
taken on a host where the loop takes ``PROBE_REFERENCE_S``.  On a 2-vCPU
Xeon VM, a call's time and its probes' rise and fall together (log-log
correlation 0.7 to 0.8, slope 0.6 to 0.9), and scaling cut the spread
(quartile distance over median) of five runs' ``study_ms`` from 9-31% to
3-9%, and of ten runs' to 2-6%.  The loop runs
no code of the program, so a change to the program moves the scaled times
as it moves the raw ones.

With ``--trace 1`` the same loop runs with the spans of
``perfbench/spans.py`` installed, and the result carries the per-layer
metrics instead: each layer's self time and the per-study counts, all per
completed study.

The last line of standard output is the JSON result.  Without the
``src/repro`` sources beside it the benchmark exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"

SETUP_REPEATS = 9

#: Iterations of the host-speed probe loop.
PROBE_LOOP = 300_000
#: The probe time that scaled times refer to: a fixed reference, near the
#: loop's time on a 2.1 GHz Xeon vCPU.
PROBE_REFERENCE_S = 0.025


def probe_seconds() -> float:
    """Wall time of a fixed integer loop: how fast the host runs now."""
    started = time.perf_counter()
    total = 0
    for k in range(PROBE_LOOP):
        total += k * k % 7
    return time.perf_counter() - started


def speed_factor(before: float, after: float) -> float:
    """Scales a time taken between two probes to the reference speed."""
    return 2.0 * PROBE_REFERENCE_S / (before + after)


def _import_sources() -> None:
    """Put this checkout's ``src/`` and ``benchmarks/`` first on the path
    and check they are used."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sources at {package}")
    if not (BENCHMARKS / "bench_serve.py").is_file():
        raise SystemExit(f"perfbench: no bench_serve.py in {BENCHMARKS}")
    sys.path[:0] = [str(SRC), str(BENCHMARKS)]
    import repro

    if Path(repro.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally, factors: list[float], setup_seconds: list[float]) -> dict:
    scaled = [seconds * factor for seconds, factor in zip(tally.seconds, factors)]
    return {
        "study_ms": _metric(statistics.median(scaled) * 1000.0, "ms"),
        "setup_s": _metric(statistics.median(setup_seconds), "s"),
    }


def per_layer(tally, trace) -> dict:
    studies = tally.studies
    metrics = {}
    for layer, seconds in trace.self_seconds().items():
        name = "orchestration_ms" if layer == "request" else f"{layer}_ms"
        metrics[name] = _metric(seconds * 1000.0 / studies, "ms")
    counts = trace.counts
    metrics["attempts"] = _metric(counts["attempts"] / studies, "count")
    metrics["measured_ratio"] = _metric(counts["ok"] / max(1, counts["attempts"]), "ratio")
    metrics["nodes_failed"] = _metric(counts["failed"] / studies, "count")
    metrics["shards_executed"] = _metric(trace.span_count("shard") / studies, "count")
    metrics["cache_hits"] = _metric(tally.cache_hits / studies, "count")
    metrics["trace_events"] = _metric(tally.trace_events / studies, "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("serial", "chaos", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_sources()
    import workloads
    from spans import LayerTrace

    workload = workloads.make(args.workload, args.seed)
    tally = workloads.Tally()

    def setup() -> float:
        gc.collect()
        before = probe_seconds()
        started = time.perf_counter()
        workload.setup(tally)
        seconds = time.perf_counter() - started
        return seconds * speed_factor(before, probe_seconds())

    # A shared host's speed drifts over tens of seconds, so the set-ups
    # after the first are spread evenly through the timed window (untraced
    # runs only: a traced set-up would add spans outside any request).
    probe_seconds()  # warm-up
    setup_seconds = [setup()]
    #: The speed factor of each sample in ``tally.seconds``.
    factors: list[float] = []
    with LayerTrace() if args.trace else nullcontext(workloads.NoTrace()) as trace:
        started = time.perf_counter()
        deadline = started + args.seconds
        index = 0
        while (now := time.perf_counter()) < deadline:
            due = started + args.seconds * len(setup_seconds) / SETUP_REPEATS
            if not args.trace and now >= due:
                setup_seconds.append(setup())
                continue
            gc.collect()
            before = probe_seconds()
            recorded = len(tally.seconds)
            try:
                workload.step(index, tally, trace)
            except Exception as exc:  # a failed study is counted, not fatal
                tally.fail(f"step {index}: {exc!r}")
            if len(tally.seconds) > recorded:
                factors.append(speed_factor(before, probe_seconds()))
            index += 1
    workload.finish(tally)

    if not tally.studies:
        tally.errors.append("no study completed")
    for error in tally.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    if tally.studies:
        metrics = per_layer(tally, trace) if args.trace else end_to_end(tally, factors, setup_seconds)
    else:
        metrics = {}
    print(
        json.dumps(
            {
                "correct": not tally.errors and tally.failed == 0,
                "attempted": max(1, tally.attempted),
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
