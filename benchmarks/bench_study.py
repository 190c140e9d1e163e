#!/usr/bin/env python
"""Time the full engine study across world sizes; emit ``BENCH_study.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_study.py [--repeats N] [--out PATH]
                                                    [--sizes a,b] [--workers N]
                                                    [--no-curve] [--no-tracing]

For each size the script runs ``repro.engine.run_study`` (all four
experiments, sharded, no analyses) and records wall-clock timings alongside
the run's deterministic counters and a SHA-256 over its canonical dataset
summary.  Everything except the ``wall_seconds`` block is bit-stable: two
machines benchmarking the same tree must agree on every other field, so the
JSON doubles as a cross-machine determinism check.

The ``workers_curve`` section re-runs the small and medium sizes at
``workers=1,2,4,8`` through the real ``ProcessExecutor`` and asserts every
worker count reproduces the serial run's dataset SHA and run digest byte for
byte — the scaling curve doubles as an equivalence check.

Keys are emitted sorted; timings, peak RSS, and world-build time are in the
``wall_seconds`` blocks only (digest-excluded by construction).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time

from bench_serve import host, wall_block
from repro.engine import StudySpec, resolve_workers, run_study
from repro.sim import WorldConfig, build_world

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: The benchmark points: scale 0.005 is a quick smoke (~4K hosts), scale
#: 0.02 matches the default study configuration (~18K hosts), and the
#: ``medium-chaos`` point reruns the medium world under the ``chaos`` fault
#: profile so injection + validity-pipeline overhead stays visible.
#: ``large`` (scale 0.2) and ``full`` (scale 1.0, the paper's >1M-node pool)
#: exercise the columnar world at paper scale.
SIZES = (
    ("small", 0.005, "none"),
    ("medium", 0.02, "none"),
    ("medium-chaos", 0.02, "chaos"),
    ("large", 0.2, "none"),
    ("full", 1.0, "none"),
)

#: Worker counts for the ProcessExecutor scaling curve.
CURVE_WORKERS = (1, 2, 4, 8)

#: Sizes the scaling curve runs at (larger sizes would multiply bench time
#: by the curve length; the large/full single points cover them).
CURVE_SIZES = ("small", "medium")


def _peak_rss_mb() -> float:
    """Peak resident set size in MB, including finished worker processes.

    ``ru_maxrss`` is a process-lifetime high-water mark, so per-size values
    are cumulative: the number attached to a block is "the peak observed by
    the time this block finished".
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return round(max(self_kb, children_kb) / 1024.0, 1)


def bench_size(
    name: str,
    scale: float,
    fault_profile: str,
    shards: int,
    workers: int,
    repeats: int,
) -> dict:
    """Benchmark one world size; return its result block."""
    config = WorldConfig(scale=scale, fault_profile=fault_profile)
    spec = StudySpec(config=config, seed=1000, shards=shards, workers=workers)

    build_started = time.perf_counter()
    build_world(config)
    world_build_seconds = time.perf_counter() - build_started
    print(f"  {name} world build: {world_build_seconds:.1f}s", flush=True)

    wall: list[float] = []
    run = None
    for attempt in range(repeats):
        started = time.perf_counter()
        run = run_study(spec, analyses=False)
        elapsed = time.perf_counter() - started
        wall.append(elapsed)
        print(f"  {name} run {attempt + 1}/{repeats}: {elapsed:.1f}s", flush=True)
    assert run is not None
    report = run.report.to_dict()
    summary_sha = hashlib.sha256(run.dataset_summary().encode("utf-8")).hexdigest()
    block = {
        "scale": scale,
        "fault_profile": fault_profile,
        "shards": shards,
        "workers": workers,
        "seed": spec.seed,
        "world_seed": config.seed,
        "planned": report["planned"],
        "measured": report["measured"],
        "skipped": report["skipped"],
        "failed": report["failed"],
        "retries": report["retries"],
        "traffic_gb": report["traffic_gb"],
        "sim_seconds": round(sum(s["sim_seconds"] for s in report["shards"]), 3),
        "dataset_summary_sha256": summary_sha,
        "run_digest": run.digest,
        "wall_seconds": {
            "runs": len(wall),
            "best": round(min(wall), 3),
            "mean": round(statistics.mean(wall), 3),
            "world_build": round(world_build_seconds, 3),
            "peak_rss_mb": _peak_rss_mb(),
        },
    }
    if fault_profile != "none":
        block["invalid"] = report["invalid"]
        block["failure_kinds"] = report["failure_kinds"]
        block["quarantined_nodes"] = report["quarantined_nodes"]
    return block


def bench_workers_curve(sizes: dict, shards: int, repeats: int) -> dict:
    """The ProcessExecutor scaling curve at the curve sizes.

    Each worker count's run must reproduce the serial datapoint's dataset
    SHA and run digest exactly — a curve entry that drifts is a determinism
    violation, not a slow configuration.
    """
    curve: dict[str, dict] = {}
    for name in CURVE_SIZES:
        base = sizes.get(name)
        if base is None:
            continue
        config = WorldConfig(scale=base["scale"], fault_profile=base["fault_profile"])
        points: dict[str, dict] = {}
        for workers in CURVE_WORKERS:
            spec = StudySpec(config=config, seed=1000, shards=shards, workers=workers)
            wall: list[float] = []
            run = None
            for attempt in range(repeats):
                started = time.perf_counter()
                run = run_study(spec, analyses=False)
                wall.append(time.perf_counter() - started)
                print(
                    f"  curve {name} workers={workers} run "
                    f"{attempt + 1}/{repeats}: {wall[-1]:.1f}s",
                    flush=True,
                )
            assert run is not None
            sha = hashlib.sha256(run.dataset_summary().encode("utf-8")).hexdigest()
            if sha != base["dataset_summary_sha256"] or run.digest != base["run_digest"]:
                raise SystemExit(
                    f"workers={workers} changed the {name} datasets — "
                    "determinism violation"
                )
            points[str(workers)] = {
                "workers_effective": resolve_workers(workers),
                "dataset_summary_sha256": sha,
                "run_digest": run.digest,
                "wall_seconds": {
                    "runs": len(wall),
                    "best": round(min(wall), 3),
                    "mean": round(statistics.mean(wall), 3),
                    "peak_rss_mb": _peak_rss_mb(),
                },
            }
        curve[name] = points
    return curve


def bench_tracing_overhead(shards: int, workers: int, repeats: int) -> dict:
    """Time the small world with observability off vs full tracing.

    The ``off`` point measures the cost of the instrumentation *guards*
    (one attribute read and a branch per seam — the NullRecorder path);
    the ``trace`` point measures full event recording.  The two modes
    alternate within each repeat, and the order flips every repeat, so a
    host that speeds up or slows down during the benchmark moves both
    modes alike; ``trace_overhead_pct`` compares their medians.  Tracing
    must not change a single dataset byte, so the block asserts SHA
    equality and records the trace digest alongside the timings.
    """
    config = WorldConfig(scale=0.005)
    modes = ("off", "trace")
    specs = {
        obs: StudySpec(config=config, seed=1000, shards=shards, workers=workers, obs=obs)
        for obs in modes
    }
    wall: dict[str, list[float]] = {obs: [] for obs in modes}
    runs = {}
    for attempt in range(repeats):
        for obs in modes if attempt % 2 == 0 else modes[::-1]:
            started = time.perf_counter()
            runs[obs] = run_study(specs[obs], analyses=False)
            wall[obs].append(time.perf_counter() - started)
            print(
                f"  tracing-overhead obs={obs} run {attempt + 1}/{repeats}: "
                f"{wall[obs][-1]:.1f}s",
                flush=True,
            )
    points: dict[str, dict] = {}
    for obs in modes:
        run = runs[obs]
        point = {
            "dataset_summary_sha256": hashlib.sha256(
                run.dataset_summary().encode("utf-8")
            ).hexdigest(),
            "run_digest": run.digest,
            "wall_seconds": wall_block(wall[obs]),
        }
        if run.trace is not None:
            point["trace_events"] = len(run.trace)
            point["trace_digest"] = run.trace.digest()
        points[obs] = point
    if (
        points["off"]["dataset_summary_sha256"]
        != points["trace"]["dataset_summary_sha256"]
        or points["off"]["run_digest"] != points["trace"]["run_digest"]
    ):
        raise SystemExit("tracing changed the datasets — determinism violation")
    off = points["off"]["wall_seconds"]["median"]
    traced = points["trace"]["wall_seconds"]["median"]
    return {
        "host": host(),
        "scale": 0.005,
        "shards": shards,
        "workers": workers,
        "seed": 1000,
        "off": points["off"],
        "trace": points["trace"],
        "trace_overhead_pct": round(100.0 * (traced - off) / off, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=1, help="timed runs per size")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the size points (0 = auto-detect)",
    )
    parser.add_argument(
        "--sizes", default=",".join(name for name, _, _ in SIZES),
        help="comma-separated subset of sizes to run "
        f"(default: {','.join(name for name, _, _ in SIZES)})",
    )
    parser.add_argument(
        "--no-curve", action="store_true",
        help="skip the workers=1,2,4,8 scaling curve",
    )
    parser.add_argument(
        "--no-tracing", action="store_true",
        help="skip the tracing-overhead comparison",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_study.json"),
        help="output path (default: results/BENCH_study.json)",
    )
    args = parser.parse_args(argv)
    selected = {name.strip() for name in args.sizes.split(",") if name.strip()}
    unknown = selected - {name for name, _, _ in SIZES}
    if unknown:
        parser.error(f"unknown sizes: {sorted(unknown)}")

    payload: dict = {"benchmark": "engine-full-study", "sizes": {}}
    for name, scale, fault_profile in SIZES:
        if name not in selected:
            continue
        print(
            f"benchmarking {name} (scale={scale}, faults={fault_profile}) ...",
            flush=True,
        )
        payload["sizes"][name] = bench_size(
            name, scale, fault_profile, args.shards, args.workers, args.repeats
        )
    if not args.no_curve:
        print("benchmarking the ProcessExecutor scaling curve ...", flush=True)
        payload["workers_curve"] = bench_workers_curve(
            payload["sizes"], args.shards, args.repeats
        )
    if not args.no_tracing:
        print(
            "benchmarking tracing overhead (small world, obs off vs trace) ...",
            flush=True,
        )
        payload["tracing_overhead"] = bench_tracing_overhead(
            args.shards, args.workers, args.repeats
        )

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
