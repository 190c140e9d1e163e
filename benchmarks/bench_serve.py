#!/usr/bin/env python
"""Throughput of the continuous-measurement service; emit ``BENCH_serve.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--tenants 1,4,16]
                                                    [--rounds N] [--workers N]
                                                    [--repeats N] [--out PATH]

For each tenant count T, the benchmark registers T tenants on one
:class:`repro.serve.Service`, each with its own recurring daily re-crawl
(distinct study seeds, so first rounds genuinely execute), and drains the
whole schedule.  Recorded per point:

* sustained throughput — studies per wall-clock hour (the daemon's real
  capacity, from the median of ``--repeats`` fresh services) and per
  simulated day (the timeline the studies occupy);
* the shard-cache hit rate — rounds after the first are verbatim
  re-submissions, so the cache converts a T-tenant, R-round queue into
  T executions plus T*(R-1) hits;
* a ledger SHA-256 over every completed study's
  ``(tenant, name, occurrence, digest, dataset sha)`` — bit-stable, so two
  machines benchmarking the same tree must agree on it (the wall-clock
  block is the only machine-dependent part).  The script exits non-zero if
  a repeat disagrees with the first.

Two more points follow: a verbatim re-submission (cold, then served
entirely from the cache) and a partial hit, where one tenant re-crawls
with a larger ``max_probes`` so that only the shards whose plan slices
grew execute and the rest are served from the cache.  The ``host`` block
names the machine the wall times come from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import sys
import time
from dataclasses import replace

from repro.engine import StudySpec, compute_plans, partition_plans
from repro.serve import Recurrence, Service
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec, IspSpec, ResolverHijackSpec

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

DAY = 86_400.0

#: Concurrent-tenant points (the acceptance floor is three counts).
TENANT_COUNTS = (1, 4, 16)

#: The partial-hit point: one tenant's study over this many shards, crawled
#: with the first plan cap and then re-crawled with the second.
PARTIAL_SHARDS = 8
PARTIAL_MAX_PROBES = (40, 41)

#: The per-tenant study world: small and explicit, so the benchmark times
#: the service machinery and cache rather than world construction.
BENCH_COUNTRIES = (
    CountrySpec(
        code="AA",
        population=260,
        isps=(
            IspSpec(
                name="AlphaNet",
                share=0.6,
                major_resolvers=2,
                resolver_hijack=ResolverHijackSpec("portal.alphanet.example"),
            ),
        ),
    ),
    CountrySpec(code="BB", population=180),
)

BENCH_CONFIG = WorldConfig(
    scale=1.0,
    seed=11,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)


def tenant_spec(tenant_index: int, shards: int) -> StudySpec:
    """Each tenant re-crawls its own plan (distinct study seed)."""
    return StudySpec(
        config=BENCH_CONFIG,
        countries=BENCH_COUNTRIES,
        seed=1000 + tenant_index,
        shards=shards,
        workers=1,
        window=40,
    )


def ledger_sha(completed) -> str:
    """SHA-256 over the canonical completed-study ledger (bit-stable)."""
    lines = [
        json.dumps(
            [c.tenant, c.name, c.occurrence, c.digest, c.summary_sha],
            separators=(",", ":"),
        )
        for c in completed
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def host() -> dict:
    """The machine the wall times were measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def wall_block(seconds: list[float]) -> dict:
    """Min and median of the repeats' wall times, plus each repeat's."""
    return {
        "min": round(min(seconds), 3),
        "median": round(statistics.median(seconds), 3),
        "runs": [round(value, 3) for value in seconds],
    }


def same_across_repeats(label: str, values: list) -> None:
    """Exit non-zero unless every repeat produced the first one's value."""
    if any(value != values[0] for value in values):
        raise SystemExit(f"{label} differs between repeats: {values}")


def bench_tenants(
    tenants: int, rounds: int, shards: int, workers: int, repeats: int = 1
) -> dict:
    """Benchmark one tenant count over ``repeats`` fresh services."""
    walls: list[float] = []
    ledgers: list[str] = []
    for _ in range(repeats):
        service = Service(seed=7, workers=workers)
        for index in range(tenants):
            service.schedule(
                f"tenant-{index:02d}",
                "daily-recrawl",
                tenant_spec(index, shards),
                Recurrence(interval=DAY, count=rounds),
            )
        started = time.perf_counter()
        completed = service.run(until=rounds * 10 * DAY)
        walls.append(time.perf_counter() - started)
        expected = tenants * rounds
        if len(completed) != expected:
            raise SystemExit(
                f"tenants={tenants}: {len(completed)} studies completed, "
                f"expected {expected}"
            )
        ledgers.append(ledger_sha(completed))
    same_across_repeats(f"tenants={tenants} ledger", ledgers)
    cached = sum(c.cached_shards for c in completed)
    total_shards = sum(c.shard_count for c in completed)
    sim_days = service.clock.now / DAY
    wall = statistics.median(walls)
    print(
        f"  tenants={tenants}: {len(completed)} studies in {wall:.2f}s wall "
        f"(median of {repeats}; {sim_days:.1f} simulated days), cache hit rate "
        f"{service.cache_hit_rate:.1%}",
        flush=True,
    )
    return {
        "tenants": tenants,
        "rounds": rounds,
        "shards_per_study": shards,
        "studies": len(completed),
        "cache_hit_rate": round(service.cache_hit_rate, 4),
        "cached_shards": cached,
        "executed_shards": total_shards - cached,
        "sim_seconds": round(service.clock.now, 3),
        "studies_per_sim_day": round(len(completed) / sim_days, 3) if sim_days else 0.0,
        "ledger_sha256": ledgers[0],
        "repeats": repeats,
        "wall_seconds": wall_block(walls),
        "studies_per_wall_hour": round(len(completed) / (wall / 3600.0), 1),
    }


def bench_resubmission(shards: int, workers: int, repeats: int = 1) -> dict:
    """The incremental headline: a verbatim re-run served 100% from cache."""
    timings: dict[str, list[float]] = {"cold": [], "warm": []}
    shas: list[str] = []
    for _ in range(repeats):
        service = Service(seed=7, workers=workers)
        for label in ("cold", "warm"):
            service.submit("acme", label, tenant_spec(0, shards))
            started = time.perf_counter()
            (done,) = service.run()
            timings[label].append(time.perf_counter() - started)
            shas.append(done.summary_sha)
    same_across_repeats("re-submission dataset SHA (cold and warm)", shas)
    cold = statistics.median(timings["cold"])
    warm = statistics.median(timings["warm"])
    print(f"  resubmission: cold {cold:.3f}s, warm {warm:.3f}s (medians)", flush=True)
    return {
        "shards": shards,
        "dataset_summary_sha256": shas[0],
        "cache_hit_rate": round(service.cache_hit_rate, 4),
        "repeats": repeats,
        "wall_seconds": {label: wall_block(timings[label]) for label in ("cold", "warm")},
        "speedup": round(cold / max(warm, 1e-9), 1),
    }


def dirty_shards(spec: StudySpec, grown: StudySpec) -> list[int]:
    """The shards whose plan slices differ between two specs' plans."""
    world = build_world(spec.config, spec.countries)
    before = partition_plans(compute_plans(world, spec), spec.shards)
    after = partition_plans(compute_plans(world, grown), grown.shards)
    return [index for index in range(spec.shards) if before[index] != after[index]]


def bench_partial_hit(workers: int, repeats: int = 1) -> dict:
    """A re-crawl that mixes executed and cached shards in one study."""
    first, second = (
        replace(tenant_spec(0, PARTIAL_SHARDS), max_probes=cap) for cap in PARTIAL_MAX_PROBES
    )
    dirty = dirty_shards(first, second)
    timings: dict[str, list[float]] = {"first": [], "recrawl": []}
    ledgers: list[str] = []
    for _ in range(repeats):
        service = Service(seed=7, workers=workers)
        completed = []
        for label, spec in (("first", first), ("recrawl", second)):
            service.submit("acme", label, spec)
            started = time.perf_counter()
            (done,) = service.run()
            timings[label].append(time.perf_counter() - started)
            completed.append(done)
        ledgers.append(ledger_sha(completed))
    same_across_repeats("partial-hit ledger", ledgers)
    recrawl = completed[-1]
    executed = recrawl.shard_count - recrawl.cached_shards
    if executed != len(dirty):
        raise SystemExit(
            f"partial hit executed {executed} shards; the plans changed {dirty}"
        )
    print(
        f"  partial hit: {recrawl.cached_shards}/{recrawl.shard_count} shards cached, "
        f"re-crawl {statistics.median(timings['recrawl']):.3f}s (median)",
        flush=True,
    )
    return {
        "shards": PARTIAL_SHARDS,
        "max_probes": list(PARTIAL_MAX_PROBES),
        "dirty_shards": dirty,
        "executed_shards": executed,
        "cached_shards": recrawl.cached_shards,
        "ledger_sha256": ledgers[0],
        "repeats": repeats,
        "wall_seconds": {label: wall_block(timings[label]) for label in timings},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tenants", default=",".join(str(t) for t in TENANT_COUNTS),
        help=f"comma-separated tenant counts (default: "
        f"{','.join(str(t) for t in TENANT_COUNTS)})",
    )
    parser.add_argument("--rounds", type=int, default=3, help="re-crawl rounds per tenant")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="service worker processes (results identical for any value)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="fresh services per point; wall times report min and median (default: 3)",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_serve.json"),
        help="output path (default: results/BENCH_serve.json)",
    )
    args = parser.parse_args(argv)
    counts = [int(part) for part in args.tenants.split(",") if part.strip()]

    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    payload: dict = {
        "benchmark": "serve-continuous-measurement",
        "host": host(),
        "rounds": args.rounds,
        "tenant_points": {},
    }
    for tenants in counts:
        print(f"benchmarking {tenants} concurrent tenant(s) ...", flush=True)
        payload["tenant_points"][str(tenants)] = bench_tenants(
            tenants, args.rounds, args.shards, args.workers, args.repeats
        )
    print("benchmarking verbatim re-submission (cold vs warm) ...", flush=True)
    payload["resubmission"] = bench_resubmission(args.shards, args.workers, args.repeats)
    print("benchmarking a partial-hit re-crawl ...", flush=True)
    payload["partial_hit"] = bench_partial_hit(args.workers, args.repeats)

    mean_rate = statistics.mean(
        point["cache_hit_rate"] for point in payload["tenant_points"].values()
    )
    payload["mean_cache_hit_rate"] = round(mean_rate, 4)

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
