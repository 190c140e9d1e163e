"""Pinned benchmark identities that are cheap enough to re-derive in tier 1.

``results/BENCH_serve.json`` pins a ledger SHA-256 per tenant count: a hash
over every completed study's ``(tenant, name, occurrence, run digest,
dataset SHA)``.  It moves whenever a run digest or dataset does, so the
1-tenant wave (three daily re-crawls of one tenant) is replayed here and
compared with its pin, together with the verbatim re-submission (cold and
warm must both give the pinned dataset SHA) and the partial-hit re-crawl
(executed and cached shard counts and its ledger).

``perfbench/spans.py`` times each executed shard by wrapping the engine's
shard entry points by name in ``repro.engine.study``; the span tests check
that every way of running a study still goes through a wrapped name.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.engine import SerialExecutor, run_study
from repro.faults.service import ServiceFaultPlan, ServiceFaultProfile
from repro.serve import MemoryShardCache
from repro.sim import build_world

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_serve():
    return _load("bench_serve", ROOT / "benchmarks" / "bench_serve.py")


@pytest.fixture(scope="module")
def spans():
    return _load("perfbench_spans", ROOT / "perfbench" / "spans.py")


@pytest.fixture(scope="module")
def pinned():
    return json.loads((ROOT / "results" / "BENCH_serve.json").read_text(encoding="utf-8"))


def test_one_tenant_serve_ledger_matches_pin(bench_serve, pinned):
    point = pinned["tenant_points"]["1"]
    block = bench_serve.bench_tenants(
        1, point["rounds"], point["shards_per_study"], workers=1
    )
    assert block["ledger_sha256"] == point["ledger_sha256"]
    assert block["sim_seconds"] == point["sim_seconds"]
    assert block["cached_shards"] == point["cached_shards"]


def test_resubmission_matches_pin(bench_serve, pinned):
    # The point exits non-zero unless cold and warm give one dataset SHA.
    point = pinned["resubmission"]
    block = bench_serve.bench_resubmission(point["shards"], workers=1)
    assert block["dataset_summary_sha256"] == point["dataset_summary_sha256"]
    assert block["cache_hit_rate"] == point["cache_hit_rate"]


def test_partial_hit_matches_pin(bench_serve, pinned):
    point = pinned["partial_hit"]
    block = bench_serve.bench_partial_hit(workers=1)
    for key in ("dirty_shards", "executed_shards", "cached_shards", "ledger_sha256"):
        assert block[key] == point[key], key
    assert 0 < block["cached_shards"] < block["shards"]


@pytest.mark.parametrize("mode", ["cache-free", "cache", "contained"])
def test_perfbench_records_one_span_per_executed_shard(bench_serve, spans, mode):
    spec = bench_serve.tenant_spec(0, 4)
    world = build_world(spec.config, spec.countries)
    options: dict = {}
    if mode == "cache":
        options["shard_cache"] = MemoryShardCache()
    elif mode == "contained":
        zero = ServiceFaultProfile(name="zero")
        options["faults"] = ServiceFaultPlan.for_service(7, 3, zero)
        options["shard_attempts"] = 2
    with spans.LayerTrace() as trace:
        run = run_study(
            spec, executor=SerialExecutor(), world=world, analyses=False, **options
        )
    assert not run.degraded
    assert trace.span_count("shard") == 4
