"""Pinned benchmark identities that are cheap enough to re-derive in tier 1.

``results/BENCH_serve.json`` pins a ledger SHA-256 per tenant count: a hash
over every completed study's ``(tenant, name, occurrence, run digest,
dataset SHA)``.  It moves whenever a run digest or dataset does, so the
1-tenant wave (three daily re-crawls of one tenant) is replayed here and
compared with its pin.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_bench_serve():
    path = ROOT / "benchmarks" / "bench_serve.py"
    spec = importlib.util.spec_from_file_location("bench_serve", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tenant_serve_ledger_matches_pin():
    pinned = json.loads((ROOT / "results" / "BENCH_serve.json").read_text(encoding="utf-8"))
    point = pinned["tenant_points"]["1"]
    block = _load_bench_serve().bench_tenants(
        1, point["rounds"], point["shards_per_study"], workers=1
    )
    assert block["ledger_sha256"] == point["ledger_sha256"]
    assert block["sim_seconds"] == point["sim_seconds"]
    assert block["cached_shards"] == point["cached_shards"]
