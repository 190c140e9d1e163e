"""The digest-keyed shard cache: keys, hits, atomicity, corruption policy.

The cache's contract is that a hit is bit-for-bit equivalent to
re-execution, which reduces to two properties tested here: the key covers
*everything* the shard's output depends on (so any relevant change misses),
and storage round-trips the result exactly (so a hit returns what was
stored, even across processes and crashes).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine.retry import RetryPolicy
from repro.engine.runner import ShardTask
from repro.engine.sharding import ShardSpec
from repro.engine.study import shard_cache_key
from repro.faults.service import ServiceFaultPlan, get_service_profile
from repro.serve import DiskShardCache, MemoryShardCache, decode_entry, encode_entry
from repro.serve.cache import CACHE_ENVELOPE_VERSION
from repro.sim import WorldConfig


def make_task(**overrides) -> ShardTask:
    params = dict(
        config=WorldConfig(scale=0.01, seed=11),
        countries=None,
        spec=ShardSpec(index=0, count=2, seed=123),
        plans=(("dns", ("z-aa-0", "z-aa-1")), ("http", ("z-bb-0",))),
        retry=RetryPolicy(),
    )
    params.update(overrides)
    return ShardTask(**params)


class TestShardCacheKey:
    def test_stable_across_reconstruction(self):
        assert shard_cache_key(make_task()) == shard_cache_key(make_task())

    def test_sensitive_to_world_config(self):
        base = shard_cache_key(make_task())
        other = make_task(config=WorldConfig(scale=0.01, seed=12))
        assert shard_cache_key(other) != base

    def test_sensitive_to_fault_seed(self):
        base = shard_cache_key(make_task())
        faulted = make_task(
            config=WorldConfig(scale=0.01, seed=11, fault_profile="mild", fault_seed=3)
        )
        refaulted = make_task(
            config=WorldConfig(scale=0.01, seed=11, fault_profile="mild", fault_seed=4)
        )
        assert shard_cache_key(faulted) != base
        assert shard_cache_key(faulted) != shard_cache_key(refaulted)

    def test_sensitive_to_shard_identity_and_plans(self):
        base = shard_cache_key(make_task())
        assert shard_cache_key(make_task(spec=ShardSpec(1, 2, 123))) != base
        assert shard_cache_key(make_task(spec=ShardSpec(0, 3, 123))) != base
        assert (
            shard_cache_key(make_task(plans=(("dns", ("z-aa-0",)),))) != base
        )

    def test_sensitive_to_obs_level(self):
        # The cached payload embeds per-shard obs output, so the requested
        # level must be part of the key — a trace run never reuses an
        # off-run's (traceless) entry.
        assert shard_cache_key(make_task(obs="trace")) != shard_cache_key(make_task())

    def test_blind_to_containment(self):
        # A retried or faulted shard computes what a clean run computes, so
        # it must hit the entries a clean run wrote.
        plan = ServiceFaultPlan.for_service(7, 3, get_service_profile("chaos"))
        contained = make_task(attempt=3, faults=plan, contain=True)
        assert shard_cache_key(contained) == shard_cache_key(make_task())


class TestMemoryShardCache:
    def test_miss_then_hit(self):
        cache = MemoryShardCache()
        assert cache.get("k") is None
        cache.put("k", {"index": 0})
        assert cache.get("k") == {"index": 0}
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (1, 1, 1)

    def test_hit_rate(self):
        cache = MemoryShardCache()
        assert cache.stats.hit_rate == 0.0
        cache.put("k", {})
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_rate == 0.5


class TestDiskShardCache:
    def test_roundtrip_is_exact(self, tmp_path):
        cache = DiskShardCache(tmp_path / "cache")
        payload = {"index": 3, "datasets": {"dns": [{"zid": "z-aa-0"}]}, "metrics": {}}
        cache.put("deadbeef", payload)
        assert cache.get("deadbeef") == payload

    def test_persists_across_instances(self, tmp_path):
        DiskShardCache(tmp_path / "cache").put("k", {"index": 1})
        reopened = DiskShardCache(tmp_path / "cache")
        assert reopened.get("k") == {"index": 1}
        assert len(reopened) == 1

    def test_no_temp_files_survive_a_put(self, tmp_path):
        cache = DiskShardCache(tmp_path / "cache")
        cache.put("k", {"index": 1})
        assert list((tmp_path / "cache").glob("*.tmp")) == []

    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path):
        cache = DiskShardCache(tmp_path / "cache")
        torn = tmp_path / "cache" / "k.json"
        torn.write_text('{"index": ', encoding="utf-8")  # crashed mid-write
        assert cache.get("k") is None
        assert not torn.exists()
        assert cache.stats.misses == 1

    def test_entries_are_canonical_json(self, tmp_path):
        cache = DiskShardCache(tmp_path / "cache")
        cache.put("k", {"z": 1, "a": [2, 3]})
        raw = (tmp_path / "cache" / "k.json").read_text(encoding="utf-8")
        assert raw == json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":"))


def reference_envelope(result: dict) -> str:
    """The envelope built as a dict and canonically encoded as a whole."""
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {
            "payload": result,
            "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "v": CACHE_ENVELOPE_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


ENVELOPE_PAYLOADS = {
    "empty": {},
    "shard-shaped": {
        "kind": "shard",
        "index": 2,
        "datasets": {"dns": {"records": [{"zid": "z-aa-0", "ip": "10.0.0.1"}]}},
        "metrics": {"sim_seconds": 12.5, "traffic_gb": 1e-09},
        "obs": {"trace": '{"kind":"span","name":"shard.run"}\n{"seq":1}\n'},
    },
    "escape-heavy": {
        "quote": '"',
        "backslash": "\\",
        "controls": "\n\t\r\b\f\x00\x1f\x7f",
        "markup": "</script><!--",
        'key "with" \\ escapes': ["\u2028\u2029"],
    },
    "non-ascii": {
        "city": "Zürich",
        "mixed": "東京 ✓ 😀",
        "ключ": ["é", {"ß": None}],
    },
    "numbers": {"floats": [0.1, 1e-300, -0.0, 1e21, 2.5e-07], "ints": [0, -1, 2**63]},
}


class TestEnvelope:
    @pytest.mark.parametrize("name", sorted(ENVELOPE_PAYLOADS))
    def test_spliced_envelope_matches_the_dict_encoding(self, name):
        result = ENVELOPE_PAYLOADS[name]
        assert encode_entry(result) == reference_envelope(result)
        assert decode_entry(encode_entry(result)) == result
