"""Deterministic partitioning of the exit-node pool.

A study run splits its iteration plan into shards by hashing each zID with a
stable (process- and platform-independent) hash, so the shard a node lands in
is a pure function of ``(zid, shard_count)`` — never of worker scheduling,
``PYTHONHASHSEED``, or how many times the run was resumed.  Each shard also
carries a seed derived from the study seed and its index, so its private
world-replay consumes an RNG stream no other shard touches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence


def stable_digest(*parts: object) -> str:
    """A hex SHA-256 over the parts' text forms (order-sensitive)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()


def shard_of(zid: str, shard_count: int) -> int:
    """The shard index a zID belongs to: stable across processes and runs."""
    if shard_count <= 0:
        raise ValueError(f"shard_count must be positive: {shard_count}")
    digest = hashlib.sha256(zid.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


def derive_seed(base: object, *parts: object) -> int:
    """A child seed derived from a base seed and a label path.

    Distinct label paths yield independent streams; the derivation is stable
    text hashing, so it survives process boundaries and crash resumes.
    """
    return int(stable_digest(base, *parts)[:16], 16)


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One shard's identity within a run."""

    index: int
    count: int
    seed: int


def make_shard_specs(study_seed: int, shard_count: int) -> tuple[ShardSpec, ...]:
    """All shard specs for a run, each with its derived seed."""
    return tuple(
        ShardSpec(
            index=index,
            count=shard_count,
            seed=derive_seed(study_seed, "shard", index, shard_count),
        )
        for index in range(shard_count)
    )


def partition_plans(
    plans: Mapping[str, Sequence[str]], shard_count: int
) -> list[dict[str, tuple[str, ...]]]:
    """Partition several experiments' plans with one consistent node split.

    Because membership hashes the zID alone, a node measured by multiple
    experiments always lands in the same shard for all of them — one shard
    world replays everything about that node.  Plan order is preserved
    within each shard, so a shard's visit order is the global plan order
    restricted to its members, whichever worker executes it.
    """
    if shard_count <= 0:
        raise ValueError(f"shard_count must be positive: {shard_count}")
    # A node usually appears in several experiments' plans; hash it once.
    shard_cache: dict[str, int] = {}
    sharded: dict[str, list[tuple[str, ...]]] = {}
    for name, plan in plans.items():
        buckets: list[list[str]] = [[] for _ in range(shard_count)]
        for zid in plan:
            index = shard_cache.get(zid)
            if index is None:
                index = shard_cache[zid] = shard_of(zid, shard_count)
            buckets[index].append(zid)
        sharded[name] = [tuple(bucket) for bucket in buckets]
    return [
        {name: sharded[name][index] for name in plans}
        for index in range(shard_count)
    ]
