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
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.luminati.registry import zid_index, zid_of


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

    def owns(self, zid: str) -> bool:
        """Whether this shard is responsible for measuring the node."""
        return shard_of(zid, self.count) == self.index


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


def partition_plan(plan: Sequence[str], shard_count: int) -> list[tuple[str, ...]]:
    """Split an ordered zID plan into per-shard sub-plans.

    Plan order is preserved within each shard, so a shard's visit order is
    the global plan order restricted to its members — canonical regardless
    of which worker executes it.
    """
    buckets: list[list[str]] = [[] for _ in range(shard_count)]
    for zid in plan:
        buckets[shard_of(zid, shard_count)].append(zid)
    return [tuple(bucket) for bucket in buckets]


def partition_plans(
    plans: Mapping[str, Sequence[str]], shard_count: int
) -> list[dict[str, tuple[str, ...]]]:
    """Partition several experiments' plans with one consistent node split.

    Because membership hashes the zID alone, a node measured by multiple
    experiments always lands in the same shard for all of them — one shard
    world replays everything about that node.
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


class PlanSlice(Sequence[str]):
    """One shard's ordered zID plan, packed as u32 node indices.

    Shipping a paper-scale plan to worker processes as zID strings costs
    ~20 bytes per node in pickle transport; canonical zIDs round-trip
    through their integer index, so the slice stores 4 bytes per node and
    re-renders the strings lazily on the worker.  Iteration order — the
    shard's execution order — is exactly the sequence it was built from.

    Plans containing any non-canonical zID (tests exercise corrupted-plan
    handling) fall back to storing the strings verbatim.
    """

    __slots__ = ("_packed", "_verbatim")

    def __init__(self, zids: Sequence[str]) -> None:
        packed = array("I")
        self._verbatim: Optional[tuple[str, ...]] = None
        for zid in zids:
            index = zid_index(zid)
            if index is None:
                self._verbatim = tuple(zids)
                packed = None
                break
            packed.append(index)
        self._packed: Optional[array] = packed

    def __len__(self) -> int:
        if self._verbatim is not None:
            return len(self._verbatim)
        return len(self._packed)

    def __getitem__(self, position):
        if self._verbatim is not None:
            return self._verbatim[position]
        if isinstance(position, slice):
            return tuple(zid_of(index) for index in self._packed[position])
        return zid_of(self._packed[position])

    def __iter__(self) -> Iterator[str]:
        if self._verbatim is not None:
            return iter(self._verbatim)
        return (zid_of(index) for index in self._packed)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PlanSlice):
            return self._verbatim == other._verbatim and self._packed == other._packed
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"PlanSlice(<{len(self)} nodes>)"

    # array pickles efficiently by itself; __reduce__ keeps the slots stable.
    def __reduce__(self):
        if self._verbatim is not None:
            return (PlanSlice, (self._verbatim,))
        return (_plan_slice_from_packed, (self._packed.tobytes(),))


def _plan_slice_from_packed(payload: bytes) -> PlanSlice:
    """Rebuild a :class:`PlanSlice` from its packed u32 byte form."""
    plan = PlanSlice(())
    plan._packed.frombytes(payload)
    return plan


def merged_plan_size(plans: Mapping[str, Iterable[str]]) -> int:
    """Total planned measurements across experiments (for metrics/manifest)."""
    return sum(len(tuple(plan)) for plan in plans.values())
