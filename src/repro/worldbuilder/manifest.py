"""The world manifest: a canonical-JSON fingerprint of a world's topology.

A world is a pure function of ``(WorldConfig, countries)``; the manifest
serializes that pair — with ``countries=None`` expanded to the default
profile universe — as canonical JSON (sorted keys, fixed separators) and
hashes it with SHA-256.  The SHA rides run metrics the way
``fault_profile`` does: two runs agree on it exactly when they measured the
same world.  Resume needs no separate check: the shard-cache key
(:func:`repro.engine.study.shard_cache_key`) hashes the same
``(WorldConfig, countries)`` pair, so a checkpoint written against a
different world can only miss.

The function lives here, not in the compiler, because both sides need it:
the engine stamps every run (legacy and compiled worlds alike), and the
compiler emits the same manifest for the world it renders — identical
topologies get identical SHAs no matter which path declared them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Optional, Sequence

from repro.sim.config import WorldConfig
from repro.sim.profiles import CountrySpec
from repro.sim.world import default_country_universe

#: Bump when the manifest's shape changes incompatibly.
MANIFEST_VERSION = 1


def expand_universe(
    countries: Optional[Sequence[CountrySpec]],
) -> tuple[CountrySpec, ...]:
    """The concrete country universe a build with these ``countries`` uses."""
    if countries is None:
        return default_country_universe()
    return tuple(countries)


def world_manifest(
    config: WorldConfig, countries: Optional[Sequence[CountrySpec]] = None
) -> dict:
    """The JSON-able manifest of the world ``(config, countries)`` builds.

    ``countries`` follows :func:`repro.sim.build_world`'s convention:
    ``None`` means the default profile universe, which is expanded here so
    the manifest always records the *resolved* topology.
    """
    rendered = asdict(config)
    if config.fault_profile == "none":
        # Zero-fault identity: without a profile the fault seed is inert
        # (the "none" plan draws nothing), so two configs differing only in
        # it build byte-identical worlds and must share a manifest.  With a
        # profile active the seed shapes every keyed fault draw and stays
        # part of the identity.
        rendered["fault_seed"] = 0
    return {
        "version": MANIFEST_VERSION,
        "config": rendered,
        "countries": [asdict(spec) for spec in expand_universe(countries)],
    }


def canonical_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace — one byte form per value."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def manifest_sha256(
    config: WorldConfig, countries: Optional[Sequence[CountrySpec]] = None
) -> str:
    """SHA-256 over the canonical manifest of ``(config, countries)``."""
    return hashlib.sha256(
        canonical_json(world_manifest(config, countries)).encode("utf-8")
    ).hexdigest()
