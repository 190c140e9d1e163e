"""Shared fixtures: worlds at several scales.

``tiny_world`` is a hand-specified three-country world with every violation
class planted at high rates — fast to build and crawl, used by experiment
tests that need planted-vs-measured comparisons.  ``small_world`` is the full
profile universe at 1% scale, used by structural/integration tests.
Session-scoped: experiments only append to logs and advance the clock, which
the assertions tolerate.  :func:`crash_checkpoint` rebuilds the shard cache
a study killed mid-run leaves behind, for the crash/resume tests.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.serve import DiskShardCache, decode_entry
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import (
    CountrySpec,
    IspSpec,
    PathHijackSpec,
    ResolverHijackSpec,
    TranscoderSpec,
)


def tiny_country_specs() -> tuple[CountrySpec, ...]:
    """Three countries exercising every planted behaviour, ~2K nodes total."""
    return (
        CountrySpec(
            code="US",
            population=900,
            isps=(
                IspSpec(
                    name="HijackNet",
                    share=0.3,
                    major_resolvers=3,
                    major_resolver_nodes=200,
                    resolver_hijack=ResolverHijackSpec("search.hijacknet.example"),
                    path_hijack=PathHijackSpec("search.hijacknet.example"),
                    external_dns_fraction=0.15,
                ),
                IspSpec(name="CleanNet", share=0.4, external_dns_fraction=0.2),
            ),
        ),
        CountrySpec(
            code="GB",
            population=700,
            isps=(
                IspSpec(
                    name="WatchfulISP",
                    share=0.5,
                    monitor="TalkTalk",
                    monitor_rate=0.45,
                    monitor_ip_count=3,
                ),
            ),
        ),
        CountrySpec(
            code="TR",
            population=400,
            isps=(
                IspSpec(
                    name="MobileSqueeze",
                    population=60,
                    mobile=True,
                    fixed_asn=64601,
                    transcoder=TranscoderSpec((0.5,), 0.9),
                ),
            ),
        ),
    )


@pytest.fixture(scope="session")
def tiny_world():
    """A deterministic ~2K-node world with all behaviours planted."""
    config = WorldConfig(scale=1.0, seed=7, include_rare_tail=False, alexa_countries=3)
    return build_world(config, countries=tiny_country_specs())


@pytest.fixture(scope="session")
def small_world():
    """The full profile universe at 1% scale (~9K nodes plus floored ISPs)."""
    return build_world(WorldConfig(scale=0.01, seed=11))


@pytest.fixture()
def fresh_tiny_world():
    """A function-scoped tiny world for tests that mutate global state."""
    config = WorldConfig(scale=1.0, seed=7, include_rare_tail=False, alexa_countries=3)
    return build_world(config, countries=tiny_country_specs())


def crash_checkpoint(
    complete: pathlib.Path, crashed: pathlib.Path, shards_done: int
) -> DiskShardCache:
    """The shard cache a study killed after ``shards_done`` shards leaves.

    ``complete`` is the cache directory of an uninterrupted run.  The entries
    of shards ``0 .. shards_done - 1`` are copied intact.  The next shard died
    while it was being stored, so its entry is torn: truncated in place when
    ``shards_done`` is even, and an orphaned ``*.json.tmp`` (a put killed
    before its rename) when it is odd.
    """
    crashed.mkdir(parents=True)
    for entry in sorted(complete.glob("*.json")):
        text = entry.read_text(encoding="utf-8")
        index = decode_entry(text)["index"]
        if index < shards_done:
            shutil.copy(entry, crashed / entry.name)
        elif index == shards_done:
            torn = entry.name if shards_done % 2 == 0 else f"{entry.name}.tmp"
            (crashed / torn).write_text(text[: len(text) // 2], encoding="utf-8")
    return DiskShardCache(crashed)
