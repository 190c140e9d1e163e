"""Tentpole acceptance: chaos replays bit-for-bit, and zero faults change nothing.

Three properties pin the fault plane down:

* a chaos-profile run is byte-identical for any worker count at a fixed
  shard split, and across crash/resume;
* the ``none`` profile is inert — its output ignores ``fault_seed``
  entirely and matches a config that never mentions faults;
* the fault profile and seed are part of a run's identity (digest); the
  shard-cache key hashes them too, so a checkpoint from a different chaos
  history can only miss (``tests/test_engine_checkpoint.py``).
"""

import pytest

from repro.engine import StudySpec, compute_plans, run_digest, run_study
from repro.serve import SHARD_CACHE_DIR, DiskShardCache
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec
from tests.conftest import crash_checkpoint

FAULT_COUNTRIES = (
    CountrySpec(code="AA", population=220),
    CountrySpec(code="BB", population=160),
)

_BASE = dict(
    scale=1.0,
    seed=17,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)

CHAOS_CONFIG = WorldConfig(fault_profile="chaos", fault_seed=5, **_BASE)
QUIET_CONFIG = WorldConfig(**_BASE)


def chaos_spec(shards: int, workers: int) -> StudySpec:
    return StudySpec(
        config=CHAOS_CONFIG,
        countries=FAULT_COUNTRIES,
        seed=23,
        shards=shards,
        workers=workers,
        window=40,
    )


@pytest.fixture(scope="module")
def chaos_world():
    return build_world(CHAOS_CONFIG, FAULT_COUNTRIES)


@pytest.fixture(scope="module")
def chaos_one_worker(chaos_world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chaos") / SHARD_CACHE_DIR
    run = run_study(
        chaos_spec(3, 1),
        shard_cache=DiskShardCache(directory),
        world=chaos_world,
        analyses=False,
    )
    return run, directory


class TestChaosWorkerEquivalence:
    def test_faults_actually_fired(self, chaos_one_worker):
        run, _ = chaos_one_worker
        report = run.report.to_dict()
        assert sum(report["failure_kinds"].values()) > 0

    def test_process_pool_matches_single_worker(self, chaos_world, chaos_one_worker):
        run, _ = chaos_one_worker
        pooled = run_study(chaos_spec(3, 4), world=chaos_world, analyses=False)
        assert pooled.dataset_summary() == run.dataset_summary()

    def test_metrics_identical_up_to_worker_count(self, chaos_world, chaos_one_worker):
        run, _ = chaos_one_worker
        pooled = run_study(chaos_spec(3, 2), world=chaos_world, analyses=False)
        a = run.report.to_dict()
        b = pooled.report.to_dict()
        assert a.pop("worker_count") == 1
        assert b.pop("worker_count") == 2
        assert a == b

    def test_rerun_is_bit_identical(self, chaos_world, chaos_one_worker):
        run, _ = chaos_one_worker
        again = run_study(chaos_spec(3, 1), world=chaos_world, analyses=False)
        assert again.dataset_summary() == run.dataset_summary()
        assert again.metrics_json() == run.metrics_json()


class TestChaosCrashResume:
    def test_resume_after_crash_matches_uninterrupted(
        self, chaos_world, chaos_one_worker, tmp_path
    ):
        full, directory = chaos_one_worker
        # Die after 1 of 3 shards, mid-write of the second.
        resumed = run_study(
            chaos_spec(3, 1),
            shard_cache=crash_checkpoint(directory, tmp_path / "crashed", 1),
            world=chaos_world,
            analyses=False,
        )
        assert resumed.cached_shards == 1
        assert resumed.dataset_summary() == full.dataset_summary()
        assert resumed.metrics_json() == full.metrics_json()


class TestZeroFaultIdentity:
    def test_fault_seed_is_inert_without_a_profile(self):
        seeded = WorldConfig(fault_seed=99, **_BASE)
        summaries = []
        for config in (QUIET_CONFIG, seeded):
            world = build_world(config, FAULT_COUNTRIES)
            spec = StudySpec(
                config=config,
                countries=FAULT_COUNTRIES,
                seed=23,
                shards=2,
                workers=1,
                window=40,
            )
            run = run_study(spec, world=world, analyses=False)
            summaries.append((run.dataset_summary(), run.metrics_json()))
        assert summaries[0] == summaries[1]

    def test_digest_tracks_fault_profile_and_seed(self, chaos_world):
        plans = compute_plans(chaos_world, chaos_spec(3, 1))
        base = run_digest(chaos_spec(3, 1), plans)
        quiet_spec = StudySpec(
            config=QUIET_CONFIG,
            countries=FAULT_COUNTRIES,
            seed=23,
            shards=3,
            workers=1,
            window=40,
        )
        reseeded_config = WorldConfig(fault_profile="chaos", fault_seed=6, **_BASE)
        reseeded_spec = StudySpec(
            config=reseeded_config,
            countries=FAULT_COUNTRIES,
            seed=23,
            shards=3,
            workers=1,
            window=40,
        )
        assert run_digest(quiet_spec, plans) != base
        assert run_digest(reseeded_spec, plans) != base
