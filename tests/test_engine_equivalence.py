"""Satellite property: engine results are executor-independent.

The same world + seed must produce **byte-identical** dataset summaries
whether the full plan runs as one ``run_shard`` call with no executor, on
the engine with one worker, or on the engine with a process pool — and, at
a fixed shard count, for every worker count.  Shard count itself is part
of a run's identity (per-shard worlds replay different timing histories),
which the digest tests pin down.
"""

from dataclasses import replace

import pytest

from repro.engine import (
    ShardTask,
    StudySpec,
    compute_plans,
    dataset_summary,
    make_shard_specs,
    run_digest,
    run_shard,
    run_study,
    shard_cache_key,
)
from repro.engine.experiments import EXPERIMENT_ORDER
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec, IspSpec, ResolverHijackSpec

ENGINE_COUNTRIES = (
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

ENGINE_CONFIG = WorldConfig(
    scale=1.0,
    seed=11,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)


def engine_spec(shards: int, workers: int) -> StudySpec:
    return StudySpec(
        config=ENGINE_CONFIG,
        countries=ENGINE_COUNTRIES,
        seed=9,
        shards=shards,
        workers=workers,
        window=40,
    )


@pytest.fixture(scope="module")
def coordinator_world():
    """One coordinator world shared by every run (plans only, never measured)."""
    return build_world(ENGINE_CONFIG, ENGINE_COUNTRIES)


@pytest.fixture(scope="module")
def sharded_one_worker(coordinator_world):
    return run_study(engine_spec(3, 1), world=coordinator_world, analyses=False)


@pytest.fixture(scope="module")
def single_shard_run(coordinator_world):
    return run_study(engine_spec(1, 1), world=coordinator_world, analyses=False)


class TestWorkerEquivalence:
    def test_serial_legacy_path_matches_engine(self, coordinator_world, single_shard_run):
        # One world, one pass over the full plan in plan order: no executor,
        # no packed plan slices, no result dict.
        spec = engine_spec(1, 1)
        plans = compute_plans(coordinator_world, spec)
        (shard_spec,) = make_shard_specs(spec.seed, 1)
        task = ShardTask(
            config=spec.config,
            countries=spec.countries,
            spec=shard_spec,
            plans=tuple((name, plans[name]) for name in EXPERIMENT_ORDER),
            retry=spec.retry,
            validity=spec.validity,
        )
        datasets, _metrics, _obs = run_shard(task)
        assert dataset_summary(datasets) == single_shard_run.dataset_summary()

    def test_process_pool_matches_single_worker(self, coordinator_world, single_shard_run):
        pooled = run_study(engine_spec(1, 4), world=coordinator_world, analyses=False)
        assert pooled.dataset_summary() == single_shard_run.dataset_summary()

    def test_sharded_worker_count_invariance(self, coordinator_world, sharded_one_worker):
        pooled = run_study(engine_spec(3, 2), world=coordinator_world, analyses=False)
        assert pooled.dataset_summary() == sharded_one_worker.dataset_summary()

    def test_metrics_identical_up_to_worker_count(
        self, coordinator_world, sharded_one_worker
    ):
        pooled = run_study(engine_spec(3, 2), world=coordinator_world, analyses=False)
        a = sharded_one_worker.report.to_dict()
        b = pooled.report.to_dict()
        assert a.pop("worker_count") == 1
        assert b.pop("worker_count") == 2
        assert a == b

    def test_rerun_is_bit_identical(self, coordinator_world, sharded_one_worker):
        again = run_study(engine_spec(3, 1), world=coordinator_world, analyses=False)
        assert again.dataset_summary() == sharded_one_worker.dataset_summary()
        assert again.metrics_json() == sharded_one_worker.metrics_json()


class TestRunIdentity:
    def test_corpus_is_not_part_of_a_task(self, coordinator_world):
        # Shard tasks carry the coordinator's corpus so replays need not
        # regenerate it; it is a function of the config, so it must not
        # move a task's identity or its cache key.
        spec = engine_spec(1, 1)
        plans = compute_plans(coordinator_world, spec)
        (shard_spec,) = make_shard_specs(spec.seed, 1)
        bare = ShardTask(
            config=spec.config,
            countries=spec.countries,
            spec=shard_spec,
            plans=tuple((name, plans[name]) for name in EXPERIMENT_ORDER),
            retry=spec.retry,
            validity=spec.validity,
        )
        carried = replace(bare, corpus=coordinator_world.corpus)
        assert carried == bare and hash(carried) == hash(bare)
        assert repr(carried) == repr(bare)
        assert shard_cache_key(carried) == shard_cache_key(bare)

    def test_digest_ignores_workers(self, coordinator_world):
        plans = compute_plans(coordinator_world, engine_spec(3, 1))
        assert run_digest(engine_spec(3, 1), plans) == run_digest(engine_spec(3, 4), plans)

    def test_digest_tracks_shards_and_seed(self, coordinator_world):
        plans = compute_plans(coordinator_world, engine_spec(3, 1))
        assert run_digest(engine_spec(3, 1), plans) != run_digest(engine_spec(4, 1), plans)
        other = StudySpec(
            config=ENGINE_CONFIG,
            countries=ENGINE_COUNTRIES,
            seed=10,
            shards=3,
            workers=1,
            window=40,
        )
        assert run_digest(engine_spec(3, 1), plans) != run_digest(other, plans)

    def test_plan_covers_every_experiment(self, coordinator_world):
        plans = compute_plans(coordinator_world, engine_spec(3, 1))
        assert set(plans) == {"dns", "http", "https", "monitoring"}
        assert all(plans.values())


class TestMergedResults:
    def test_sharded_coverage_matches_single_shard(
        self, sharded_one_worker, single_shard_run
    ):
        # Different shard counts replay different timing histories, so the
        # records differ in detail — but both must measure the same planned
        # node set for each experiment.
        for name in ("dns", "http", "https", "monitoring"):
            sharded = {r.zid for r in sharded_one_worker.datasets[name].records}
            single = {r.zid for r in single_shard_run.datasets[name].records}
            planned = set(sharded_one_worker.plans[name])
            assert sharded <= planned
            # Retries keep transient churn from costing coverage.
            assert len(sharded) >= 0.97 * len(planned)
            assert len(sharded ^ single) <= 0.05 * len(planned)

    def test_analyses_run_on_merged_datasets(self, coordinator_world):
        run = run_study(engine_spec(2, 1), world=coordinator_world)
        assert run.results is not None
        assert run.results.dns.node_count > 0
        assert run.results.engine_report is not None
        assert run.results.engine_report["shard_count"] == 2
        # The planted AlphaNet hijack must survive sharded execution.
        assert run.results.dns.hijacked_count > 0
