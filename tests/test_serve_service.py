"""The Service daemon loop: byte-equivalence, incremental cache, crash/resume.

The headline contract under test: every engine study the service completes
is byte-identical — dataset summary, run digest, run metrics (up to the
digest-excluded worker count) — to the same spec run standalone, whether
the shards executed fresh, came from cache, or survived a crash.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

import repro.engine.study as engine_study
import repro.serve.service as service_module
from repro.engine import StudySpec, run_study
from repro.obs import parse_prometheus_text
from repro.serve import (
    QuotaExceeded,
    Recurrence,
    Service,
    SpecfileError,
    TenantPolicy,
    build_service,
    study_spec,
)
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec, IspSpec, ResolverHijackSpec

DAY = 86_400.0

SERVE_COUNTRIES = (
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

SERVE_CONFIG = WorldConfig(
    scale=1.0,
    seed=11,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)


def serve_spec(
    shards: int = 3, study_seed: int = 9, config: WorldConfig = SERVE_CONFIG
) -> StudySpec:
    return StudySpec(
        config=config,
        countries=SERVE_COUNTRIES,
        seed=study_seed,
        shards=shards,
        workers=1,
        window=40,
    )


def summary_sha(run) -> str:
    return hashlib.sha256(run.dataset_summary().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def coordinator_world():
    return build_world(SERVE_CONFIG, SERVE_COUNTRIES)


@pytest.fixture(scope="module")
def standalone(coordinator_world):
    """The reference: the same study run directly on the engine."""
    return run_study(serve_spec(), world=coordinator_world, analyses=False)


class TestByteEquivalence:
    def test_served_study_matches_standalone(self, standalone):
        service = Service(seed=3, keep_runs=True)
        submission = service.submit("acme", "baseline", serve_spec())
        (done,) = service.run()
        assert done.digest == standalone.digest
        assert done.summary_sha == summary_sha(standalone)
        run = service.runs[submission.sid]
        assert run.dataset_summary() == standalone.dataset_summary()
        mine = run.report.to_dict()
        theirs = standalone.report.to_dict()
        mine.pop("worker_count")
        theirs.pop("worker_count")
        assert mine == theirs

    def test_verbatim_resubmission_is_a_full_cache_hit(self, standalone):
        service = Service(seed=3, keep_runs=True)
        first_sub = service.submit("acme", "baseline", serve_spec())
        second_sub = service.submit("acme", "baseline", serve_spec())
        first, second = service.run()
        assert first.cached_shards == 0
        assert second.cached_shards == second.shard_count == 3
        assert second.digest == first.digest == standalone.digest
        assert second.summary_sha == first.summary_sha == summary_sha(standalone)
        # The merged outputs — datasets and metrics — are byte-identical:
        # cache reuse is unobservable in results.
        first_run = service.runs[first_sub.sid]
        second_run = service.runs[second_sub.sid]
        assert second_run.dataset_summary() == first_run.dataset_summary()
        assert second_run.metrics_json() == first_run.metrics_json()
        assert service.cache_hit_rate == 0.5

    def test_changed_inputs_miss_and_unchanged_inputs_still_hit(self):
        service = Service(seed=3)
        base = serve_spec(shards=2)
        service.submit("acme", "base", base)
        (done_base,) = service.run()
        assert done_base.cached_shards == 0

        # A different fault seed is a different measurement: full miss.
        faulted = serve_spec(
            shards=2,
            config=WorldConfig(
                scale=1.0,
                seed=11,
                include_rare_tail=False,
                alexa_countries=2,
                popular_sites_per_country=5,
                university_sites=3,
                fault_profile="mild",
                fault_seed=1,
            ),
        )
        service.submit("acme", "faulted", faulted)
        (done_faulted,) = service.run()
        assert done_faulted.cached_shards == 0
        assert done_faulted.summary_sha != done_base.summary_sha

        # A different world seed is a different world: full miss.
        reworlded = serve_spec(
            shards=2,
            config=WorldConfig(
                scale=1.0,
                seed=12,
                include_rare_tail=False,
                alexa_countries=2,
                popular_sites_per_country=5,
                university_sites=3,
            ),
        )
        service.submit("acme", "reworlded", reworlded)
        (done_reworlded,) = service.run()
        assert done_reworlded.cached_shards == 0

        # The original study still hits in full — the cache holds all three.
        service.submit("acme", "base-again", base)
        (done_again,) = service.run()
        assert done_again.cached_shards == 2
        assert done_again.summary_sha == done_base.summary_sha


class TestCrashResume:
    """Re-running the same queue against the same state dir IS the resume."""

    @staticmethod
    def submit_queue(service: Service) -> None:
        service.submit("acme", "one", serve_spec(shards=2, study_seed=9))
        service.submit("umich", "two", serve_spec(shards=2, study_seed=10))

    def test_resume_converges_on_byte_identical_results(self, tmp_path):
        # The uninterrupted reference run (no persistence).
        reference = Service(seed=3)
        self.submit_queue(reference)
        ref_done = reference.run()
        assert len(ref_done) == 2

        # Crash: the process dies after the first study completes.
        crashed = Service(seed=3, state_dir=tmp_path / "state")
        self.submit_queue(crashed)
        partial = crashed.run(max_studies=1)
        assert len(partial) == 1

        # Resume: a fresh process replays the same queue against the same
        # state dir.  The completed study's shards hit; only the unfinished
        # study executes.
        resumed = Service(seed=3, state_dir=tmp_path / "state")
        self.submit_queue(resumed)
        resumed_done = resumed.run()
        assert len(resumed_done) == 2
        assert resumed_done[0].cached_shards == resumed_done[0].shard_count

        for ref, res in zip(ref_done, resumed_done):
            assert res.digest == ref.digest
            assert res.summary_sha == ref.summary_sha
            assert res.completed_at == ref.completed_at  # same simulated history

        # The journal audited both runs: crash manifest + 1 study, then
        # resume manifest + 2 studies.
        studies = resumed.journal.studies()
        assert [record["sid"] for record in studies] == [0, 0, 1]

    def test_interrupted_run_leaves_a_reusable_cache(self, tmp_path):
        crashed = Service(seed=3, state_dir=tmp_path / "state")
        crashed.submit("acme", "one", serve_spec(shards=2))
        crashed.run(max_studies=1)

        resumed = Service(seed=3, state_dir=tmp_path / "state")
        resumed.submit("acme", "one", serve_spec(shards=2))
        (done,) = resumed.run()
        assert done.cached_shards == 2
        assert resumed.cache_hit_rate == 1.0


@pytest.fixture
def plannings(monkeypatch):
    """The study seed of every plan computation, counted through
    ``repro.engine.study.compute_plans`` — the name perfbench's ``plan``
    span wraps, so a service planning any other way would go uncounted."""
    seeds: list[int] = []
    original = engine_study.compute_plans

    def counted(world, spec):
        seeds.append(spec.seed)
        return original(world, spec)

    monkeypatch.setattr(engine_study, "compute_plans", counted)
    return seeds


def recrawl_wave(service: Service) -> list[dict]:
    """Two tenants, three daily re-crawls each; the full ledger."""
    for tenant, study_seed in (("acme", 9), ("umich", 10)):
        service.schedule(
            tenant, "daily", serve_spec(shards=2, study_seed=study_seed),
            Recurrence(interval=DAY, count=3),
        )
    return [study.to_dict() for study in service.run(until=10 * DAY)]


class TestPlanMemo:
    """Re-crawls reuse the plans their first crawl computed."""

    def test_each_plan_is_computed_once_through_the_engine(self, plannings):
        ledger = recrawl_wave(Service(seed=3))
        assert len(ledger) == 6
        assert sorted(plannings) == [9, 10]

    def test_memo_is_unobservable_in_the_ledger(self, plannings):
        class Unmemoized(Service):
            MAX_PLANS = 0

        unmemoized = recrawl_wave(Unmemoized(seed=3))
        assert len(plannings) == 6
        assert recrawl_wave(Service(seed=3)) == unmemoized
        assert len(plannings) == 8

    def test_memo_keeps_its_own_copy(self):
        service = Service(seed=3, keep_runs=True)
        runs = []
        for name in ("first", "second", "third"):
            submission = service.submit("acme", name, serve_spec(shards=2))
            service.run()
            runs.append(service.runs[submission.sid])
        expected = dict(runs[0].plans)
        # The first run filled the memo and the second was served from it;
        # mutating either run's plans must not reach the third.
        runs[0].plans.clear()
        assert runs[1].plans == expected
        runs[1].plans.clear()
        submission = service.submit("acme", "fourth", serve_spec(shards=2))
        service.run()
        assert service.runs[submission.sid].plans == expected

    def test_least_recently_used_plans_are_evicted(self, plannings):
        class TwoPlans(Service):
            MAX_PLANS = 2

        service = TwoPlans(seed=3)
        for study_seed in (1, 2, 1, 3, 1, 2):
            spec = serve_spec(shards=1, study_seed=study_seed)
            service.submit("acme", f"seed-{study_seed}", spec)
            service.run()
        # 1 and 2 fill the memo; 1 hits and becomes the most recent; 3
        # evicts 2; 1 hits again; 2 misses.
        assert plannings == [1, 2, 3, 2]


class TestCoordinatorEviction:
    def test_evicted_coordinator_drops_its_plans_and_reserves_the_same(
        self, monkeypatch, plannings
    ):
        builds: list[int] = []
        original = service_module.build_world

        def counted(config, countries):
            builds.append(config.seed)
            return original(config, countries)

        monkeypatch.setattr(service_module, "build_world", counted)
        configs = [replace(SERVE_CONFIG, seed=11 + i) for i in range(Service.MAX_WORLDS + 1)]
        service = Service(seed=3)
        for config in configs:
            service.submit("acme", f"world-{config.seed}", serve_spec(shards=2, config=config))
        first_serving = service.run()
        assert builds == [config.seed for config in configs]
        assert len(plannings) == len(configs)

        # The fifth world evicted the first coordinator, and with it the
        # first world's plans: re-serving it rebuilds and replans, and the
        # shard cache still serves every shard.
        service.submit("acme", "world-11", serve_spec(shards=2, config=configs[0]))
        (again,) = service.run()
        assert builds[len(configs):] == [11]
        assert len(plannings) == len(configs) + 1
        first = first_serving[0]
        assert (again.tenant, again.name, again.occurrence) == (
            first.tenant, first.name, first.occurrence
        )
        assert (again.digest, again.summary_sha) == (first.digest, first.summary_sha)
        assert again.cached_shards == again.shard_count == 2


class TestSchedulingAndMetrics:
    def test_recurring_study_fires_on_schedule(self):
        service = Service(seed=3)
        service.schedule(
            "acme", "daily", serve_spec(shards=2),
            Recurrence(interval=DAY, count=2),
        )
        done = service.run(until=10 * DAY)
        assert [study.occurrence for study in done] == [0, 1]
        assert done[0].submitted_at == 0.0
        assert done[1].submitted_at == DAY
        # The re-crawl is the same study, so it is served from cache —
        # incremental by construction.
        assert done[1].cached_shards == done[1].shard_count
        assert done[1].summary_sha == done[0].summary_sha

    def test_callable_jobs_share_the_queue(self):
        service = Service(seed=3)
        seen: list[float] = []

        def probe(svc: Service, _submission) -> dict:
            seen.append(svc.clock.now)
            return {"ok": True}

        service.schedule_callable(
            "ops", "probe", probe, Recurrence.once(at=500.0), sim_duration=10.0
        )
        done = service.run(until=1_000.0)
        assert seen == [500.0]
        assert len(done) == 1
        assert done[0].payload == {"ok": True}
        assert done[0].completed_at == 510.0
        assert done[0].shard_count == 0 and done[0].digest is None

    def test_direct_submission_respects_quota(self):
        service = Service(seed=3)
        service.register_tenant("acme", TenantPolicy(max_queued=1))
        service.submit("acme", "one", serve_spec())
        with pytest.raises(QuotaExceeded):
            service.submit("acme", "two", serve_spec())

    def test_prometheus_exposition_parses_and_counts(self):
        service = Service(seed=3)
        service.schedule(
            "acme", "daily", serve_spec(shards=2), Recurrence(interval=DAY, count=2)
        )
        service.run(until=10 * DAY)
        families = parse_prometheus_text(service.prometheus_text())
        for name in (
            "serve_studies_total",
            "serve_submitted_total",
            "serve_shard_cache_total",
            "serve_study_latency_seconds",
            "serve_queue_depth",
            "serve_sim_seconds",
        ):
            assert name in families, f"missing metric family {name}"
        assert families["serve_studies_total"]["type"] == "counter"
        assert (
            families["serve_studies_total"]["samples"]['serve_studies_total{tenant="acme"}']
            == 2.0
        )
        assert families["serve_queue_depth"]["samples"]["serve_queue_depth"] == 0.0
        latency = families["serve_study_latency_seconds"]
        assert (
            latency["samples"]['serve_study_latency_seconds_count{tenant="acme"}'] == 2.0
        )
        # One of the two runs was fully cached, the other fully executed.
        cache = families["serve_shard_cache_total"]["samples"]
        assert cache['serve_shard_cache_total{result="hit"}'] == 2.0
        assert cache['serve_shard_cache_total{result="miss"}'] == 2.0


class TestSpecfile:
    PAYLOAD = {
        "seed": 3,
        "horizon": "2d",
        "tenants": {"acme": {"max_queued": 4, "weight": 2.0}},
        "studies": [
            {
                "tenant": "acme",
                "name": "daily",
                "world": {"scale": 0.01, "seed": 11},
                "study_seed": 9,
                "shards": 2,
                "schedule": {"interval": "@daily", "count": 2},
            },
            {
                "tenant": "acme",
                "name": "oneoff",
                "world": {"scale": 0.01, "seed": 11},
                "study_seed": 9,
                "shards": 2,
            },
        ],
    }

    def test_build_service_wires_everything(self):
        service, horizon = build_service(self.PAYLOAD)
        assert horizon == 2 * DAY
        assert service.seed == 3
        assert service.queue.policy("acme") == TenantPolicy(max_queued=4, weight=2.0)
        assert service.queue.depth() == 1  # the unscheduled study, queued now
        assert len(service._fires) == 1  # the recurring study's first fire

    def test_study_spec_maps_fields(self):
        spec = study_spec(self.PAYLOAD["studies"][0])
        assert spec.config.scale == 0.01
        assert spec.seed == 9
        assert spec.shards == 2

    def test_unknown_world_key_rejected(self):
        with pytest.raises(SpecfileError):
            study_spec({"name": "x", "world": {"scael": 0.01}})

    def test_entry_requires_tenant_and_name(self):
        with pytest.raises(SpecfileError):
            build_service({"studies": [{"name": "x"}]})
