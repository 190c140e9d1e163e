"""Tentpole acceptance: the trace is a pure function of the study spec.

Same world, seed, and fault profile ⇒ byte-identical trace JSONL and
metrics snapshot for any worker count and across crash/resume — and turning
tracing on must not perturb the science (datasets, run digest, report).
"""

import pytest

from repro.engine import StudySpec, run_study
from repro.obs import summarize
from repro.serve import SHARD_CACHE_DIR, DiskShardCache
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec
from tests.conftest import crash_checkpoint

OBS_COUNTRIES = (
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


def traced_spec(workers: int, obs: str = "trace") -> StudySpec:
    return StudySpec(
        config=CHAOS_CONFIG,
        countries=OBS_COUNTRIES,
        seed=23,
        shards=3,
        workers=workers,
        window=40,
        obs=obs,
    )


@pytest.fixture(scope="module")
def chaos_world():
    return build_world(CHAOS_CONFIG, OBS_COUNTRIES)


@pytest.fixture(scope="module")
def traced_one_worker(chaos_world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs") / SHARD_CACHE_DIR
    run = run_study(
        traced_spec(1),
        shard_cache=DiskShardCache(directory),
        world=chaos_world,
        analyses=False,
    )
    return run, directory


@pytest.fixture(scope="module")
def untraced_run(chaos_world):
    return run_study(traced_spec(1, obs="off"), world=chaos_world, analyses=False)


class TestWorkerEquivalence:
    def test_trace_is_nonempty_and_sees_faults(self, traced_one_worker):
        run, _ = traced_one_worker
        summary = summarize(run.trace.rows())
        assert summary["events"] > 0
        assert summary["shards"] == 3
        assert sum(summary["faults"].values()) > 0

    def test_trace_bytes_identical_across_worker_counts(
        self, chaos_world, traced_one_worker
    ):
        run, _ = traced_one_worker
        pooled = run_study(traced_spec(4), world=chaos_world, analyses=False)
        assert pooled.trace.to_jsonl() == run.trace.to_jsonl()
        assert pooled.trace.digest() == run.trace.digest()

    def test_metrics_snapshot_identical_across_worker_counts(
        self, chaos_world, traced_one_worker
    ):
        run, _ = traced_one_worker
        pooled = run_study(traced_spec(2), world=chaos_world, analyses=False)
        assert pooled.obs_metrics.snapshot_json() == run.obs_metrics.snapshot_json()

    def test_digest_recorded_in_run_metrics(self, traced_one_worker):
        run, _ = traced_one_worker
        assert run.report.trace_digest == run.trace.digest()
        assert run.report.to_dict()["trace_digest"] == run.trace.digest()


class TestCrashResume:
    def test_trace_identical_across_crash_resume(
        self, chaos_world, traced_one_worker, tmp_path
    ):
        # Die after every possible number of completed shards, with the next
        # shard's entry torn, and resume at one and at two workers.
        full, directory = traced_one_worker
        for workers in (1, 2):
            for done in range(4):
                resumed = run_study(
                    traced_spec(workers),
                    shard_cache=crash_checkpoint(
                        directory, tmp_path / f"w{workers}-k{done}", done
                    ),
                    world=chaos_world,
                    analyses=False,
                )
                assert resumed.cached_shards == done, (workers, done)
                assert resumed.dataset_summary() == full.dataset_summary()
                assert resumed.trace.to_jsonl() == full.trace.to_jsonl()
                assert (
                    resumed.obs_metrics.snapshot_json()
                    == full.obs_metrics.snapshot_json()
                )
                report = resumed.report.to_dict()
                assert report.pop("worker_count") == workers
                expected = full.report.to_dict()
                expected.pop("worker_count")
                assert report == expected


class TestTracingIsInert:
    """Observability must observe, never perturb."""

    def test_datasets_unchanged_by_tracing(self, traced_one_worker, untraced_run):
        run, _ = traced_one_worker
        assert run.dataset_summary() == untraced_run.dataset_summary()
        assert run.digest == untraced_run.digest

    def test_report_unchanged_up_to_trace_digest(self, traced_one_worker, untraced_run):
        run, _ = traced_one_worker
        traced = run.report.to_dict()
        untraced = untraced_run.report.to_dict()
        assert traced.pop("trace_digest")
        assert "trace_digest" not in untraced
        assert traced == untraced

    def test_untraced_run_has_no_obs_artifacts(self, untraced_run):
        assert untraced_run.trace is None
        assert untraced_run.obs_metrics is None

    def test_metrics_level_collects_metrics_without_trace(self, chaos_world):
        run = run_study(
            traced_spec(1, obs="metrics"), world=chaos_world, analyses=False
        )
        assert run.trace is None
        assert run.report.trace_digest is None
        assert run.obs_metrics is not None and len(run.obs_metrics) > 0

    def test_spec_rejects_unknown_obs_level(self):
        with pytest.raises(ValueError):
            traced_spec(1, obs="verbose")
