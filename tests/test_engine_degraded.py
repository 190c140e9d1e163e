"""Degraded-study execution at the engine: quarantine, digest stability.

A shard that exhausts its attempt budget is quarantined and the study
completes partially — ``degraded=True`` plus an explicit excluded-shard
list — instead of killing the run.  The contracts under test:

* which shards are excluded is a pure function of the fault plan (never of
  worker count or scheduling),
* the run digest is the spec's digest — degradation is flagged in the
  report, not smuggled into the identity,
* degraded runs never execute analyses (no §5 findings from partial data),
* a study whose *every* shard is exhausted raises ``ContainedFailure``
  rather than fabricating an empty dataset,
* a genuine exception inside a shard fails a default (uncontained) run
  with its own type, and is quarantined like an injected fault once the
  run has a retry budget.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import StudySpec, run_study, runner
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.faults.service import ServiceFaultPlan, ServiceFaultProfile
from repro.resilience import ContainedFailure
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec, IspSpec, ResolverHijackSpec

COUNTRIES = (
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

CONFIG = WorldConfig(
    scale=1.0,
    seed=11,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)


def make_spec(shards: int = 4, seed: int = 9) -> StudySpec:
    return StudySpec(
        config=CONFIG, countries=COUNTRIES, seed=seed,
        shards=shards, workers=1, window=40,
    )


def execute_plan(rate: float) -> ServiceFaultPlan:
    profile = ServiceFaultProfile(
        name="engine-test", execute_rate=rate,
    )
    return ServiceFaultPlan.for_service(7, 3, profile).scoped("acme", "x", 0, 0)


@pytest.fixture(scope="module")
def world():
    return build_world(CONFIG, COUNTRIES)


@pytest.fixture(scope="module")
def degraded_run(world):
    run = run_study(
        make_spec(), world=world, analyses=False,
        faults=execute_plan(0.75), shard_attempts=2,
    )
    assert run.degraded, "fixture plan no longer degrades the study"
    return run


class TestDegradedExecution:
    def test_quarantined_shards_are_reported(self, degraded_run):
        assert degraded_run.excluded_shards
        assert degraded_run.report.degraded is True
        report = degraded_run.report.to_dict()
        assert report["degraded"] is True
        indices = [entry["index"] for entry in report["excluded_shards"]]
        assert indices == sorted(degraded_run.excluded_shards)
        for entry in report["excluded_shards"]:
            assert entry["attempts"] == 2
            assert entry["category"] == "shard"
            assert "injected execute fault" in entry["error"]

    def test_surviving_shards_match_the_clean_run(self, world, degraded_run):
        clean = run_study(make_spec(), world=world, analyses=False)
        excluded = set(degraded_run.excluded_shards)
        clean_indices = {m.index for m in clean.report.shards}
        degraded_indices = {m.index for m in degraded_run.report.shards}
        assert degraded_indices == clean_indices - excluded

    def test_digest_is_spec_stable(self, world, degraded_run):
        clean = run_study(make_spec(), world=world, analyses=False)
        assert degraded_run.digest == clean.digest

    def test_exclusions_are_worker_invariant(self, world):
        serial = run_study(
            make_spec(), world=world, analyses=False,
            executor=SerialExecutor(),
            faults=execute_plan(0.75), shard_attempts=2,
        )
        parallel = run_study(
            make_spec(), world=world, analyses=False,
            executor=ProcessExecutor(2),
            faults=execute_plan(0.75), shard_attempts=2,
        )
        assert serial.excluded_shards == parallel.excluded_shards
        assert serial.dataset_summary() == parallel.dataset_summary()

    def test_retry_budget_rescues_transient_faults(self, world):
        # With enough attempts every shard eventually draws a clean pass:
        # the study completes whole, bit-identical to the fault-free run.
        rescued = run_study(
            make_spec(), world=world, analyses=False,
            faults=execute_plan(0.75), shard_attempts=12,
        )
        clean = run_study(make_spec(), world=world, analyses=False)
        assert not rescued.degraded
        assert rescued.dataset_summary() == clean.dataset_summary()

    def test_degraded_run_never_runs_analyses(self, world):
        run = run_study(
            make_spec(), world=world, analyses=True,
            faults=execute_plan(0.75), shard_attempts=2,
        )
        assert run.degraded
        assert run.results is None

    def test_all_shards_exhausted_raises_contained_failure(self, world):
        with pytest.raises(ContainedFailure) as excinfo:
            run_study(
                make_spec(), world=world, analyses=False,
                faults=execute_plan(1.0), shard_attempts=2,
            )
        assert excinfo.value.category == "shard"

    def test_clean_report_has_no_degraded_keys(self, world):
        clean = run_study(make_spec(), world=world, analyses=False)
        payload = clean.report.to_dict()
        assert "degraded" not in payload
        assert "excluded_shards" not in payload

    def test_shard_attempts_must_be_positive(self, world):
        with pytest.raises(ValueError):
            run_study(make_spec(), world=world, analyses=False, shard_attempts=0)

    def test_profile_replace_keeps_scope(self):
        plan = execute_plan(0.5)
        rescoped = dataclasses.replace(plan)
        assert rescoped.scope == plan.scope


class TestGenuineShardFailure:
    @pytest.fixture
    def broken_shard(self, monkeypatch):
        run_shard = runner.run_shard

        def broken(task):
            if task.spec.index == 1:
                raise RuntimeError("shard 1 broke")
            return run_shard(task)

        monkeypatch.setattr(runner, "run_shard", broken)

    def test_fail_fast_raises_the_shard_exception(self, world, broken_shard):
        with pytest.raises(RuntimeError, match="shard 1 broke") as excinfo:
            run_study(
                make_spec(), world=world, analyses=False, executor=SerialExecutor()
            )
        assert type(excinfo.value) is RuntimeError

    def test_retry_budget_quarantines_the_shard(self, world, broken_shard):
        run = run_study(
            make_spec(), world=world, analyses=False,
            executor=SerialExecutor(), shard_attempts=2,
        )
        assert run.degraded
        assert run.excluded_shards == {
            1: {"attempts": 2, "category": "shard", "error": "RuntimeError: shard 1 broke"}
        }
