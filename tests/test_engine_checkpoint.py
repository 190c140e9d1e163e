"""Crash/resume through the shard cache: a checkpoint is a cache directory.

A run killed after *k* shards and re-run against the same cache must merge
to byte-identical output while serving exactly the *k* completed shards.
Every input a run depends on is hashed into the shard-cache key, so an
entry written under different inputs can only miss — it is never mixed
into a run — and a plan change confined to some slices re-executes only
those shards.
"""

from dataclasses import replace
from pathlib import Path
from shutil import copytree

import pytest

from repro.cli import main
from repro.engine import (
    SerialExecutor,
    StudySpec,
    compute_plans,
    partition_plans,
    run_study,
)
from repro.serve import SHARD_CACHE_DIR, DiskShardCache
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec
from repro.worldbuilder import BaseLayer, WorldSpec, compile_spec
from tests.conftest import crash_checkpoint

CHECKPOINT_COUNTRIES = (
    CountrySpec(code="AA", population=220),
    CountrySpec(code="BB", population=160),
)

CHECKPOINT_CONFIG = WorldConfig(
    scale=1.0,
    seed=13,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)

CHAOS_CHECKPOINT_CONFIG = replace(CHECKPOINT_CONFIG, fault_profile="chaos", fault_seed=5)


def checkpoint_spec(**overrides) -> StudySpec:
    params = dict(
        config=CHECKPOINT_CONFIG,
        countries=CHECKPOINT_COUNTRIES,
        seed=21,
        shards=4,
        workers=1,
        window=40,
    )
    params.update(overrides)
    return StudySpec(**params)


class RecordingExecutor(SerialExecutor):
    """A serial executor that remembers which shards it was asked to run."""

    def __init__(self) -> None:
        self.executed: list[int] = []

    def run(self, tasks, fn):
        self.executed.extend(task.spec.index for task in tasks)
        return super().run(tasks, fn)


def comparable_report(run) -> dict:
    report = run.report.to_dict()
    report.pop("worker_count")
    return report


@pytest.fixture(scope="module")
def coordinator_world():
    return build_world(CHECKPOINT_CONFIG, CHECKPOINT_COUNTRIES)


@pytest.fixture(scope="module")
def uninterrupted(coordinator_world, tmp_path_factory):
    directory = tmp_path_factory.mktemp("full") / SHARD_CACHE_DIR
    run = run_study(
        checkpoint_spec(),
        shard_cache=DiskShardCache(directory),
        world=coordinator_world,
        analyses=False,
    )
    return run, directory


class TestCrashResume:
    def test_checkpoint_holds_one_entry_per_shard(self, uninterrupted):
        _run, directory = uninterrupted
        assert len(DiskShardCache(directory)) == 4
        assert list(directory.glob("*.tmp")) == []

    def test_resume_after_crash_matches_uninterrupted(
        self, coordinator_world, uninterrupted, tmp_path
    ):
        full, directory = uninterrupted
        for workers in (1, 2):
            for done in range(5):
                cache = crash_checkpoint(directory, tmp_path / f"w{workers}-k{done}", done)
                resumed = run_study(
                    checkpoint_spec(workers=workers),
                    shard_cache=cache,
                    world=coordinator_world,
                    analyses=False,
                )
                assert resumed.cached_shards == done, (workers, done)
                assert resumed.dataset_summary() == full.dataset_summary()
                assert comparable_report(resumed) == comparable_report(full)
                # The re-run healed the checkpoint: every shard is stored and
                # the torn entry is gone.
                assert len(cache) == 4
                assert list(cache.directory.glob("*.tmp")) == []

    def test_resume_of_complete_run_executes_nothing(
        self, coordinator_world, uninterrupted
    ):
        full, directory = uninterrupted
        executor = RecordingExecutor()
        resumed = run_study(
            checkpoint_spec(),
            shard_cache=DiskShardCache(directory),
            executor=executor,
            world=coordinator_world,
            analyses=False,
        )
        assert executor.executed == []
        assert resumed.cached_shards == 4
        assert resumed.dataset_summary() == full.dataset_summary()
        assert resumed.metrics_json() == full.metrics_json()

    def test_worker_count_change_resumes_cleanly(self, coordinator_world, tmp_path):
        # Written by a process pool, resumed serially: the key carries no
        # worker count, so the pool's entries are hits.
        pooled_dir = tmp_path / "pooled"
        pooled = run_study(
            checkpoint_spec(workers=2),
            shard_cache=DiskShardCache(pooled_dir),
            world=coordinator_world,
            analyses=False,
        )
        resumed = run_study(
            checkpoint_spec(),
            shard_cache=crash_checkpoint(pooled_dir, tmp_path / "crashed", 1),
            world=coordinator_world,
            analyses=False,
        )
        assert resumed.cached_shards == 1
        assert resumed.dataset_summary() == pooled.dataset_summary()
        assert comparable_report(resumed) == comparable_report(pooled)

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["study", "--resume"])
        assert exit_info.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err


def other_world() -> dict:
    """The base countries recomposed as a compiled worldbuilder topology."""
    spec = WorldSpec("other", CHAOS_CHECKPOINT_CONFIG)
    base = BaseLayer()
    base.add_country("AA", 220)
    base.add_isp("AA", "AA Net", share=0.9)
    base.add_country("BB", 160)
    base.add_isp("BB", "BB Net", share=0.9)
    spec.add(base)
    compiled = compile_spec(spec)
    assert compiled.countries != CHECKPOINT_COUNTRIES
    return {"config": compiled.config, "countries": compiled.countries}


#: Each case names the base checkpoint's obs level and the variant's change.
MISMATCHES = {
    "study-seed": ("trace", lambda: {"seed": 22}),
    "shard-count": ("trace", lambda: {"shards": 5}),
    "window": ("trace", lambda: {"window": 41}),
    "fault-seed": (
        "trace", lambda: {"config": replace(CHAOS_CHECKPOINT_CONFIG, fault_seed=6)}
    ),
    "obs-off-to-trace": ("off", lambda: {"obs": "trace"}),
    "obs-trace-to-off": ("trace", lambda: {"obs": "off"}),
    "other-world": ("trace", other_world),
}


def chaos_spec(**overrides) -> StudySpec:
    return checkpoint_spec(**{"config": CHAOS_CHECKPOINT_CONFIG, **overrides})


@pytest.fixture(scope="module")
def base_checkpoints(tmp_path_factory) -> dict[str, Path]:
    """The base chaos study's checkpoint at each obs level it is resumed from."""
    world = build_world(CHAOS_CHECKPOINT_CONFIG, CHECKPOINT_COUNTRIES)
    directories = {}
    for obs in ("off", "trace"):
        directory = tmp_path_factory.mktemp(f"base-{obs}") / SHARD_CACHE_DIR
        run_study(
            chaos_spec(obs=obs),
            shard_cache=DiskShardCache(directory),
            world=world,
            analyses=False,
        )
        directories[obs] = directory
    return directories


class TestMismatchedCheckpoint:
    """What the deleted resume refusals guarded is now a property of the key."""

    @pytest.mark.parametrize("variant", sorted(MISMATCHES))
    def test_mismatch_only_misses(
        self, variant, base_checkpoints, tmp_path
    ):
        base_obs, overrides = MISMATCHES[variant]
        params = {"obs": base_obs, **overrides()}
        spec = chaos_spec(**params)
        directory = tmp_path / SHARD_CACHE_DIR
        copytree(base_checkpoints[base_obs], directory)
        world = build_world(spec.config, spec.countries)

        resumed = run_study(
            spec, shard_cache=DiskShardCache(directory), world=world, analyses=False
        )
        cold = run_study(spec, world=world, analyses=False)

        assert resumed.dataset_summary() == cold.dataset_summary()
        assert resumed.metrics_json() == cold.metrics_json()
        if spec.obs == "trace":
            assert resumed.trace.to_jsonl() == cold.trace.to_jsonl()
        if variant != "window":
            assert resumed.cached_shards == 0


class TestIncremental:
    def test_plan_change_re_executes_only_the_dirty_shards(
        self, coordinator_world, tmp_path
    ):
        before = checkpoint_spec(shards=8, max_probes=40)
        after = checkpoint_spec(shards=8, max_probes=41)
        cache = DiskShardCache(tmp_path / SHARD_CACHE_DIR)
        run_study(before, shard_cache=cache, world=coordinator_world, analyses=False)

        old_slices = partition_plans(compute_plans(coordinator_world, before), 8)
        new_slices = partition_plans(compute_plans(coordinator_world, after), 8)
        dirty = [index for index in range(8) if old_slices[index] != new_slices[index]]
        assert 0 < len(dirty) < 8

        executor = RecordingExecutor()
        incremental = run_study(
            after,
            shard_cache=cache,
            executor=executor,
            world=coordinator_world,
            analyses=False,
        )
        assert sorted(executor.executed) == dirty
        assert incremental.cached_shards == 8 - len(dirty)

        cold = run_study(after, world=coordinator_world, analyses=False)
        assert incremental.dataset_summary() == cold.dataset_summary()
        assert incremental.metrics_json() == cold.metrics_json()


def study_args(checkpoint: Path, *extra: str) -> list[str]:
    return [
        "--scale", "0.002", "--seed", "11",
        "study", "--shards", "2", "--study-seed", "9",
        "--checkpoint", str(checkpoint), *extra,
    ]


class TestCheckpointCli:
    def test_checkpoint_file_is_refused(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        journal.write_text('{"kind": "manifest"}\n', encoding="utf-8")
        assert main(study_args(journal)) == 2
        assert "checkpoints are now directories" in capsys.readouterr().err
        assert journal.read_text(encoding="utf-8") == '{"kind": "manifest"}\n'

    def test_non_empty_checkpoint_requires_resume(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck"
        assert main(study_args(checkpoint)) == 0
        entries = sorted((checkpoint / SHARD_CACHE_DIR).iterdir())
        stamps = [entry.stat().st_mtime_ns for entry in entries]
        capsys.readouterr()

        assert main(study_args(checkpoint)) == 2
        assert "pass --resume" in capsys.readouterr().err
        assert sorted((checkpoint / SHARD_CACHE_DIR).iterdir()) == entries
        assert [entry.stat().st_mtime_ns for entry in entries] == stamps

        assert main(study_args(checkpoint, "--resume")) == 0
        assert "2/2 shards (2 from checkpoint)" in capsys.readouterr().out
