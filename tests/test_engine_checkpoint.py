"""Satellite property: crash/resume produces the uninterrupted result.

A run killed after *k* shards and resumed from its JSONL checkpoint must
merge to byte-identical datasets; a checkpoint whose manifest digest does
not match the resuming run's parameters must be refused.
"""

import json

import pytest

from repro.engine import (
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    RunManifest,
    StudySpec,
    run_study,
)
from repro.engine.checkpoint import JOURNAL_VERSION
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec

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


@pytest.fixture(scope="module")
def coordinator_world():
    return build_world(CHECKPOINT_CONFIG, CHECKPOINT_COUNTRIES)


@pytest.fixture(scope="module")
def uninterrupted(coordinator_world, tmp_path_factory):
    path = tmp_path_factory.mktemp("full") / "run.jsonl"
    run = run_study(
        checkpoint_spec(), checkpoint=str(path), world=coordinator_world, analyses=False
    )
    return run, path


class TestJournal:
    def test_journal_layout(self, uninterrupted):
        _run, path = uninterrupted
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "manifest"
        assert lines[0]["shards"] == 4
        assert sorted(line["index"] for line in lines[1:]) == [0, 1, 2, 3]
        assert all(line["kind"] == "shard" for line in lines[1:])

    def test_load_roundtrip(self, uninterrupted):
        _run, path = uninterrupted
        manifest, completed = CheckpointJournal(path).load()
        assert manifest is not None and manifest.shards == 4
        assert set(completed) == {0, 1, 2, 3}

    def test_missing_journal_loads_empty(self, tmp_path):
        manifest, completed = CheckpointJournal(tmp_path / "absent.jsonl").load()
        assert manifest is None and completed == {}

    def test_torn_final_line_dropped(self, uninterrupted, tmp_path):
        _run, path = uninterrupted
        torn = tmp_path / "torn.jsonl"
        lines = path.read_text().splitlines()
        torn.write_text("\n".join(lines[:3]) + '\n{"kind": "sha')
        manifest, completed = CheckpointJournal(torn).load()
        assert manifest is not None
        assert len(completed) == 2

    def test_corrupt_middle_line_raises(self, uninterrupted, tmp_path):
        _run, path = uninterrupted
        broken = tmp_path / "broken.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = '{"kind": "sha'
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            CheckpointJournal(broken).load()

    def test_shards_without_manifest_rejected(self, uninterrupted, tmp_path):
        _run, path = uninterrupted
        headless = tmp_path / "headless.jsonl"
        headless.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(CheckpointError):
            CheckpointJournal(headless).load()

    def test_append_rejects_non_shard(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.start(RunManifest(digest="d", seed=1, shards=1, config={}))
        with pytest.raises(CheckpointError):
            journal.append_shard({"kind": "manifest"})


class TestCrashResume:
    def test_resume_after_crash_matches_uninterrupted(
        self, coordinator_world, uninterrupted, tmp_path
    ):
        full, full_path = uninterrupted
        crashed = tmp_path / "crashed.jsonl"
        lines = full_path.read_text().splitlines()
        # Simulate dying after 2 of 4 shards, mid-append of the third.
        crashed.write_text("\n".join(lines[:3]) + '\n{"kind": "shard", "ind')

        resumed = run_study(
            checkpoint_spec(),
            checkpoint=str(crashed),
            resume=True,
            world=coordinator_world,
            analyses=False,
        )
        assert resumed.report.resumed_shards == 2
        assert resumed.dataset_summary() == full.dataset_summary()
        # The journal was compacted: clean, complete, and re-loadable.
        manifest, completed = CheckpointJournal(crashed).load()
        assert manifest is not None and set(completed) == {0, 1, 2, 3}

    def test_resume_of_complete_run_executes_nothing(
        self, coordinator_world, uninterrupted
    ):
        full, full_path = uninterrupted
        resumed = run_study(
            checkpoint_spec(),
            checkpoint=str(full_path),
            resume=True,
            world=coordinator_world,
            analyses=False,
        )
        assert resumed.report.resumed_shards == 4
        assert resumed.dataset_summary() == full.dataset_summary()

    def test_resume_refuses_digest_mismatch(self, coordinator_world, uninterrupted):
        _full, full_path = uninterrupted
        for wrong in (
            checkpoint_spec(seed=22),
            checkpoint_spec(shards=5),
            checkpoint_spec(window=41),
        ):
            with pytest.raises(CheckpointMismatchError):
                run_study(
                    wrong,
                    checkpoint=str(full_path),
                    resume=True,
                    world=coordinator_world,
                    analyses=False,
                )

    def test_resume_refuses_version_1_journal(
        self, coordinator_world, uninterrupted, tmp_path
    ):
        # Same run, same digest, but the journal was written in the version-1
        # shape (traced shards as event-dict lists): resuming must refuse it
        # rather than read shard payloads in the wrong format.
        _full, full_path = uninterrupted
        lines = full_path.read_text().splitlines()
        manifest = json.loads(lines[0])
        assert manifest["version"] == JOURNAL_VERSION == 2
        manifest["version"] = 1
        old = tmp_path / "v1.jsonl"
        old.write_text("\n".join([json.dumps(manifest, sort_keys=True)] + lines[1:]) + "\n")
        with pytest.raises(CheckpointMismatchError, match="version 1"):
            run_study(
                checkpoint_spec(),
                checkpoint=str(old),
                resume=True,
                world=coordinator_world,
                analyses=False,
            )

    def test_resume_requires_existing_manifest(self, coordinator_world, tmp_path):
        with pytest.raises(CheckpointMismatchError):
            run_study(
                checkpoint_spec(),
                checkpoint=str(tmp_path / "never-written.jsonl"),
                resume=True,
                world=coordinator_world,
                analyses=False,
            )

    def test_resume_without_checkpoint_is_an_error(self, coordinator_world):
        with pytest.raises(ValueError):
            run_study(checkpoint_spec(), resume=True, world=coordinator_world)

    def test_worker_count_change_resumes_cleanly(
        self, coordinator_world, uninterrupted, tmp_path
    ):
        full, full_path = uninterrupted
        crashed = tmp_path / "reworked.jsonl"
        lines = full_path.read_text().splitlines()
        crashed.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_study(
            checkpoint_spec(workers=2),
            checkpoint=str(crashed),
            resume=True,
            world=coordinator_world,
            analyses=False,
        )
        assert resumed.report.resumed_shards == 1
        assert resumed.dataset_summary() == full.dataset_summary()
