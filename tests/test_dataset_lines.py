"""Line-form datasets: stored lines, spliced summaries, decode on read.

Cache-backed runs store each record once as its canonical JSON line, the
merge concatenates lines, and :func:`repro.engine.dataset_summary` splices
them.  :func:`reference_summary` is the whole-dict encoding the summary
replaced; every summary here must equal it byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import export
from repro.core.experiments.dns_hijack import DnsDataset, DnsProbeRecord
from repro.core.experiments.http_mod import HttpDataset, HttpProbeRecord
from repro.core.experiments.https_mitm import HttpsDataset, HttpsProbeRecord, SiteResult
from repro.core.experiments.monitoring import (
    MonitoringDataset,
    MonitorProbeRecord,
    UnexpectedRequest,
)
from repro.core.study import run_full_study
from repro.engine import dataset_summary, merge_shard_results, partition_plans, run_study
from repro.serve import MemoryShardCache, Recurrence, Service
from repro.sim import build_world
from repro.web.content import ObjectKind
from tests.test_engine_checkpoint import (
    CHECKPOINT_CONFIG,
    CHECKPOINT_COUNTRIES,
    checkpoint_spec,
)
from tests.test_engine_degraded import CONFIG, COUNTRIES, execute_plan, make_spec


def reference_summary(datasets) -> str:
    """The summary as one whole-dict encoding: each dataset's header fields
    plus its records' rows sorted by zID, one ``json.dumps`` over all of it."""
    payload = {}
    for name in sorted(datasets):
        dataset = datasets[name]
        kind = export.KINDS[name]
        rows = sorted(map(kind.to_row, dataset.records), key=lambda row: row["zid"])
        payload[name] = {**kind.header(dataset), "records": rows}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- generated records ----------------------------------------------------------

#: Characters JSON must escape or that leave ASCII, mixed with arbitrary text.
AWKWARD = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "€", " ", "😀", "\U0010ffff"]
text = st.text(
    alphabet=st.one_of(st.sampled_from(AWKWARD), st.characters(codec="utf-8")),
    max_size=8,
)
#: A few fixed zIDs so that records in different shards share them.
zids = st.one_of(st.sampled_from(["z-a", "z-b", "z-c"]), st.text(min_size=1, max_size=6))
ips = st.integers(0, 2**32 - 1)
asns = st.none() | st.integers(1, 2**32 - 1)
countries = st.none() | text
times = st.one_of(
    st.sampled_from([0.0, 0.1 + 0.2, 1e16, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)

dns_records = st.builds(
    DnsProbeRecord,
    zid=zids, exit_ip=ips, asn=asns, country=countries,
    dns_server_ip=st.integers(0, 8), dns_server_asn=asns,
    hijacked=st.booleans(), page=st.binary(max_size=24),
)
http_records = st.builds(
    HttpProbeRecord,
    zid=zids, exit_ip=ips, asn=asns, country=countries,
    modified_bodies=st.dictionaries(st.sampled_from(list(ObjectKind)), st.binary(max_size=16)),
    fetched_all=st.booleans(), via_token=text, cached_dynamic=st.booleans(),
)
sites = st.builds(
    SiteResult,
    domain=text, site_class=text, replaced=st.booleans(), issuer_cn=text,
    leaf_key_id=text, chain_valid=st.booleans(), origin_invalid_kind=text,
)
https_records = st.builds(
    HttpsProbeRecord,
    zid=zids, exit_ip=ips, asn=asns, country=countries,
    sites=st.lists(sites, max_size=3).map(tuple), full_scan=st.booleans(),
)
unexpected = st.builds(
    UnexpectedRequest,
    source_ip=ips, time=times, delay=times, user_agent=text, asn=asns,
)
monitoring_records = st.builds(
    MonitorProbeRecord,
    zid=zids, reported_ip=ips, asn=asns, country=countries, domain=text,
    node_request_time=times, node_request_ip=ips,
    unexpected=st.lists(unexpected, max_size=3).map(tuple),
)
counts = st.integers(0, 50)


def datasets_of(records, build):
    return st.builds(build, st.lists(records, max_size=4), counts, counts)


shard_datasets = st.fixed_dictionaries({
    "dns": datasets_of(
        dns_records,
        lambda rs, probes, overlap: DnsDataset(
            records=rs, probes=probes, filtered_google_overlap=overlap,
            unique_dns_servers=len({r.dns_server_ip for r in rs}),
        ),
    ),
    "http": datasets_of(
        http_records,
        lambda rs, probes, asn: HttpDataset(records=rs, probes=probes, flagged_ases={asn}),
    ),
    "https": datasets_of(
        https_records, lambda rs, probes, _: HttpsDataset(records=rs, probes=probes)
    ),
    "monitoring": datasets_of(
        monitoring_records, lambda rs, probes, _: MonitoringDataset(records=rs, probes=probes)
    ),
})


class TestSplicedSummary:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(shard_datasets, min_size=1, max_size=4))
    def test_splice_equals_the_whole_dict_reference(self, shards):
        live = merge_shard_results(
            {index: {"datasets": shard} for index, shard in enumerate(shards)}
        )
        lined = merge_shard_results({
            index: {
                "datasets": {
                    name: export.dataset_to_lines(dataset) for name, dataset in shard.items()
                }
            }
            for index, shard in enumerate(shards)
        })
        reference = reference_summary(live)
        assert dataset_summary(lined) == reference
        assert dataset_summary(live) == reference
        decoded = {name: export.dataset_from_lines(part) for name, part in lined.items()}
        assert decoded == live

    def test_a_line_is_the_canonical_dumps_of_its_row(self):
        record = MonitorProbeRecord(
            zid='z"\\', reported_ip=1, asn=None, country="😀", domain="\x00é",
            node_request_time=0.1 + 0.2, node_request_ip=2,
            unexpected=(UnexpectedRequest(3, 5e-324, 1e16, "ua ", None),),
        )
        (line,) = export.dataset_to_lines(MonitoringDataset(records=[record]))["lines"]
        row = export.monitoring_record_to_row(record)
        assert line == json.dumps(row, sort_keys=True, separators=(",", ":"))

    def test_empty_datasets(self):
        empty = {"dns": DnsDataset(), "http": HttpDataset(), "https": HttpsDataset()}
        lined = {name: export.dataset_to_lines(d) for name, d in empty.items()}
        assert dataset_summary(lined) == dataset_summary(empty) == reference_summary(empty)
        assert dataset_summary({}) == reference_summary({}) == "{}"


# -- engine runs ------------------------------------------------------------------


@pytest.fixture(scope="module")
def checkpoint_world():
    return build_world(CHECKPOINT_CONFIG, CHECKPOINT_COUNTRIES)


@pytest.fixture(scope="module")
def engine_runs(checkpoint_world):
    """Live, cold cached, fully cached and partial-hit runs of one spec (the
    incremental world: 8 shards, ``max_probes`` 40 then 41)."""
    before = checkpoint_spec(shards=8, max_probes=40)
    after = checkpoint_spec(shards=8, max_probes=41)
    cache = MemoryShardCache()
    runs = {
        "live": run_study(after, world=checkpoint_world, analyses=False),
        "cold": run_study(after, world=checkpoint_world, analyses=False, shard_cache=cache),
        "warm": run_study(after, world=checkpoint_world, analyses=False, shard_cache=cache),
    }
    partial_cache = MemoryShardCache()
    run_study(before, world=checkpoint_world, analyses=False, shard_cache=partial_cache)
    runs["partial"] = run_study(
        after, world=checkpoint_world, analyses=False, shard_cache=partial_cache
    )
    assert runs["cold"].cached_shards == 0
    assert runs["warm"].cached_shards == 8
    assert 0 < runs["partial"].cached_shards < 8
    return runs


@pytest.fixture(scope="module")
def degraded_runs():
    """The degraded study of ``test_engine_degraded``, without and with a cache."""
    world = build_world(CONFIG, COUNTRIES)
    runs = {
        label: run_study(
            make_spec(), world=world, analyses=False, faults=execute_plan(0.75),
            shard_attempts=2, shard_cache=cache,
        )
        for label, cache in (("live", None), ("cached", MemoryShardCache()))
    }
    assert all(run.degraded for run in runs.values())
    return runs


class TestEngineSummaries:
    @pytest.mark.parametrize("label", ["live", "cold", "warm", "partial"])
    def test_summary_equals_the_reference(self, engine_runs, label):
        run = engine_runs[label]
        assert run.dataset_summary() == reference_summary(run.datasets)

    @pytest.mark.parametrize("label", ["cold", "warm", "partial"])
    def test_cached_datasets_equal_the_live_run_in_order(self, engine_runs, label):
        assert engine_runs[label].datasets == engine_runs["live"].datasets

    @pytest.mark.parametrize("label", ["live", "cold", "warm", "partial"])
    def test_records_keep_shard_then_execution_order(self, engine_runs, label):
        run = engine_runs[label]
        slices = partition_plans(run.plans, run.spec.shards)
        for name, dataset in run.datasets.items():
            zids = [record.zid for record in dataset.records]
            kept = set(zids)
            expected = [
                zid for index in range(run.spec.shards) for zid in slices[index][name]
                if zid in kept
            ]
            assert zids == expected, name

    def test_degraded_summaries_equal_the_reference(self, degraded_runs):
        for run in degraded_runs.values():
            assert run.dataset_summary() == reference_summary(run.datasets)
        assert degraded_runs["cached"].excluded_shards == degraded_runs["live"].excluded_shards
        assert degraded_runs["cached"].datasets == degraded_runs["live"].datasets


# -- decode on read ---------------------------------------------------------------


@pytest.fixture()
def record_decodes(monkeypatch):
    """Counts records decoded through the kind table's row codecs."""
    decoded = {"records": 0}
    for name, kind in list(export.KINDS.items()):

        def counted(row, _original=kind.from_row):
            decoded["records"] += 1
            return _original(row)

        monkeypatch.setitem(export.KINDS, name, replace(kind, from_row=counted))
    return decoded


class TestDecodeOnRead:
    def test_a_service_drain_decodes_no_records(self, record_decodes):
        service = Service(seed=3, keep_runs=False)
        for tenant in range(2):
            service.schedule(
                f"tenant-{tenant}", "daily",
                checkpoint_spec(shards=2, seed=40 + tenant, max_probes=30),
                Recurrence(interval=86_400.0, count=3),
            )
        completed = service.run(until=30 * 86_400.0)
        assert len(completed) == 6
        assert [study.cached_shards for study in completed].count(2) == 4
        assert record_decodes["records"] == 0

    def test_datasets_decode_once(self, checkpoint_world, record_decodes):
        spec = checkpoint_spec(shards=2, max_probes=30)
        cache = MemoryShardCache()
        run_study(spec, world=checkpoint_world, analyses=False, shard_cache=cache)
        run = run_study(spec, world=checkpoint_world, analyses=False, shard_cache=cache)
        assert run.cached_shards == 2
        run.dataset_summary()
        assert record_decodes["records"] == 0
        first = run.datasets
        records = sum(len(dataset.records) for dataset in first.values())
        assert records > 0
        assert record_decodes["records"] == records
        assert run.datasets is first
        assert record_decodes["records"] == records
        assert dataset_summary(first) == run.dataset_summary()

    def test_cached_study_renders_the_cache_free_tables(self):
        config = replace(CHECKPOINT_CONFIG, seed=17)
        kwargs = dict(config=config, countries=CHECKPOINT_COUNTRIES, seed=5, shards=2)
        plain = run_full_study(**kwargs)
        cache = MemoryShardCache()
        run_full_study(**kwargs, shard_cache=cache)
        cached = run_full_study(**kwargs, shard_cache=cache)
        assert cache.stats.hits == 2
        assert cached.render_summary() == plain.render_summary()
        assert cached.engine_report == plain.engine_report

