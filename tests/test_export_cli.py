"""Tests for dataset export/reload, the CLI, IP churn, and footnote-9."""

import json

import pytest

from repro.core.analysis import AnalysisThresholds, google_dns_concentration
from repro.core.experiments.dns_hijack import DnsHijackExperiment
from repro.core.experiments.http_mod import HttpModExperiment
from repro.core.experiments.https_mitm import HttpsMitmExperiment
from repro.core.experiments.monitoring import MonitoringExperiment
from repro.core import export
from repro.cli import build_parser, main
from repro.web.content import ObjectKind


@pytest.fixture(scope="module")
def crawled(small_world):
    return {
        "dns": DnsHijackExperiment(small_world, seed=301).run(),
        "http": HttpModExperiment(small_world, seed=302).run(),
        "https": HttpsMitmExperiment(small_world, seed=303).run(),
        "monitoring": MonitoringExperiment(small_world, seed=304).run(),
    }


#: Each kind's header as files held it before the one wire form.
PARENT_HEADERS = {
    "dns": lambda d: {
        "kind": "dns",
        "filtered_google_overlap": d.filtered_google_overlap,
        "probes": d.probes,
        "unique_dns_servers": d.unique_dns_servers,
    },
    "http": lambda d: {"kind": "http", "probes": d.probes, "flagged_ases": sorted(d.flagged_ases)},
    "https": lambda d: {"kind": "https", "probes": d.probes},
    "monitoring": lambda d: {"kind": "monitoring", "probes": d.probes},
}


def parent_format_file(kind, dataset, path):
    """Write ``dataset`` as files were written before the one wire form:
    the header, then each record's row, each through ``json.dumps`` with
    its default separators and key order."""
    to_row = getattr(export, f"{kind}_record_to_row")
    with path.open("w", encoding="ascii") as handle:
        handle.write(json.dumps(PARENT_HEADERS[kind](dataset)) + "\n")
        for record in dataset.records:
            handle.write(json.dumps(to_row(record)) + "\n")


class TestExportRoundtrips:
    def test_dns(self, crawled, tmp_path):
        dataset = crawled["dns"]
        path = tmp_path / "dns.jsonl"
        assert export.save_dataset(dataset, path) == dataset.node_count
        loaded = export.load_dataset(path, "dns")
        assert loaded.node_count == dataset.node_count
        assert loaded.hijacked_count == dataset.hijacked_count
        assert loaded.records[0] == dataset.records[0]
        assert loaded.unique_dns_servers == dataset.unique_dns_servers

    def test_http(self, crawled, tmp_path):
        dataset = crawled["http"]
        path = tmp_path / "http.jsonl"
        export.save_dataset(dataset, path)
        loaded = export.load_dataset(path, "http")
        assert loaded.node_count == dataset.node_count
        assert loaded.flagged_ases == dataset.flagged_ases
        for kind in ObjectKind:
            assert loaded.modified_count(kind) == dataset.modified_count(kind)
        # Binary bodies survive the base64 roundtrip.
        originals = [r for r in dataset.records if r.modified_bodies]
        reloaded = [r for r in loaded.records if r.modified_bodies]
        assert originals[0].modified_bodies == reloaded[0].modified_bodies

    def test_https(self, crawled, tmp_path):
        dataset = crawled["https"]
        path = tmp_path / "https.jsonl"
        export.save_dataset(dataset, path)
        loaded = export.load_dataset(path, "https")
        assert loaded.replaced_count == dataset.replaced_count
        assert loaded.records[0].sites == dataset.records[0].sites

    def test_monitoring(self, crawled, tmp_path):
        dataset = crawled["monitoring"]
        path = tmp_path / "mon.jsonl"
        export.save_dataset(dataset, path)
        loaded = export.load_dataset(path, "monitoring")
        assert loaded.monitored_count == dataset.monitored_count
        monitored = next(r for r in dataset.records if r.monitored)
        reloaded = next(r for r in loaded.records if r.zid == monitored.zid)
        assert reloaded.unexpected == monitored.unexpected

    @pytest.mark.parametrize("kind", list(export.KINDS))
    def test_a_file_is_the_header_then_the_record_lines(self, crawled, tmp_path, kind):
        dataset = crawled[kind]
        assert dataset.records
        path = tmp_path / f"{kind}.jsonl"
        assert export.save_dataset(dataset, path) == len(dataset.records)
        payload = export.dataset_to_lines(dataset)
        header = json.dumps(payload["header"], sort_keys=True, separators=(",", ":"))
        expected = "".join(line + "\n" for line in [header, *payload["lines"]])
        assert path.read_bytes() == expected.encode("ascii")
        assert export.load_dataset(path, kind) == dataset

    @pytest.mark.parametrize("kind", list(export.KINDS))
    def test_parent_format_files_still_load(self, crawled, tmp_path, kind):
        dataset = crawled[kind]
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        parent_format_file(kind, dataset, old)
        export.save_dataset(dataset, new)
        assert old.read_bytes() != new.read_bytes()
        assert export.load_dataset(old, kind) == export.load_dataset(new, kind) == dataset

    def test_kind_mismatch_rejected(self, crawled, tmp_path):
        path = tmp_path / "dns.jsonl"
        export.save_dataset(crawled["dns"], path)
        with pytest.raises(ValueError, match="expected a 'http' dataset, got 'dns'"):
            export.load_dataset(path, "http")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty dataset file"):
            export.load_dataset(path, "dns")


class TestFootnote9:
    @pytest.fixture(scope="class")
    def outsourced_world(self):
        """A world with one ISP that points nearly all users at Google."""
        from repro.sim import WorldConfig, build_world
        from repro.sim.profiles import CountrySpec, IspSpec

        specs = (
            CountrySpec(
                code="BJ",
                population=400,
                isps=(
                    IspSpec(
                        name="OPT Benin",
                        share=0.6,
                        external_dns_fraction=0.97,
                        external_google_share=0.99,
                    ),
                ),
            ),
            CountrySpec(code="US", population=400),
        )
        config = WorldConfig(scale=1.0, seed=19, include_rare_tail=False, alexa_countries=2)
        world = build_world(config, countries=specs)
        dataset = DnsHijackExperiment(world, seed=307).run()
        return world, dataset

    def test_google_heavy_ases_found(self, outsourced_world):
        world, dataset = outsourced_world
        rows = google_dns_concentration(dataset, world.orgmap, min_nodes=10)
        assert rows
        # OPT Benin resolves almost entirely through Google (97% external,
        # 70% of which lands on 8.8.8.8) — paper: 99.1% for AS 28683.
        names = {row.isp for row in rows}
        assert "OPT Benin" in names
        opt = next(row for row in rows if row.isp == "OPT Benin")
        assert opt.country == "BJ"
        assert opt.ratio >= 0.8

    def test_thresholds_enforced(self, outsourced_world):
        world, dataset = outsourced_world
        rows = google_dns_concentration(dataset, world.orgmap, min_nodes=10, threshold=0.8)
        for row in rows:
            assert row.total >= 10
            assert row.ratio >= 0.8


class TestIpChurn:
    def test_zid_persists_across_ip_change(self, fresh_tiny_world):
        world = fresh_tiny_world
        before = {host.zid: host.ip for host in world.hosts}
        moved = world.rotate_node_ips(0.5, seed=9)
        assert moved > 0.3 * len(world.hosts)
        changed = sum(1 for host in world.hosts if before[host.zid] != host.ip)
        assert changed == moved
        # New addresses stay inside the host's AS.
        for host in world.hosts:
            assert world.routeviews.ip_to_asn(host.ip) == host.asn
        # zIDs are untouched; Luminati still finds the same nodes.
        for host in world.hosts[:20]:
            assert world.registry.by_zid(host.zid) is not None

    def test_fraction_validation(self, fresh_tiny_world):
        with pytest.raises(ValueError):
            fresh_tiny_world.rotate_node_ips(1.5)

    def test_measurement_sees_new_ip(self, fresh_tiny_world):
        from repro.sim.world import PROBE_ZONE

        world = fresh_tiny_world
        result = world.client.request(f"http://objects.{PROBE_ZONE}/", session="churn-a")
        zid = result.debug.zid
        old_ip = result.debug.exit_ip
        world.rotate_node_ips(1.0, seed=1)
        result2 = world.client.request(f"http://objects.{PROBE_ZONE}/", session="churn-a")
        assert result2.debug.zid == zid  # same machine (session + zID)
        assert result2.debug.exit_ip != old_ip  # new address


class TestCli:
    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["--scale", "0.01", "run", "--experiment", "dns"])
        assert args.command == "run"
        assert args.scale == 0.01
        assert args.experiment == "dns"

    def test_world_info(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["--scale", "0.004", "world-info"]) == 0
        out = capsys.readouterr().out
        assert "largest exit-node populations" in out
        assert "hijack vectors" in out

    def test_run_dns_with_export(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(
            ["--scale", "0.004", "run", "--experiment", "dns", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "attribution" in out
        assert (tmp_path / "dns.jsonl").exists()

    def test_report_roundtrip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        main(["--scale", "0.004", "run", "--experiment", "https", "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(
            [
                "--scale", "0.004", "report",
                "--experiment", "https", "--dataset", str(tmp_path / "https.jsonl"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out
