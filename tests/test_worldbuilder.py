"""The worldbuilder DSL: layers, bindings, compiler, presets, digests.

Three contracts anchor this file:

* ``paper_faithful`` canonicalizes to the default profile universe, so a
  full-study run digest over it is **bit-identical** to a run over the
  world ``sim/profiles.py`` builds at the same seed and scale;
* every planted middlebox's expected §4–§7 finding is rediscovered by a
  small-scale study with **zero false rows** (the sterile presets plant
  everything there is to find);
* a compiled world's manifest SHA-256 rides run metrics, and a compiled
  world resumes from its own checkpoint (a shard cache) like any other.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.core import export
from repro.core.analysis import table4_isp_dns, table7_image_compression, table_http_proxies
from repro.core.attribution import classify_dns_servers
from repro.core.study import run_full_study
from repro.serve import SHARD_CACHE_DIR, DiskShardCache
from repro.sim import WorldConfig, build_world
from repro.sim.world import default_country_universe
from repro.worldbuilder import (
    BaseLayer,
    Binding,
    HttpProxy,
    MiddleboxLayer,
    Monitor,
    NodePopulationLayer,
    ResolverHijacker,
    ResolverLayer,
    TlsProxy,
    Transcoder,
    WorldSpec,
    WorldSpecError,
    by_country,
    by_isp,
    by_prefix,
    compile_spec,
    diff_manifests,
    get_preset,
    manifest_sha256,
    validate_spec,
    where,
    world_manifest,
)
from repro.worldbuilder.presets import PRESETS

TINY_CONFIG = WorldConfig(
    scale=1.0,
    seed=13,
    sterile=True,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)


def tiny_spec(name: str = "tiny") -> WorldSpec:
    """A two-country, two-ISP sterile world that compiles in milliseconds."""
    spec = WorldSpec(name, TINY_CONFIG)
    base = BaseLayer()
    base.add_country("AA", 220)
    base.add_isp("AA", "AA Net", share=0.9)
    base.add_country("BB", 160)
    base.add_isp("BB", "BB Net", share=0.9)
    spec.add(base)
    return spec


class TestPresets:
    def test_all_presets_compile(self):
        for name in PRESETS:
            compiled = compile_spec(get_preset(name, scale=0.02))
            assert compiled.name == name
            assert len(compiled.manifest_sha) == 64
            assert compiled.manifest == world_manifest(
                compiled.config, compiled.countries
            )

    def test_paper_faithful_canonicalizes_to_default_universe(self):
        compiled = compile_spec(get_preset("paper_faithful", scale=0.02))
        assert compiled.canonical and compiled.countries is None
        assert compiled.universe == default_country_universe()
        # The digest-identity keystone: the DSL round trip hashes to the
        # same manifest as a config-only (profiles-built) world.
        assert compiled.manifest_sha == manifest_sha256(compiled.config)

    def test_novel_presets_are_not_expressible_by_profiles(self):
        for name in ("censored_region", "cdn_heavy", "mobile_carrier"):
            compiled = compile_spec(get_preset(name, scale=0.02))
            assert not compiled.canonical, name
        # censored_region's in-path TLS interception is the flagship: no
        # CountrySpec in sim/profiles.py carries a tls_proxy.
        censored = compile_spec(get_preset("censored_region", scale=0.02))
        planted = [
            isp.tls_proxy
            for country in censored.universe
            for isp in country.isps
            if isp.tls_proxy is not None
        ]
        assert len(planted) == 1
        assert planted[0].issuer_cn == "XC National Gateway CA"
        assert all(
            isp.tls_proxy is None
            for country in default_country_universe()
            for isp in country.isps
        )

    def test_preset_shas_are_stable_within_a_process(self):
        for name in PRESETS:
            first = compile_spec(get_preset(name, scale=0.02)).manifest_sha
            second = compile_spec(get_preset(name, scale=0.02)).manifest_sha
            assert first == second, name

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(KeyError, match="censored_region"):
            get_preset("nope")

    def test_scale_and_seed_parameterize_the_manifest(self):
        base = compile_spec(get_preset("cdn_heavy", scale=0.02)).manifest_sha
        rescaled = compile_spec(get_preset("cdn_heavy", scale=0.04)).manifest_sha
        reseeded = compile_spec(get_preset("cdn_heavy", scale=0.02, seed=7)).manifest_sha
        assert len({base, rescaled, reseeded}) == 3


class TestBindings:
    DRAFTS = None  # built per test from a compiled cdn_heavy spec

    @staticmethod
    def drafts():
        spec = get_preset("cdn_heavy", scale=0.02)
        base = next(layer for layer in spec.layers if isinstance(layer, BaseLayer))
        return [
            isp for country in base.countries for isp in country.isps
        ]

    def test_selectors_compose_conjunctively(self):
        drafts = self.drafts()
        assert len([d for d in drafts if by_country("CA").matches(d)]) == 4
        assert [d.name for d in drafts if by_isp("Origin Transit").matches(d)] == [
            "Origin Transit"
        ]
        assert [d for d in drafts if by_prefix("9.9.9.0/24").matches(d)] == []
        mobile = where("mobile", lambda d: d.mobile)
        assert [d for d in drafts if mobile.matches(d)] == []

    def test_where_requires_a_name(self):
        with pytest.raises(ValueError, match="named"):
            where("", lambda d: True)

    def test_fraction_pick_is_deterministic_and_order_preserving(self):
        drafts = self.drafts()
        binding = Binding(selector=by_country("CA", "CB"), fraction=0.5, key="edge")
        first = binding.select(drafts)
        second = binding.select(drafts)
        assert first == second
        assert len(first) == round(7 * 0.5)
        # Declaration order is preserved regardless of hash rank.
        indexed = [drafts.index(d) for d in first]
        assert indexed == sorted(indexed)

    def test_key_rotates_the_selection(self):
        drafts = self.drafts()
        picks = {
            key: tuple(
                d.name
                for d in Binding(
                    selector=by_country("CA", "CB"), fraction=0.5, key=key
                ).select(drafts)
            )
            for key in ("edge", "edge2", "edge3", "edge4")
        }
        assert len(set(picks.values())) > 1, "keyed rank never rotated the pick"

    def test_limit_validation(self):
        with pytest.raises(ValueError, match="limit"):
            Binding(selector=by_country("CA"), limit=0)
        with pytest.raises(ValueError, match="fraction"):
            Binding(selector=by_country("CA"), fraction=1.5)


class TestValidation:
    def test_no_base_layer(self):
        issues = validate_spec(WorldSpec("empty", TINY_CONFIG))
        assert [i.code for i in issues] == ["no-base-layer"]

    def test_duplicate_country(self):
        spec = tiny_spec()
        spec.layers[0].add_country("AA", 100)
        assert "duplicate-country" in {i.code for i in validate_spec(spec)}

    def test_duplicate_isp(self):
        spec = tiny_spec()
        spec.layers[0].add_isp("AA", "AA Net", share=0.05)
        assert "duplicate-isp" in {i.code for i in validate_spec(spec)}

    def test_unknown_country_isp(self):
        spec = tiny_spec()
        spec.layers[0].add_isp("ZZ", "Ghost Net", share=0.5)
        assert "unknown-country" in {i.code for i in validate_spec(spec)}

    def test_share_overflow(self):
        spec = tiny_spec()
        spec.layers[0].add_isp("AA", "AA Too Much", share=0.5)
        assert "share-overflow" in {i.code for i in validate_spec(spec)}

    def test_bad_and_overlapping_prefixes(self):
        spec = tiny_spec()
        base = spec.layers[0]
        base.add_isp("AA", "Bad Prefix", share=0.01, prefix="not-a-prefix")
        codes = {i.code for i in validate_spec(spec)}
        assert "bad-prefix" in codes

        spec = tiny_spec()
        base = spec.layers[0]
        base.add_isp("AA", "Outer", share=0.01, prefix="30.0.0.0/8")
        base.add_isp("BB", "Inner", share=0.01, prefix="30.1.0.0/16")
        assert "overlapping-prefix" in {i.code for i in validate_spec(spec)}

    def test_duplicate_asn(self):
        spec = tiny_spec()
        base = spec.layers[0]
        base.add_isp("AA", "First", share=0.01, fixed_asn=64999)
        base.add_isp("BB", "Second", share=0.01, fixed_asn=64999)
        assert "duplicate-asn" in {i.code for i in validate_spec(spec)}

    def test_orphan_binding(self):
        spec = tiny_spec()
        boxes = MiddleboxLayer()
        boxes.plant(by_isp("No Such ISP"), HttpProxy("ghost.proxy"))
        spec.add(boxes)
        issues = validate_spec(spec)
        assert [i.code for i in issues] == ["orphan-binding"]

    def test_conflicting_middlebox(self):
        spec = tiny_spec()
        boxes = MiddleboxLayer()
        boxes.plant(by_isp("AA Net"), HttpProxy("first.proxy"))
        boxes.plant(by_isp("AA Net"), HttpProxy("second.proxy"))
        spec.add(boxes)
        assert "conflicting-middlebox" in {i.code for i in validate_spec(spec)}

    def test_bad_churn(self):
        spec = tiny_spec()
        population = NodePopulationLayer()
        population.set_churn(1.5)
        spec.add(population)
        assert "bad-churn" in {i.code for i in validate_spec(spec)}

    def test_unclaimed_ground_truth(self):
        # An ISP so small it scales to zero nodes cannot host a finding a
        # study could ever rediscover — the compiler refuses the spec.
        spec = WorldSpec("dust", WorldConfig(scale=0.001, seed=1, sterile=True))
        base = BaseLayer()
        base.add_country("AA", 400)
        base.add_isp("AA", "AA Dust", share=0.5)
        spec.add(base)
        boxes = MiddleboxLayer()
        boxes.plant(by_isp("AA Dust"), HttpProxy("dust.proxy"))
        spec.add(boxes)
        assert "unclaimed-ground-truth" in {i.code for i in validate_spec(spec)}

    def test_compile_raises_with_every_issue_listed(self):
        spec = WorldSpec("broken", TINY_CONFIG)
        base = BaseLayer()
        base.add_country("AA", 200)
        base.add_country("AA", 100)
        base.add_isp("ZZ", "Ghost Net", share=0.2)
        spec.add(base)
        with pytest.raises(WorldSpecError) as excinfo:
            compile_spec(spec)
        codes = {issue.code for issue in excinfo.value.issues}
        assert {"duplicate-country", "unknown-country"} <= codes
        assert "duplicate-country" in str(excinfo.value)

    def test_clean_spec_has_no_issues(self):
        assert validate_spec(tiny_spec()) == []


class TestManifests:
    def test_manifest_sha_matches_canonical_json(self):
        compiled = compile_spec(tiny_spec())
        expected = hashlib.sha256(
            compiled.manifest_json().encode("utf-8")
        ).hexdigest()
        assert compiled.manifest_sha == expected

    def test_inert_fault_seed_shares_a_manifest(self):
        # Zero-fault identity: without a profile the fault seed draws
        # nothing, so it must not split world identities (the engine's
        # metrics would otherwise differ between byte-identical runs).
        quiet = manifest_sha256(WorldConfig(scale=0.02))
        seeded = manifest_sha256(WorldConfig(scale=0.02, fault_seed=99))
        assert quiet == seeded
        chaotic = manifest_sha256(
            WorldConfig(scale=0.02, fault_profile="chaos", fault_seed=99)
        )
        reseeded = manifest_sha256(
            WorldConfig(scale=0.02, fault_profile="chaos", fault_seed=6)
        )
        assert chaotic != reseeded

    def test_manifest_always_expands_the_universe(self):
        # Even a canonical (countries=None) world's manifest records every
        # country explicitly, so the hash never depends on profile defaults
        # staying put silently.
        payload = world_manifest(WorldConfig(scale=0.02))
        assert payload["version"] == 1
        assert len(payload["countries"]) == len(default_country_universe())

    def test_diff_identical_manifests_is_empty(self):
        first = compile_spec(tiny_spec())
        second = compile_spec(tiny_spec())
        assert diff_manifests(first.manifest, second.manifest) == []

    def test_diff_reports_config_and_country_changes(self):
        tiny = compile_spec(tiny_spec())
        censored = compile_spec(get_preset("censored_region", scale=0.02))
        lines = diff_manifests(tiny.manifest, censored.manifest)
        assert any("config.scale" in line for line in lines)
        assert any("XC" in line for line in lines)

    def test_report_is_json_serializable(self):
        compiled = compile_spec(get_preset("censored_region", scale=0.02))
        payload = json.loads(json.dumps(compiled.report()))
        assert payload["name"] == "censored_region"
        assert payload["manifest_sha256"] == compiled.manifest_sha
        assert len(payload["expected_findings"]) == 5


class TestPaperFaithfulDigestEquivalence:
    """The acceptance keystone: DSL world == profiles world, bit for bit."""

    CONFIG = WorldConfig(scale=0.002, seed=11, include_rare_tail=False)

    @pytest.fixture(scope="class")
    def compiled(self):
        spec = get_preset("paper_faithful")
        spec.config = self.CONFIG  # presets fix topology, not size
        return compile_spec(spec)

    def test_run_digest_and_datasets_are_bit_identical(self, compiled):
        assert compiled.canonical
        composed = compiled.run_study(seed=5, shards=2)
        legacy = run_full_study(config=self.CONFIG, seed=5, shards=2)
        assert composed.engine_report is not None
        assert legacy.engine_report is not None
        # The composed run stamps the compiled manifest; the legacy run
        # stamps the manifest of its (config, None) world — same world,
        # same SHA, and the rest of the report matches field for field.
        assert composed.engine_report["world_manifest"] == compiled.manifest_sha
        assert composed.engine_report == legacy.engine_report
        for name in export.KINDS:
            assert export.dataset_to_lines(getattr(composed, name)) == export.dataset_to_lines(
                getattr(legacy, name)
            ), f"{name} datasets diverged"


class TestWorldManifestThreading:
    """The manifest SHA rides run metrics; compiled worlds resume from a checkpoint."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        compiled = compile_spec(tiny_spec())
        directory = tmp_path_factory.mktemp("wb") / SHARD_CACHE_DIR
        results = compiled.run_study(
            seed=21, shards=2, shard_cache=DiskShardCache(directory)
        )
        return compiled, results, directory

    def test_report_records_the_manifest_sha(self, run):
        compiled, results, _directory = run
        assert results.engine_report["world_manifest"] == compiled.manifest_sha

    def test_resume_with_matching_world_succeeds(self, run):
        compiled, results, directory = run
        cache = DiskShardCache(directory)
        resumed = compiled.run_study(seed=21, shards=2, shard_cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (2, 0)
        assert resumed.engine_report == results.engine_report
        assert export.dataset_to_lines(resumed.dns) == export.dataset_to_lines(results.dns)


class TestCensoredRegionRediscovery:
    """Every planted behaviour is found; nothing else is (zero false rows)."""

    @pytest.fixture(scope="class")
    def study(self):
        compiled = compile_spec(get_preset("censored_region", scale=0.02, seed=77))
        return compiled, compiled.run_study(seed=77)

    def test_every_expected_finding_verifies(self, study):
        compiled, results = study
        assert len(compiled.findings) == 5
        verdicts = {
            (f.kind, f.isp): f.verify(results) for f in compiled.findings
        }
        assert all(verdicts.values()), f"unrediscovered: {verdicts}"

    def test_table4_has_exactly_the_planted_hijacker(self, study):
        _compiled, results = study
        classification = classify_dns_servers(
            results.dns, results.world.routeviews, results.world.orgmap,
            results.thresholds,
        )
        rows = table4_isp_dns(classification, results.world.orgmap)
        assert [(row.country, row.isp) for row in rows] == [
            ("XC", "XC National Backbone")
        ]

    def test_issuer_table_has_exactly_the_gateway_ca(self, study):
        _compiled, results = study
        assert [row.issuer for row in results.cert_analysis.rows] == [
            "XC National Gateway CA"
        ]

    def test_monitor_table_has_exactly_the_backbone(self, study):
        _compiled, results = study
        assert [row.entity for row in results.monitoring_analysis.rows] == [
            "XC National Backbone"
        ]

    def test_proxy_table_has_exactly_the_border_cache(self, study):
        _compiled, results = study
        rows = table_http_proxies(
            results.http, results.world.orgmap, results.thresholds
        )
        assert [(row.isp, row.via_token) for row in rows] == [
            ("NB Open Net", "nb-border-cache1.proxy")
        ]

    def test_transcoder_table_has_exactly_the_mobile_carrier(self, study):
        _compiled, results = study
        rows = table7_image_compression(
            results.http, results.world.corpus, results.world.orgmap,
            results.thresholds,
        )
        assert [row.isp for row in rows] == ["XC Mobile"]

    def test_no_js_injection_was_planted_or_found(self, study):
        _compiled, results = study
        assert results.html_analysis.injected_nodes == 0


class TestChurn:
    def test_mobile_carrier_churn_moves_only_the_mobile_fleet(self):
        compiled = compile_spec(get_preset("mobile_carrier", scale=0.005))
        assert compiled.churns == ((0.1, ("Carrier One Mobile",)),)
        pristine = build_world(compiled.config, compiled.countries)
        churned = compiled.build()
        p_cols, c_cols = pristine.hosts.columns, churned.hosts.columns
        moved = [
            index
            for index in range(len(c_cols))
            if c_cols.ip[index] != p_cols.ip[index]
        ]
        assert moved, "churn directive moved no addresses"
        for index in moved:
            record = c_cols.isp_records[c_cols.isp_idx[index]]
            assert record.spec.name == "Carrier One Mobile"

    def test_churn_is_deterministic(self):
        compiled = compile_spec(get_preset("mobile_carrier", scale=0.005))
        first = list(compiled.build().hosts.columns.ip)
        second = list(compiled.build().hosts.columns.ip)
        assert first == second

    def test_churn_never_reaches_the_manifest_or_engine(self):
        compiled = compile_spec(get_preset("mobile_carrier", scale=0.005))
        assert "churn" not in compiled.manifest_json()
        with pytest.raises(ValueError, match="churn"):
            compiled.run_study(seed=3, shards=2)


class TestWorldCommand:
    def test_presets_lists_all_four(self, capsys):
        assert main(["world", "presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_compile_prints_report_and_writes_manifest(self, capsys, tmp_path):
        manifest_path = tmp_path / "m.json"
        code = main([
            "world", "compile", "censored_region",
            "--world-scale", "0.02", "--out", str(manifest_path),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = compile_spec(get_preset("censored_region", scale=0.02))
        assert payload["manifest_sha256"] == expected.manifest_sha
        on_disk = manifest_path.read_text(encoding="utf-8").rstrip("\n")
        assert hashlib.sha256(on_disk.encode("utf-8")).hexdigest() == (
            expected.manifest_sha
        )

    def test_validate_clean_preset(self, capsys):
        assert main(["world", "validate", "paper_faithful"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_diff_same_preset_is_identical(self, capsys):
        assert main([
            "world", "diff", "cdn_heavy", "cdn_heavy", "--world-scale", "0.02",
        ]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_different_presets_exits_one(self, capsys):
        assert main([
            "world", "diff", "cdn_heavy", "mobile_carrier",
            "--world-scale", "0.02",
        ]) == 1
        assert "config." in capsys.readouterr().out

    def test_unknown_preset_exits_two(self, capsys):
        assert main(["world", "compile", "nope"]) == 2
        assert "unknown preset" in capsys.readouterr().err
