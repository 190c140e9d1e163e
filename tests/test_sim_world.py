"""Structural invariants of generated worlds."""

import pickle

import pytest

from repro.dnssim.resolver import GooglePublicDns
from repro.net.geo import CountryRegistry
from repro.sim import WorldConfig, build_world
from repro.sim.config import SCALE_ENV_VAR
from repro.sim.profiles import NAMED_COUNTRIES, tail_hijack_ratio, tail_population
from repro.web.content import ContentCorpus, ObjectKind
from tests.conftest import tiny_country_specs


class TestWorldConfig:
    def test_scaled_rounding(self):
        config = WorldConfig(scale=0.1)
        assert config.scaled(100) == 10
        assert config.scaled(4) == 0
        assert config.scaled(4, minimum=1) == 1

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(scale=0.0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "0.25")
        assert WorldConfig.from_env().scale == 0.25
        monkeypatch.delenv(SCALE_ENV_VAR)
        assert WorldConfig.from_env(scale=0.5).scale == 0.5


class TestProfiles:
    def test_named_country_codes_unique_and_known(self):
        registry = CountryRegistry()
        codes = [spec.code for spec in NAMED_COUNTRIES]
        assert len(codes) == len(set(codes))
        for code in codes:
            assert code in registry

    def test_isp_shares_do_not_exceed_one(self):
        for spec in NAMED_COUNTRIES:
            share = sum(isp.share for isp in spec.isps if isp.population is None)
            assert share <= 1.0, spec.code

    def test_tail_population_stable_and_positive(self):
        assert tail_population("AL") == tail_population("AL")
        assert tail_population("AL") > 0

    def test_tail_hijack_ratio_bounds(self):
        registry = CountryRegistry()
        ratios = [tail_hijack_ratio(c.code) for c in registry]
        assert all(0.0 <= r <= 0.02 for r in ratios)
        assert any(r == 0.0 for r in ratios)  # some countries see none


class TestWorldStructure:
    def test_every_host_ip_maps_to_its_as(self, small_world):
        for host in small_world.hosts[::97]:
            assert small_world.routeviews.ip_to_asn(host.ip) == host.asn

    def test_every_as_has_an_org_with_country(self, small_world):
        registry = CountryRegistry()
        for asys in small_world.routeviews:
            org = small_world.orgmap.asn_to_org(asys.asn)
            assert org is not None
            assert org.country in registry or org.country == ""

    def test_host_country_truth_matches_orgmap(self, small_world):
        for host in small_world.hosts[::103]:
            assert (
                small_world.orgmap.asn_to_country(host.asn) == host.truth["country"]
            )

    def test_zids_unique(self, small_world):
        zids = [host.zid for host in small_world.hosts]
        assert len(zids) == len(set(zids))

    def test_host_ips_unique(self, small_world):
        ips = [host.ip for host in small_world.hosts]
        assert len(ips) == len(set(ips))

    def test_truth_totals_consistent(self, small_world):
        truth = small_world.truth
        assert truth.nodes_total == len(small_world.hosts)
        assert sum(truth.nodes_by_country.values()) == truth.nodes_total
        assert sum(truth.nodes_by_asn.values()) == truth.nodes_total

    def test_hijack_vectors_sum(self, small_world):
        truth = small_world.truth
        assert sum(truth.hijack_by_vector.values()) == truth.hijacked_nodes
        assert 0 < truth.hijacked_nodes < truth.nodes_total * 0.15

    def test_fixed_asns_present(self, small_world):
        # Table 7 mobile ASes keep their real AS numbers.
        for asn in (15617, 29180, 29975, 36925, 132199, 42925):
            assert asn in small_world.routeviews

    def test_mobile_population_floored(self, small_world):
        # Globe Telecom keeps its paper-scale population even at 1% scale.
        assert small_world.truth.transcoder_nodes[132199] >= 1_400

    def test_alexa_coverage_limited(self, small_world):
        assert len(small_world.popular_sites) == small_world.config.alexa_countries
        for sites in small_world.popular_sites.values():
            assert len(sites) == small_world.config.popular_sites_per_country

    def test_invalid_sites_have_known_chains(self, small_world):
        kinds = {site.invalid_kind for site in small_world.invalid_sites}
        assert kinds == {"self_signed", "expired", "wrong_cn"}
        for site in small_world.invalid_sites:
            assert site.known_chain is not None

    def test_popular_site_chains_validate(self, small_world):
        from repro.tlssim.validation import validate_chain

        sites = next(iter(small_world.popular_sites.values()))
        for site in sites[:5]:
            chain = small_world.internet.tls_chain(site.ip, 443, site.domain)
            result = validate_chain(
                chain, site.domain, small_world.root_store, small_world.internet.clock.now
            )
            assert result.valid, result.errors

    def test_invalid_site_chains_fail_validation(self, small_world):
        from repro.tlssim.validation import validate_chain

        for site in small_world.invalid_sites:
            chain = small_world.internet.tls_chain(site.ip, 443, site.domain)
            result = validate_chain(
                chain, site.domain, small_world.root_store, small_world.internet.clock.now
            )
            assert not result.valid, site.invalid_kind

    def test_google_resolver_registered(self, small_world):
        from repro.net.ip import str_to_ip

        assert small_world.internet.resolver_at(str_to_ip("8.8.8.8")) is small_world.google

    def test_monitor_entities_exist(self, small_world):
        for entity in ("Trend Micro", "Commtouch", "AnchorFree", "Bluecoat",
                       "TalkTalk", "Tiscali U.K."):
            assert entity in small_world.monitors

    def test_monitor_source_ips_map_to_entity_org(self, small_world):
        monitor = small_world.monitors["Trend Micro"]
        for ip in monitor.all_source_ips[:5]:
            asn = small_world.routeviews.ip_to_asn(ip)
            org = small_world.orgmap.asn_to_org(asn)
            assert org.name == "Trend Micro Inc."

    def test_build_deterministic(self):
        config = WorldConfig(scale=0.005, seed=3, include_rare_tail=False)
        a = build_world(config)
        b = build_world(config)
        assert [h.zid for h in a.hosts] == [h.zid for h in b.hosts]
        assert [h.ip for h in a.hosts] == [h.ip for h in b.hosts]
        assert a.truth.hijacked_nodes == b.truth.hijacked_nodes

    def test_successive_builds_pickle_equal(self):
        # A shard replaying a world in a process that already built one must
        # get the bytes a fresh worker's first build gets: nothing the
        # builder mints may draw on a process-wide counter.
        config = WorldConfig(seed=7)
        first = pickle.dumps(build_world(config, tiny_country_specs()))
        assert pickle.dumps(build_world(config, tiny_country_specs())) == first

    def test_replay_with_the_coordinators_corpus_pickles_equal(self):
        # A shard replay serves its coordinator's content corpus instead of
        # regenerating it; it must be the same world either way.
        config = WorldConfig(seed=7)
        coordinator = build_world(config, tiny_country_specs())
        replay = build_world(config, tiny_country_specs(), coordinator.corpus)
        assert replay.corpus is coordinator.corpus
        assert pickle.dumps(replay) == pickle.dumps(build_world(config, tiny_country_specs()))

    def test_corpus_from_another_seed_is_rejected(self):
        with pytest.raises(ValueError, match="'tft-8'"):
            build_world(
                WorldConfig(seed=7), tiny_country_specs(), ContentCorpus.build(seed="tft-8")
            )

    def test_corpus_at_other_sizes_is_rejected(self):
        corpus = ContentCorpus.build(sizes={ObjectKind.CSS: 2048}, seed="tft-7")
        with pytest.raises(ValueError, match="paper's sizes"):
            build_world(WorldConfig(seed=7), tiny_country_specs(), corpus)

    def test_seed_changes_world(self):
        a = build_world(WorldConfig(scale=0.005, seed=3, include_rare_tail=False))
        b = build_world(WorldConfig(scale=0.005, seed=4, include_rare_tail=False))
        assert [h.ip for h in a.hosts] != [h.ip for h in b.hosts]

    def test_countries_span_registry(self, small_world):
        # Even at 1% scale, a wide spread of countries has nodes.
        assert len(small_world.truth.nodes_by_country) > 150

    def test_superproxy_egress_whitelisted(self, small_world):
        answer = small_world.google.resolve_for_superproxy(
            "probe.tft-example.net", small_world.superproxy.ip
        )
        assert not answer.is_nxdomain

    def test_truth_hijack_ratio_near_paper(self, small_world):
        truth = small_world.truth
        ratio = truth.hijacked_nodes / truth.nodes_total
        # The paper's measured rate is 4.8%; planted truth should be in the
        # same band (the mobile-ISP floors dilute small worlds slightly).
        assert 0.025 <= ratio <= 0.09
