"""Tests for the DNS substrate: messages, authoritative serving, resolution."""

import pytest
from hypothesis import given, strategies as st

from repro.dnssim.authoritative import AuthoritativeServer, DnsRoot, RecordPolicy
from repro.dnssim.hijack import HijackPolicy, extract_link_domains, render_hijack_page
from repro.dnssim.message import DnsQuery, DnsResponse, QueryLog, RCode
from repro.dnssim.resolver import GooglePublicDns, RecursiveResolver
from repro.net.clock import SimClock
from repro.net.ip import str_to_ip


class TestDnsMessages:
    def test_query_name_normalized(self):
        query = DnsQuery(qname="WWW.Example.COM.", source_ip=1)
        assert query.qname == "www.example.com"

    def test_answer_requires_address(self):
        with pytest.raises(ValueError):
            DnsResponse(RCode.NOERROR, ())

    def test_nxdomain_carries_no_addresses(self):
        with pytest.raises(ValueError):
            DnsResponse(RCode.NXDOMAIN, (1,))

    def test_first_address(self):
        response = DnsResponse.answer(10, 20)
        assert response.first_address == 10
        with pytest.raises(ValueError):
            DnsResponse.nxdomain().first_address

    def test_is_nxdomain(self):
        assert DnsResponse.nxdomain().is_nxdomain
        assert not DnsResponse.answer(1).is_nxdomain
        assert not DnsResponse.servfail().is_nxdomain

    def test_query_log_index(self):
        log = QueryLog()
        for index in range(5):
            log.append(time=float(index), qname=f"n{index % 2}.example",
                       source_ip=index, rcode=RCode.NOERROR)
        assert log.sources_for_name("n0.example") == [0, 2, 4]
        assert log.sources_for_name("N1.EXAMPLE") == [1, 3]
        assert log.sources_for_name("missing.example") == []
        assert len(log) == 5


class TestAuthoritativeServer:
    def make(self, zone="zone.example"):
        return AuthoritativeServer(zone, SimClock())

    def test_registered_name_answers(self):
        server = self.make()
        server.register_a("a.zone.example", 42)
        response = server.query(DnsQuery("a.zone.example", source_ip=7))
        assert response.addresses == (42,)

    def test_unregistered_name_nxdomain(self):
        server = self.make()
        response = server.query(DnsQuery("missing.zone.example", source_ip=7))
        assert response.is_nxdomain

    def test_out_of_zone_servfail(self):
        server = self.make()
        response = server.query(DnsQuery("other.example", source_ip=7))
        assert response.rcode is RCode.SERVFAIL

    def test_conditional_answer_by_source(self):
        server = self.make()
        allowed = str_to_ip("74.125.0.10")
        server.register_a("d2.zone.example", 42, allow_source=lambda ip: ip == allowed)
        assert server.query(DnsQuery("d2.zone.example", source_ip=allowed)).addresses == (42,)
        assert server.query(DnsQuery("d2.zone.example", source_ip=allowed + 1)).is_nxdomain

    def test_names_that_answer_alike_share_one_policy(self):
        server = self.make()
        egress = GooglePublicDns.is_superproxy_egress
        inside, outside = str_to_ip("74.125.0.10"), str_to_ip("10.0.0.1")
        for probe in (1, 2):
            server.register_a(f"d1-{probe}.zone.example", 42)
            server.register_a(f"d2-{probe}.zone.example", 42, allow_source=egress)
        server.register_a("other.zone.example", 43)
        policies = server._records
        assert policies["d1-1.zone.example"] is policies["d1-2.zone.example"]
        assert policies["d2-1.zone.example"] is policies["d2-2.zone.example"]
        assert policies["d1-1.zone.example"] is not policies["d2-1.zone.example"]
        assert policies["other.zone.example"] is not policies["d1-1.zone.example"]
        for probe in (1, 2):
            for source in (inside, outside):
                d1 = server.query(DnsQuery(f"d1-{probe}.zone.example", source_ip=source))
                assert d1.addresses == (42,)
            d2 = f"d2-{probe}.zone.example"
            assert server.query(DnsQuery(d2, source_ip=inside)).addresses == (42,)
            assert server.query(DnsQuery(d2, source_ip=outside)).is_nxdomain
        assert server.query(DnsQuery("other.zone.example", source_ip=inside)).addresses == (43,)

    def test_zone_default_covers_unregistered(self):
        server = self.make()
        server.set_zone_default(RecordPolicy(address=99))
        assert server.query(DnsQuery("anything.zone.example", source_ip=1)).addresses == (99,)

    def test_explicit_record_beats_default(self):
        server = self.make()
        server.set_zone_default(RecordPolicy(address=99))
        server.register_a("special.zone.example", 1)
        assert server.query(DnsQuery("special.zone.example", source_ip=1)).addresses == (1,)

    def test_register_outside_zone_rejected(self):
        server = self.make()
        with pytest.raises(ValueError):
            server.register_a("foo.other.example", 1)

    def test_every_query_logged_with_source(self):
        server = self.make()
        server.register_a("a.zone.example", 42)
        server.query(DnsQuery("a.zone.example", source_ip=7))
        server.query(DnsQuery("a.zone.example", source_ip=8))
        assert server.log.sources_for_name("a.zone.example") == [7, 8]

    def test_zone_apex_is_in_zone(self):
        server = self.make()
        assert server.in_zone("zone.example")
        assert server.in_zone("deep.sub.zone.example")
        assert not server.in_zone("zone.example.com")


class TestDnsRoot:
    def test_routes_to_most_specific_zone(self):
        clock = SimClock()
        root = DnsRoot()
        outer = AuthoritativeServer("example", clock)
        inner = AuthoritativeServer("sub.example", clock)
        outer.register_a("a.example", 1)
        inner.register_a("b.sub.example", 2)
        root.register(outer)
        root.register(inner)
        assert root.resolve_authoritative("a.example", 9, 0.0).addresses == (1,)
        assert root.resolve_authoritative("b.sub.example", 9, 0.0).addresses == (2,)

    def test_unknown_zone_is_nxdomain(self):
        root = DnsRoot()
        assert root.resolve_authoritative("nowhere.test", 9, 0.0).is_nxdomain

    def test_duplicate_zone_rejected(self):
        clock = SimClock()
        root = DnsRoot()
        root.register(AuthoritativeServer("zone.example", clock))
        with pytest.raises(ValueError):
            root.register(AuthoritativeServer("zone.example", clock))


def _root_with_zone(clock):
    root = DnsRoot()
    server = AuthoritativeServer("zone.example", clock)
    server.register_a("real.zone.example", 42)
    root.register(server)
    return root, server


class TestRecursiveResolver:
    def test_honest_resolution(self):
        clock = SimClock()
        root, _server = _root_with_zone(clock)
        resolver = RecursiveResolver(service_ip=100, root=root, clock=clock)
        assert resolver.resolve("real.zone.example", client_ip=1).addresses == (42,)
        assert resolver.resolve("fake.zone.example", client_ip=1).is_nxdomain

    def test_hijack_rewrites_nxdomain_only(self):
        clock = SimClock()
        root, _server = _root_with_zone(clock)
        policy = HijackPolicy(operator="EvilISP", landing_domain="ads.evil.example", redirect_ip=7)
        resolver = RecursiveResolver(service_ip=100, root=root, clock=clock, hijack=policy)
        assert resolver.resolve("fake.zone.example", client_ip=1).addresses == (7,)
        assert resolver.resolve("real.zone.example", client_ip=1).addresses == (42,)

    def test_partial_hijack_rate_is_deterministic_per_name(self):
        clock = SimClock()
        root, _server = _root_with_zone(clock)
        policy = HijackPolicy(operator="E", landing_domain="l.example", redirect_ip=7)
        resolver = RecursiveResolver(
            service_ip=100, root=root, clock=clock, hijack=policy, hijack_rate=0.5
        )
        names = [f"q{i}.zone.example" for i in range(300)]
        first = [resolver.resolve(name, 1).is_nxdomain for name in names]
        second = [resolver.resolve(name, 1).is_nxdomain for name in names]
        assert first == second  # stable per name
        hijacked = first.count(False)
        assert 90 <= hijacked <= 210  # roughly half

    def test_hijack_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            RecursiveResolver(1, DnsRoot(), SimClock(), hijack_rate=1.5)

    def test_server_egress_appears_in_auth_log(self):
        clock = SimClock()
        root, server = _root_with_zone(clock)
        resolver = RecursiveResolver(service_ip=100, root=root, clock=clock)
        resolver.resolve("real.zone.example", client_ip=55)
        assert server.log.sources_for_name("real.zone.example") == [100]

    def test_direct_probe_refusal(self):
        clock = SimClock()
        root, _server = _root_with_zone(clock)
        silent = RecursiveResolver(
            service_ip=100, root=root, clock=clock, answers_direct_probes=False
        )
        assert silent.direct_probe("real.zone.example", prober_ip=1) is None

    def test_egress_stable_per_client(self):
        clock = SimClock()
        root, server = _root_with_zone(clock)
        resolver = RecursiveResolver(
            service_ip=100, root=root, clock=clock, egress_ips=[201, 202, 203]
        )
        first = resolver.egress_for(client_ip=5)
        assert all(resolver.egress_for(5) == first for _ in range(10))
        assert first in (201, 202, 203)


class TestGooglePublicDns:
    def make(self, clock=None):
        clock = clock or SimClock()
        root, server = _root_with_zone(clock)
        google = GooglePublicDns(
            root=root,
            clock=clock,
            egress_ips=[str_to_ip("173.194.10.1"), str_to_ip("173.194.10.2")],
            superproxy_egress_ips=[str_to_ip("74.125.0.10")],
        )
        return google, server

    def test_superproxy_egress_pinned_to_whitelisted_block(self):
        google, server = self.make()
        google.resolve_for_superproxy("real.zone.example", superproxy_ip=1)
        (source,) = server.log.sources_for_name("real.zone.example")
        assert GooglePublicDns.is_superproxy_egress(source)

    def test_client_egress_uses_other_blocks(self):
        google, server = self.make()
        google.resolve("real.zone.example", client_ip=5)
        (source,) = server.log.sources_for_name("real.zone.example")
        assert GooglePublicDns.is_google_egress(source)

    def test_never_hijacks(self):
        google, _server = self.make()
        assert google.resolve("fake.zone.example", client_ip=5).is_nxdomain

    def test_superproxy_egress_must_be_in_block(self):
        clock = SimClock()
        root, _server = _root_with_zone(clock)
        with pytest.raises(ValueError):
            GooglePublicDns(
                root=root, clock=clock,
                egress_ips=[1], superproxy_egress_ips=[str_to_ip("1.2.3.4")],
            )

    def test_published_netblock_membership(self):
        assert GooglePublicDns.is_google_egress(str_to_ip("74.125.1.1"))
        assert GooglePublicDns.is_google_egress(str_to_ip("173.194.200.9"))
        assert not GooglePublicDns.is_google_egress(str_to_ip("9.9.9.9"))


class TestHijackPages:
    def test_page_contains_landing_domain(self):
        policy = HijackPolicy(operator="X", landing_domain="ads.x.example", redirect_ip=1)
        page = render_hijack_page(policy, "typo.example")
        assert b"ads.x.example" in page
        assert b"typo.example" in page

    def test_extract_link_domains(self):
        policy = HijackPolicy(operator="X", landing_domain="ads.x.example", redirect_ip=1)
        page = render_hijack_page(policy, "typo.example")
        assert extract_link_domains(page) == ["ads.x.example"]

    def test_js_family_embedded_when_set(self):
        policy = HijackPolicy(
            operator="X", landing_domain="l.example", redirect_ip=1,
            js_family="SearchAssistRedirect-v2",
        )
        page = render_hijack_page(policy, "typo.example")
        assert b"SearchAssistRedirect-v2" in page

    def test_extract_dedupes_and_lowercases(self):
        page = b'<a href="http://A.example/x">x</a><a href="https://a.example/y">y</a>'
        assert extract_link_domains(page) == ["a.example"]

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
    def test_extract_never_crashes(self, text):
        extract_link_domains(text.encode("ascii"))

    def test_apply_passes_through_answers(self):
        policy = HijackPolicy(operator="X", landing_domain="l.example", redirect_ip=7)
        answer = DnsResponse.answer(42)
        assert policy.apply(answer) is answer
        assert policy.apply(DnsResponse.nxdomain()).addresses == (7,)
