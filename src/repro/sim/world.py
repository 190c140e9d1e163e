"""Builds the simulated Internet from the planted profiles.

:func:`build_world` wires together every substrate — routing tables, the
org map, resolvers, hijack landing pages, web/TLS origins, exit-node hosts
with their software and path middleboxes, and the Luminati service — into a
:class:`World` the measurement pipeline can crawl.

Ground truth is recorded twice: per host in ``host.truth`` and aggregated in
:class:`WorldTruth`.  Both exist purely so tests can compare planted reality
against measured results; the experiment code never reads them.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dnssim.authoritative import AuthoritativeServer, RecordPolicy
from repro.dnssim.hijack import HijackPolicy
from repro.dnssim.resolver import GooglePublicDns, RecursiveResolver
from repro.fabric import Internet
from repro.faults import FaultInjector, get_profile
from repro.hosts import ExitNodeHost
from repro.luminati.registry import ColumnarNodeRegistry, ExitNodeRegistry, zid_of
from repro.luminati.service import LuminatiClient
from repro.luminati.superproxy import SuperProxy
from repro.middlebox.dns_rewrite import HostDnsRewriter, TransparentDnsProxy
from repro.middlebox.droppers import ResponseDropper
from repro.middlebox.injectors import IspWebFilter, JsInjector, PolicyBlocker
from repro.middlebox.monitor import ContentMonitor, DelayModel, DelaySpec
from repro.middlebox.http_proxy import TransparentHttpProxy
from repro.middlebox.tls_mitm import IspTlsProxy, MitmBehavior, TlsMitmProduct
from repro.middlebox.transcoder import ImageTranscoder
from repro.net.asn import RouteViewsTable
from repro.net.geo import CountryRegistry
from repro.net.ip import IpAllocator, Prefix, str_to_ip
from repro.net.orgmap import AsOrgMap
from repro.records import slot_init
from repro.sim.columnar import (
    HIJACK_VECTORS,
    NO_ENTRY,
    VEC_PUBLIC,
    VEC_RESOLVER,
    VEC_PATH,
    VEC_HOST,
    HostTable,
    IspRecord,
    NodeColumns,
)
from repro.sim.config import WorldConfig
from repro.sim import profiles
from repro.sim.profiles import (
    CountrySpec,
    IspSpec,
    MitmProductSpec,
    MonitorEntitySpec,
    NAMED_COUNTRIES,
    PublicDnsSpec,
    tail_hijack_ratio,
    tail_population,
)
from repro.tlssim.certs import (
    CertificateAuthority,
    CertificateChain,
    self_signed_certificate,
)
from repro.tlssim.handshake import RotatingTlsEndpoint, StaticTlsEndpoint
from repro.tlssim.rootstore import RootStore, build_osx_root_store
from repro.web.content import ContentCorpus
from repro.web.server import HijackPageServer, MeasurementWebServer

# Zones the experimenters control.
DNS_TEST_ZONE = "dnstest.tft-example.net"
PROBE_ZONE = "probe.tft-example.net"
OBJECTS_HOST = f"objects.{PROBE_ZONE}"

#: Average subscriber count of an auto-generated ("generic") ISP, full scale.
GENERIC_ISP_MEAN_NODES = 90
#: Average own-resolver subscribers per generic-ISP DNS server.
GENERIC_RESOLVER_LOAD = 130
#: Subscribers per "minor" resolver of a Table-4 ISP (kept below the paper's
#: >=10-node significance cut so the measured Table 4 matches the named rows).
MINOR_RESOLVER_LOAD = 6


@slot_init
@dataclass(frozen=True, slots=True)
class SiteRecord:
    """A HTTPS measurement target: domain, address, and (for our invalid
    sites) the exact chain we deployed, for the §6.1 exact-match check."""

    domain: str
    ip: int
    country: str = ""
    invalid_kind: str = ""
    known_chain: Optional[CertificateChain] = None


@dataclass
class WorldTruth:
    """Planted ground truth, aggregated (tests only — never the pipeline)."""

    nodes_total: int = 0
    nodes_by_country: Counter = field(default_factory=Counter)
    nodes_by_asn: Counter = field(default_factory=Counter)
    hijacked_nodes: int = 0
    hijack_by_vector: Counter = field(default_factory=Counter)
    hijack_by_operator: Counter = field(default_factory=Counter)
    google_dns_nodes: int = 0
    external_dns_nodes: int = 0
    injector_nodes: Counter = field(default_factory=Counter)
    mitm_nodes: Counter = field(default_factory=Counter)
    monitor_nodes: Counter = field(default_factory=Counter)
    transcoder_nodes: Counter = field(default_factory=Counter)
    transcoder_affected: Counter = field(default_factory=Counter)
    web_filter_nodes: int = 0
    dropper_nodes: Counter = field(default_factory=Counter)
    resolver_count: int = 0


@dataclass
class World:
    """Everything the experiments and tests need, fully wired."""

    config: WorldConfig
    countries: CountryRegistry
    internet: Internet
    routeviews: RouteViewsTable
    orgmap: AsOrgMap
    registry: ExitNodeRegistry
    superproxy: SuperProxy
    client: LuminatiClient
    google: GooglePublicDns
    auth_dns: AuthoritativeServer
    probe_dns: AuthoritativeServer
    web_server: MeasurementWebServer
    corpus: ContentCorpus
    root_store: RootStore
    prober_ip: int
    popular_sites: dict[str, list[SiteRecord]]
    university_sites: list[SiteRecord]
    invalid_sites: list[SiteRecord]
    monitors: dict[str, ContentMonitor]
    #: Lazy host views (a :class:`~repro.sim.columnar.HostTable`): length,
    #: indexing, slicing, and iteration behave like the old eager list, but a
    #: host object only exists once something touches it.
    hosts: Sequence[ExitNodeHost]
    truth: WorldTruth
    #: Remaining address space per AS (used by :meth:`rotate_node_ips`).
    as_allocators: dict[int, IpAllocator] = field(default_factory=dict)
    #: The seeded fault injector, ``None`` under the zero-fault profile.
    faults: Optional[FaultInjector] = None

    @property
    def measurement_server_ip(self) -> int:
        """Address of the experimenters' web server."""
        return self.web_server.ip

    def rotate_node_ips(self, fraction: float, seed: int = 0) -> int:
        """Churn a fraction of hosts onto fresh addresses in their AS.

        Hola nodes change IPs constantly; the persistent ``zID`` is how the
        paper tracks one machine across addresses (§2.3).  Returns how many
        hosts actually moved (an AS with exhausted space keeps its hosts).
        Note: churning consults every host, so it materializes the full pool
        — use it on study-scale worlds, not paper-scale ones.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        rng = random.Random(f"churn:{seed}")
        moved = 0
        for host in self.hosts:
            if rng.random() >= fraction:
                continue
            allocator = self.as_allocators.get(host.asn)
            if allocator is None or allocator.remaining < 1:
                continue
            host.ip = allocator.allocate_address()
            moved += 1
        return moved


class _CumulativeTable:
    """Weighted one-of-N (or none) selection from a single uniform draw."""

    def __init__(self, entries: Sequence[tuple[float, object]]) -> None:
        self._cum: list[float] = []
        self._payloads: list[object] = []
        total = 0.0
        for rate, payload in entries:
            if rate < 0:
                raise ValueError(f"negative rate {rate}")
            if rate == 0:
                continue
            total += rate
            self._cum.append(total)
            self._payloads.append(payload)
        if total > 1.0 + 1e-9:
            raise ValueError(f"rates sum to {total} > 1")

    @property
    def total(self) -> float:
        """Sum of all entry rates."""
        return self._cum[-1] if self._cum else 0.0

    def draw(self, u: float) -> Optional[object]:
        """The payload selected by a uniform draw ``u``, or ``None``."""
        if not self._cum or u >= self._cum[-1]:
            return None
        return self._payloads[bisect.bisect_right(self._cum, u)]


def _draw_indexed(applicable, u: float) -> int:
    """Stacked one-of-N draw over pre-indexed tables; ``NO_ENTRY`` for none.

    ``applicable`` is a tuple of ``(total, cum, payload_indices)`` entries in
    insertion order.  The subtraction walk is kept identical (not pre-merged
    into one cumulative list) so borderline floating-point comparisons match
    the historical per-table draws bit for bit.
    """
    for total, cum, indices in applicable:
        if u < total:
            return indices[bisect.bisect_right(cum, u)]
        u -= total
    return NO_ENTRY


class _WorldBuilder:
    """Stateful assembly of one world (one-shot; use :func:`build_world`)."""

    def __init__(self, config: WorldConfig, countries: Optional[Sequence[CountrySpec]]) -> None:
        self.config = config
        self.rng = random.Random(f"world:{config.seed}")
        self.registry_countries = CountryRegistry()
        self.internet = Internet()
        self.routeviews = RouteViewsTable()
        self.orgmap = AsOrgMap()
        self.allocator = IpAllocator(Prefix.from_str("16.0.0.0/4"))
        self.truth = WorldTruth()
        #: Columnar per-node storage; hosts materialize lazily from it.
        self.columns = NodeColumns()
        #: Contiguous ``(country, start, stop)`` node-index runs, in build
        #: order — the registry's country pools.
        self._country_runs: list[tuple[str, int, int]] = []
        self._asn_counter = 100_000
        self._used_asns: set[int] = set()
        self._org_counter = 0
        self._country_specs = self._expand_countries(countries)
        self._as_cursors: dict[int, IpAllocator] = {}
        #: Per-country pre-resolved draw tables (payloads as column indices).
        self._country_draws: dict[str, tuple] = {}
        #: Serials for the certificates the builder signs itself, counted per
        #: build as a CA counts its own: the N-th build in a process mints
        #: the same bytes as the first.
        self._serials = itertools.count(1)
        # Filled during build:
        self.google: GooglePublicDns

    # -- country universe ----------------------------------------------------

    def _expand_countries(self, explicit: Optional[Sequence[CountrySpec]]) -> list[CountrySpec]:
        if explicit is not None:
            return list(explicit)
        return list(default_country_universe())

    # -- low-level allocation -------------------------------------------------

    def _next_asn(self, fixed: Optional[int] = None) -> int:
        if fixed is not None:
            if fixed in self._used_asns:
                raise ValueError(f"ASN {fixed} already allocated")
            self._used_asns.add(fixed)
            return fixed
        while self._asn_counter in self._used_asns:
            self._asn_counter += 1
        asn = self._asn_counter
        self._used_asns.add(asn)
        self._asn_counter += 1
        return asn

    def _new_org(self, name: str, country: str) -> str:
        self._org_counter += 1
        org_id = f"org-{self._org_counter:05d}"
        self.orgmap.register(org_id, name, country)
        return org_id

    def _new_as(self, org_id: str, address_need: int, fixed_asn: Optional[int] = None) -> int:
        """Register an AS under an org and announce a prefix big enough for
        ``address_need`` addresses."""
        asn = self._next_asn(fixed_asn)
        self.routeviews.register(asn, org_id)
        self.orgmap.assign(asn, org_id)
        length = 32
        while (1 << (32 - length)) < max(8, address_need) and length > 8:
            length -= 1
        prefix = self.allocator.allocate(length)
        self.routeviews.announce(asn, prefix)
        self._as_cursors[asn] = IpAllocator(prefix)
        return asn

    def _ip_in_as(self, asn: int) -> int:
        return self._as_cursors[asn].allocate_address()

    # -- infrastructure ---------------------------------------------------------

    def build_infrastructure(self) -> None:
        """Research servers, Hola, Google DNS, the PKI, and the content corpus."""
        config = self.config
        clock = self.internet.clock

        research_org = self._new_org("Northeastern Research", "US")
        self.research_asn = self._new_as(research_org, 64)
        self.web_ip = self._ip_in_as(self.research_asn)
        self.dns_ip = self._ip_in_as(self.research_asn)
        self.prober_ip = self._ip_in_as(self.research_asn)

        hola_org = self._new_org("Hola Networks", "IL")
        hola_asn = self._new_as(hola_org, 32)
        self.superproxy_ip = self._ip_in_as(hola_asn)

        # Google: service address plus published egress netblocks.
        google_org = self._new_org("Google LLC", "US")
        google_asn = self._next_asn()
        self.routeviews.register(google_asn, google_org)
        self.orgmap.assign(google_asn, google_org)
        for prefix in GooglePublicDns.PUBLISHED_PREFIXES:
            self.routeviews.announce(google_asn, prefix)
        client_egress = [str_to_ip("173.194.10.1") + i for i in range(19)]
        client_egress.append(str_to_ip("74.125.40.9"))  # the footnote-8 overlap
        superproxy_egress = [str_to_ip("74.125.0.10") + i for i in range(4)]
        self.google = GooglePublicDns(
            root=self.internet.dns_root,
            clock=clock,
            egress_ips=client_egress,
            superproxy_egress_ips=superproxy_egress,
        )
        self.internet.register_resolver(self.google)

        # Our authoritative servers and web server.
        self.auth_dns = AuthoritativeServer(DNS_TEST_ZONE, clock)
        self.probe_dns = AuthoritativeServer(PROBE_ZONE, clock)
        self.probe_dns.set_zone_default(RecordPolicy(address=self.web_ip))
        self.internet.dns_root.register(self.auth_dns)
        self.internet.dns_root.register(self.probe_dns)
        self.corpus = ContentCorpus.build(seed=f"tft-{config.seed}")
        self.web_server = MeasurementWebServer(self.web_ip, clock, self.corpus)
        self.internet.register_web_server(self.web_ip, self.web_server)

        # The PKI.
        self.root_store, self.root_cas = build_osx_root_store()
        self.intermediates = [
            CertificateAuthority(
                common_name=f"TfT Issuing CA {index:02d}",
                org=f"TfT Issuing {index:02d}",
                country="US",
                parent=self.root_cas[index % len(self.root_cas)],
            )
            for index in range(40)
        ]

    # -- HTTPS measurement targets ---------------------------------------------

    def build_sites(self) -> None:
        """Popular per-country sites, universities, and our invalid sites."""
        config = self.config
        hosting_org = self._new_org("Global Hosting Collective", "US")
        hosting_asn = self._new_as(
            hosting_org,
            (config.alexa_countries * config.popular_sites_per_country + 64) * 2,
        )

        # Alexa coverage: the most populous countries get rankings.
        ranked = sorted(self._country_specs, key=lambda s: s.population, reverse=True)
        alexa_codes = [spec.code for spec in ranked[: config.alexa_countries]]
        self.alexa_codes = set(alexa_codes)

        self.popular_sites: dict[str, list[SiteRecord]] = {}
        for code in alexa_codes:
            sites: list[SiteRecord] = []
            for index in range(config.popular_sites_per_country):
                domain = f"www.top{index:02d}.{code.lower()}.alexa-example.net"
                ip = self._ip_in_as(hosting_asn)
                issuer = self.intermediates[(index * 7 + len(sites)) % len(self.intermediates)]
                if index % 5 == 0:
                    # CDN-fronted (§6.1 footnote 20): every edge server has
                    # its own, equally valid certificate — exact matching is
                    # impossible, chain validation is not.
                    second_issuer = self.intermediates[(index * 7 + 13) % len(self.intermediates)]
                    endpoint = RotatingTlsEndpoint(
                        [
                            issuer.chain_for(issuer.issue(domain)),
                            second_issuer.chain_for(second_issuer.issue(domain)),
                        ]
                    )
                else:
                    endpoint = StaticTlsEndpoint(issuer.chain_for(issuer.issue(domain)))
                self.internet.register_tls_endpoint(ip, 443, endpoint)
                sites.append(SiteRecord(domain=domain, ip=ip, country=code))
            self.popular_sites[code] = sites

        self.university_sites = []
        for index in range(config.university_sites):
            domain = f"www.university{index:02d}.edu-example.net"
            ip = self._ip_in_as(hosting_asn)
            issuer = self.intermediates[index % len(self.intermediates)]
            chain = issuer.chain_for(issuer.issue(domain))
            self.internet.register_tls_endpoint(ip, 443, StaticTlsEndpoint(chain))
            self.university_sites.append(SiteRecord(domain=domain, ip=ip, country="US"))

        # Three invalid sites under our control (§6.1).
        self.invalid_sites = []
        selfsigned_domain = "invalid-selfsigned.tft-example.net"
        selfsigned = CertificateChain(
            (self_signed_certificate(selfsigned_domain, serial=next(self._serials)),)
        )
        expired_domain = "invalid-expired.tft-example.net"
        expired_leaf = self.intermediates[0].issue(
            expired_domain, not_before=-2 * 365 * 86_400.0, not_after=-86_400.0
        )
        expired = self.intermediates[0].chain_for(expired_leaf)
        wrongcn_domain = "invalid-wrongcn.tft-example.net"
        wrongcn_leaf = self.intermediates[1].issue("www.entirely-different-name.example")
        wrongcn = self.intermediates[1].chain_for(wrongcn_leaf)
        for domain, chain, kind in (
            (selfsigned_domain, selfsigned, "self_signed"),
            (expired_domain, expired, "expired"),
            (wrongcn_domain, wrongcn, "wrong_cn"),
        ):
            ip = self._ip_in_as(self.research_asn)
            self.internet.register_tls_endpoint(ip, 443, StaticTlsEndpoint(chain))
            self.invalid_sites.append(
                SiteRecord(domain=domain, ip=ip, invalid_kind=kind, known_chain=chain)
            )

        # OpenDNS deployments block a deterministic subset of popular sites.
        blocked: set[str] = set()
        for sites in self.popular_sites.values():
            for site in sites:
                digest = sum(ord(c) for c in site.domain) % 100
                if digest < profiles.OPENDNS_BLOCKED_SITE_FRACTION * 100:
                    blocked.add(site.domain)
        self.opendns_blocked = frozenset(blocked)

    # -- public DNS services ------------------------------------------------------

    def build_public_dns(self) -> None:
        """OpenDNS/Comodo/UltraDNS/... plus the honest regional resolver pool."""
        config = self.config
        clock = self.internet.clock
        entries: list[tuple[float, object]] = []

        services = () if self.config.sterile else profiles.PUBLIC_DNS_SERVICES
        for spec in services:
            org = self._new_org(spec.name, "US")
            server_count = config.scaled(spec.server_count, minimum=1)
            asn = self._new_as(org, server_count * 2 + 8)
            policy: Optional[HijackPolicy] = None
            if spec.landing_domain:
                landing_ip = self._ip_in_as(asn)
                policy = HijackPolicy(
                    operator=spec.name,
                    landing_domain=spec.landing_domain,
                    redirect_ip=landing_ip,
                )
                self.internet.register_web_server(landing_ip, HijackPageServer(landing_ip, policy))
            servers = []
            for _ in range(server_count):
                resolver = RecursiveResolver(
                    service_ip=self._ip_in_as(asn),
                    root=self.internet.dns_root,
                    clock=clock,
                    hijack=policy,
                    hijack_rate=0.97 if policy else 1.0,
                    answers_direct_probes=spec.answers_direct_probes,
                )
                self.internet.register_resolver(resolver)
                servers.append(resolver)
                self.truth.resolver_count += 1
            entries.append((spec.share, (spec, servers)))

        # Honest regional public resolvers (long tail of the 1,110 public
        # servers the paper classified).
        regional_count = config.scaled(profiles.REGIONAL_PUBLIC_RESOLVER_COUNT, minimum=20)
        self.regional_resolvers: list[RecursiveResolver] = []
        per_org = 150
        org_count = regional_count // per_org + 1
        for org_index in range(org_count):
            org = self._new_org(f"Regional DNS Collective {org_index:02d}", "US")
            asn = self._new_as(org, per_org * 2 + 8)
            for _ in range(min(per_org, regional_count - len(self.regional_resolvers))):
                resolver = RecursiveResolver(
                    service_ip=self._ip_in_as(asn),
                    root=self.internet.dns_root,
                    clock=clock,
                )
                self.internet.register_resolver(resolver)
                self.regional_resolvers.append(resolver)
                self.truth.resolver_count += 1

        regional_share = max(
            0.0,
            1.0
            - profiles.GOOGLE_EXTERNAL_SHARE
            - sum(spec.share for spec in services),
        )
        entries.append((regional_share, ("regional", self.regional_resolvers)))
        # Google takes the remaining probability mass (drawn first; see
        # _pick_external_resolver).
        self._public_dns_table = _CumulativeTable(
            [(rate / (1.0 - profiles.GOOGLE_EXTERNAL_SHARE), payload) for rate, payload in entries]
        )

    def _pick_external_resolver(self, google_share=None) -> tuple[str, RecursiveResolver]:
        """Choose a public resolver for one external-DNS node.

        ``google_share`` overrides the global Google share for ISPs that
        hand out 8.8.8.8 directly (footnote 9).
        """
        share = google_share if google_share is not None else profiles.GOOGLE_EXTERNAL_SHARE
        if self.rng.random() < share:
            return "Google", self.google
        drawn = self._public_dns_table.draw(self.rng.random())
        if drawn is None:
            return "Google", self.google
        label, servers = drawn
        if label == "regional":
            return "regional", servers[self.rng.randrange(len(servers))]
        spec, pool = label, servers
        return spec.name, pool[self.rng.randrange(len(pool))]

    # -- monitors, MITM products, host software -----------------------------------

    def build_monitors(self) -> None:
        """Table 9 entities, their server IPs, and the rare-entity tail."""
        self.monitors: dict[str, ContentMonitor] = {}
        self.anchorfree_pops: tuple[int, ...] = ()
        monitor_entries: dict[str, list[tuple[float, ContentMonitor]]] = {}

        def add_entry(rate: float, monitor: ContentMonitor, countries) -> None:
            key = "*" if countries is None else ",".join(sorted(countries))
            monitor_entries.setdefault(key, []).append((rate, monitor))

        entity_specs = () if self.config.sterile else profiles.MONITOR_ENTITIES
        for spec in entity_specs:
            org = self._new_org(spec.org_name, spec.country)
            asn = self._new_as(org, spec.ip_count * 2 + 8)
            ips = [self._ip_in_as(asn) for _ in range(spec.ip_count)]
            pools: dict[str, Sequence[int]] = {"default": ips}
            if spec.second_pool_fixed:
                pools = {"default": ips[:-1] or ips, "fixed": ips[-1:]}
            monitor = ContentMonitor(
                entity=spec.name,
                source_pools=pools,
                delay_model=spec.delay_model,
                user_agent=spec.user_agent,
            )
            self.monitors[spec.name] = monitor
            if spec.provides_vpn_egress:
                self.anchorfree_pops = tuple(ips[:-1][:10] or ips)
            if spec.install_rate > 0:
                add_entry(spec.install_rate, monitor, spec.countries)

        if self.config.include_rare_tail:
            rare_rate = profiles.RARE_MONITOR_TOTAL_RATE / profiles.RARE_MONITOR_COUNT
            for index in range(profiles.RARE_MONITOR_COUNT):
                name = f"WebScan Service {index:02d}"
                org = self._new_org(f"WebScan {index:02d} Ltd", "US")
                ip_count = 1 + index % 5
                asn = self._new_as(org, ip_count * 2 + 8)
                ips = [self._ip_in_as(asn) for _ in range(ip_count)]
                monitor = ContentMonitor(
                    entity=name,
                    source_pools={"default": ips},
                    delay_model=DelayModel(
                        requests=(DelaySpec("uniform", 30.0, 3_600.0),)
                    ),
                )
                self.monitors[name] = monitor
                add_entry(rare_rate, monitor, None)

        self._monitor_tables = {
            key: _CumulativeTable(entries) for key, entries in monitor_entries.items()
        }
        self._monitor_table_countries = {
            key: (None if key == "*" else set(key.split(",")))
            for key in self._monitor_tables
        }

    def build_mitm_products(self) -> None:
        """Table 8 products plus the ~300-issuer rare tail."""
        self.mitm_products: dict[str, TlsMitmProduct] = {}
        entries_by_key: dict[str, list[tuple[float, TlsMitmProduct]]] = {}

        def register(spec: MitmProductSpec) -> TlsMitmProduct:
            behavior = MitmBehavior(
                product=spec.product,
                issuer_cn=spec.issuer_cn,
                category=spec.category,
                issuer_org=spec.issuer_org,
                issuer_country=spec.issuer_country,
                per_node_key=spec.per_node_key,
                invalid_issuer_cn=spec.invalid_issuer_cn,
                only_valid_origins=spec.only_valid_origins,
                copy_origin_fields=spec.copy_origin_fields,
                site_selectivity=spec.site_selectivity,
                blocked_domains=(
                    self.opendns_blocked if spec.product == "OpenDNS" else frozenset()
                ),
            )
            product = TlsMitmProduct(behavior, self.root_store)
            self.mitm_products[spec.product] = product
            key = "*" if spec.countries is None else ",".join(sorted(spec.countries))
            entries_by_key.setdefault(key, []).append((spec.install_rate, product))
            return product

        product_specs = () if self.config.sterile else profiles.MITM_PRODUCTS
        for spec in product_specs:
            register(spec)

        if self.config.include_rare_tail:
            rare_rate = profiles.RARE_MITM_TOTAL_RATE / profiles.RARE_MITM_ISSUER_COUNT
            for index in range(profiles.RARE_MITM_ISSUER_COUNT):
                register(
                    MitmProductSpec(
                        product=f"rare-issuer-{index:03d}",
                        issuer_cn=f"Corporate Web Gateway CA {index:03d}",
                        category="N/A",
                        install_rate=rare_rate,
                    )
                )

        self._mitm_tables = {
            key: _CumulativeTable(entries) for key, entries in entries_by_key.items()
        }
        self._mitm_table_countries = {
            key: (None if key == "*" else set(key.split(",")))
            for key in self._mitm_tables
        }

    def build_host_software(self) -> None:
        """Injectors, droppers/blockers, and host DNS rewriters."""
        inj_entries: dict[str, list[tuple[float, JsInjector]]] = {}
        self.injectors: dict[str, JsInjector] = {}
        injector_specs = () if self.config.sterile else profiles.JS_INJECTORS
        for spec in injector_specs:
            injector = JsInjector(
                spec.family, spec.marker, spec.payload_bytes, spec.marker_is_url
            )
            self.injectors[spec.family] = injector
            key = "*" if spec.countries is None else ",".join(sorted(spec.countries))
            inj_entries.setdefault(key, []).append((spec.install_rate, injector))
        self._injector_tables = {
            key: _CumulativeTable(entries) for key, entries in inj_entries.items()
        }
        self._injector_table_countries = {
            key: (None if key == "*" else set(key.split(",")))
            for key in self._injector_tables
        }
        cg = profiles.CLOUDGUARD_INJECTOR
        self.cloudguard_injector = JsInjector(
            cg.family, cg.marker, cg.payload_bytes, cg.marker_is_url
        )

        misc_entries = []
        if not self.config.sterile:
            misc_entries = [
                (profiles.JS_ERROR_RATE, ("js_error", ResponseDropper("javascript"))),
                (profiles.CSS_ERROR_RATE, ("css_error", ResponseDropper("css", empty=True))),
                (profiles.BLOCK_PAGE_RATE, ("block_page", PolicyBlocker("blocked"))),
                (profiles.BANDWIDTH_PAGE_RATE, ("bandwidth_page", PolicyBlocker("bandwidth"))),
            ]
        self.misc_modifiers = _CumulativeTable(misc_entries)

        dnsrw_entries: list[tuple[float, tuple[str, HostDnsRewriter]]] = []
        rewriter_specs = () if self.config.sterile else profiles.HOST_DNS_REWRITERS
        for spec in rewriter_specs:
            org = self._new_org(spec.name + " Service", "US")
            asn = self._new_as(org, 16)
            landing_ip = self._ip_in_as(asn)
            policy = HijackPolicy(
                operator=spec.name,
                landing_domain=spec.landing_domain,
                redirect_ip=landing_ip,
            )
            self.internet.register_web_server(landing_ip, HijackPageServer(landing_ip, policy))
            dnsrw_entries.append((spec.install_rate, (spec.name, HostDnsRewriter(policy))))
        self._dnsrw_table = _CumulativeTable(dnsrw_entries)

    def _index_payloads(self, table: _CumulativeTable, registry: list, seen: dict):
        """One table's ``(total, cum, payload_indices)``, payloads interned.

        Each payload object lands once in ``registry`` (a column-store
        payload list); the returned entry references it by index, so the hot
        per-node loop appends small ints instead of objects.
        """
        indices = []
        for payload in table._payloads:
            key = id(payload)
            position = seen.get(key)
            if position is None:
                position = len(registry)
                registry.append(payload)
                seen[key] = position
            indices.append(position)
        return (table.total, table._cum, indices)

    def _applicable_tables(self, tables, table_countries, country, registry, seen):
        """The stack of draw tables that apply in ``country``, pre-indexed.

        Applicable tables are stacked: a single uniform draw walks them in
        insertion order, consuming each table's total rate, so the overall
        selection probability of each entry equals its configured rate —
        exactly the arithmetic of the old per-draw dict walk, with the
        country filtering and payload lookup hoisted out of the node loop.
        """
        return tuple(
            self._index_payloads(table, registry, seen)
            for key, table in tables.items()
            if table_countries[key] is None or country in table_countries[key]
        )

    def _country_draw_tables(self, country: str) -> tuple:
        """The (injector, mitm, monitor) table stacks for one country."""
        cached = self._country_draws.get(country)
        if cached is None:
            cols = self.columns
            cached = (
                self._applicable_tables(
                    self._injector_tables, self._injector_table_countries,
                    country, cols.injectors, self._injector_seen,
                ),
                self._applicable_tables(
                    self._mitm_tables, self._mitm_table_countries,
                    country, cols.mitms, self._mitm_seen,
                ),
                self._applicable_tables(
                    self._monitor_tables, self._monitor_table_countries,
                    country, cols.monitors, self._monitor_seen,
                ),
            )
            self._country_draws[country] = cached
        return cached

    # -- countries, ISPs, hosts -----------------------------------------------

    def build_population(self) -> None:
        """Create every ISP and exit-node host (columnar; hosts stay lazy)."""
        cols = self.columns
        self._injector_seen: dict[int, int] = {}
        self._mitm_seen: dict[int, int] = {}
        self._monitor_seen: dict[int, int] = {}
        self._misc_entries = (self._index_payloads(self.misc_modifiers, cols.miscs, {}),)
        self._dnsrw_entries = (self._index_payloads(self._dnsrw_table, cols.dnsrws, {}),)
        for spec in self._country_specs:
            self._build_country(spec)

    def _build_country(self, spec: CountrySpec) -> None:
        config = self.config
        pop = config.scaled(spec.population)
        if pop <= 0 and not spec.isps:
            return

        planned: list[tuple[IspSpec, int]] = []
        remaining = pop
        for isp in spec.isps:
            if isp.population is not None:
                # Floored populations (mobile ASes, Internet Rimon): these
                # Table-7-scale ISPs keep their paper-scale size so their
                # rows survive at any world scale.
                count = max(isp.population, config.scaled(isp.population))
            else:
                count = config.scaled(isp.share * spec.population)
            if count > 0:
                planned.append((isp, count))
                if isp.population is None:
                    remaining -= count
        remaining = max(0, remaining)

        # Generic hijacking ISPs to hit the residual hijack ratio.  The
        # global baseline of public-resolver hijackers and host-software
        # rewriters (~0.5% of nodes everywhere) already contributes to every
        # country's measured ratio, so it is deducted here.
        baseline = 0.005
        residual = max(0.0, spec.residual_hijack_ratio - baseline)
        if residual > 0 and remaining > 0:
            external = spec.external_dns_fraction
            needed_nodes = residual * pop
            per_node_rate = profiles.GENERIC_HIJACK_RATE * (1.0 - external)
            isp_nodes_needed = int(round(needed_nodes / per_node_rate))
            isp_nodes_needed = min(isp_nodes_needed, remaining)
            chunk = max(40, config.scaled(900))
            index = 0
            while isp_nodes_needed > 0:
                count = min(chunk, isp_nodes_needed)
                if count < 5 and index > 0:
                    break
                name = f"NetServe {spec.code} {index:02d}"
                landing = f"search.netserve{index:02d}.{spec.code.lower()}-example.com"
                planned.append(
                    (
                        IspSpec(
                            name=name,
                            resolver_hijack=profiles.ResolverHijackSpec(
                                landing, rate=profiles.GENERIC_HIJACK_RATE
                            ),
                            external_dns_fraction=external,
                        ),
                        count,
                    )
                )
                remaining -= count
                isp_nodes_needed -= count
                index += 1

        # Generic honest ISPs fill the remainder with a Zipf-ish size mix.
        if remaining > 0:
            generic_count = max(1, round(remaining / GENERIC_ISP_MEAN_NODES))
            weights = [1.0 / (i + 1) ** 0.8 for i in range(generic_count)]
            total_weight = sum(weights)
            assigned = 0
            for index, weight in enumerate(weights):
                count = int(round(remaining * weight / total_weight))
                if index == generic_count - 1:
                    count = remaining - assigned
                count = min(count, remaining - assigned)
                if count <= 0:
                    continue
                assigned += count
                # Footnote 9: ~91 ASes point >=80% of their users at Google,
                # disproportionately in regions that outsource resolution
                # (the paper cites a study of African resolver placement).
                region = (
                    self.registry_countries.get(spec.code).region
                    if spec.code in self.registry_countries
                    else ""
                )
                outsource_probability = 0.05 if region == "africa" else 0.008
                outsources = self.rng.random() < outsource_probability
                planned.append(
                    (
                        IspSpec(
                            name=f"Telecom {spec.code} {index:03d}",
                            external_dns_fraction=(
                                0.92 if outsources else spec.external_dns_fraction
                            ),
                            external_google_share=0.97 if outsources else None,
                            as_count=2 if count > 800 else 1,
                        ),
                        count,
                    )
                )

        start = len(self.columns)
        for isp, count in planned:
            self._build_isp(spec, isp, count)
        stop = len(self.columns)
        if stop > start:
            self._country_runs.append((spec.code, start, stop))

    def _build_isp(self, country: CountrySpec, isp: IspSpec, node_count: int) -> None:
        config = self.config
        clock = self.internet.clock
        org_id = self._new_org(isp.name, country.code)
        per_as = node_count // isp.as_count + 1
        asns = [
            self._new_as(
                org_id,
                per_as * 2 + 64,
                fixed_asn=isp.fixed_asn if index == 0 else None,
            )
            for index in range(isp.as_count)
        ]

        # Hijack landing page + policies.
        resolver_policy: Optional[HijackPolicy] = None
        path_proxy: Optional[TransparentDnsProxy] = None
        if isp.resolver_hijack is not None or isp.path_hijack is not None:
            landing_domain = (
                isp.resolver_hijack.landing_domain
                if isp.resolver_hijack is not None
                else isp.path_hijack.landing_domain
            )
            landing_ip = self._ip_in_as(asns[0])
            base_policy = HijackPolicy(
                operator=isp.name,
                landing_domain=landing_domain,
                redirect_ip=landing_ip,
                js_family=(
                    isp.resolver_hijack.js_family if isp.resolver_hijack is not None else ""
                ),
            )
            self.internet.register_web_server(
                landing_ip, HijackPageServer(landing_ip, base_policy)
            )
            if isp.resolver_hijack is not None:
                resolver_policy = base_policy
            if isp.path_hijack is not None:
                path_proxy = TransparentDnsProxy(
                    HijackPolicy(
                        operator=isp.name,
                        landing_domain=isp.path_hijack.landing_domain,
                        redirect_ip=landing_ip,
                    ),
                    intercept_rate=isp.path_hijack.intercept_rate,
                )

        hijack_rate = isp.resolver_hijack.rate if isp.resolver_hijack is not None else 1.0

        # Resolver fleet.
        own_expected = max(1, int(round(node_count * (1.0 - isp.external_dns_fraction))))
        if isp.major_resolver_nodes > 0:
            # Table-4 ISPs: the paper's per-ISP server/node structure.
            major_count = max(1, config.scaled(isp.major_resolvers))
            major_target = min(own_expected, config.scaled(isp.major_resolver_nodes, minimum=1))
        elif isp.resolver_hijack is not None:
            # Generic hijacking ISPs stay out of the measured Table 4 by
            # construction: every resolver serves fewer subscribers than the
            # paper's 10-node significance cut (the minor-server mechanism).
            major_count = 1
            major_target = 0
        else:
            major_count = max(1, round(own_expected / GENERIC_RESOLVER_LOAD))
            major_target = own_expected
        p_major = min(1.0, major_target / own_expected)

        def make_resolver() -> RecursiveResolver:
            resolver = RecursiveResolver(
                service_ip=self._ip_in_as(asns[0]),
                root=self.internet.dns_root,
                clock=clock,
                hijack=resolver_policy,
                hijack_rate=hijack_rate if resolver_policy else 1.0,
            )
            self.internet.register_resolver(resolver)
            self.truth.resolver_count += 1
            return resolver

        majors = [make_resolver() for _ in range(major_count)]
        major_weights = [1.0 / (i + 1) ** 0.6 for i in range(major_count)]
        major_cum: list[float] = []
        acc = 0.0
        for weight in major_weights:
            acc += weight
            major_cum.append(acc)
        minors: list[RecursiveResolver] = []
        minor_slots = 0

        # Shared middleboxes.
        transcoder = (
            ImageTranscoder(isp.name, isp.transcoder.ratios, isp.transcoder.affected_fraction)
            if isp.transcoder is not None
            else None
        )
        web_filter = IspWebFilter(isp.web_filter_tag) if isp.web_filter_tag else None
        http_proxy = (
            TransparentHttpProxy(
                operator=isp.name,
                via_token=isp.http_proxy_via,
                cache_enabled=isp.http_proxy_cache,
            )
            if isp.http_proxy_via
            else None
        )
        isp_monitor: Optional[ContentMonitor] = None
        if isp.monitor is not None:
            ips = [self._ip_in_as(asns[0]) for _ in range(max(1, isp.monitor_ip_count))]
            isp_monitor = ContentMonitor(
                entity=isp.monitor,
                source_pools={"default": ips},
                delay_model=profiles.ISP_MONITOR_MODELS.get(
                    isp.monitor, profiles.DEFAULT_ISP_MONITOR_MODEL
                ),
                monitor_rate=isp.monitor_rate,
                user_agent=f"{isp.monitor} SafeBrowse/1.0",
            )
            self.monitors[isp.monitor] = isp_monitor

        # In-path TLS interception (worldbuilder scenario; never set by the
        # paper profiles, so default worlds skip this entirely).
        tls_proxy: Optional[IspTlsProxy] = None
        if isp.tls_proxy is not None:
            tls_proxy = IspTlsProxy(
                operator=isp.name,
                behavior=MitmBehavior(
                    product=isp.tls_proxy.issuer_cn,
                    issuer_cn=isp.tls_proxy.issuer_cn,
                    category="Network filter",
                    issuer_org=isp.tls_proxy.issuer_org or isp.name,
                    issuer_country=isp.tls_proxy.issuer_country or country.code,
                    only_valid_origins=isp.tls_proxy.only_valid_origins,
                ),
                public_roots=self.root_store,
                coverage=isp.tls_proxy.coverage,
            )

        # Response-path order: the shared proxy/cache sits upstream in the
        # carrier core (it stores *origin* bodies), then the per-subscriber
        # transcoder, then the web filter closest to the user.
        path_http = tuple(
            mod for mod in (http_proxy, transcoder, web_filter) if mod is not None
        )
        path_monitors = (isp_monitor,) if isp_monitor is not None else ()

        # -- the per-node loop, columnar --------------------------------------
        # Everything below appends one entry per column per node.  The RNG
        # draw sequence and IP-allocation order replicate the historical
        # per-object builder exactly — the determinism contract every bench
        # SHA pins down — while touching only arrays and small ints.
        cols = self.columns
        rng_random = self.rng.random
        truth = self.truth
        dns_root = self.internet.dns_root
        register_resolver = self.internet.register_resolver
        google = self.google

        isp_record_index = cols.add_isp_record(
            IspRecord(
                spec=isp,
                org_id=org_id,
                country_code=country.code,
                path_proxy=path_proxy,
                path_http=path_http,
                path_monitors=path_monitors,
                isp_monitor=isp_monitor,
                path_tls=(tls_proxy,) if tls_proxy is not None else (),
            )
        )
        country_code = country.code
        country_index = cols.countries.intern(country_code)
        intern_kind = cols.resolver_kinds.intern
        kind_isp = intern_kind("isp")
        kind_edge = intern_kind("edge")
        injector_tables, mitm_tables, monitor_tables = self._country_draw_tables(
            country_code
        )
        misc_tables = self._misc_entries
        dnsrw_tables = self._dnsrw_entries

        append_ip = cols.ip.append
        append_asn = cols.asn.append
        append_country = cols.country_idx.append
        append_isp = cols.isp_idx.append
        append_kind = cols.resolver_kind_idx.append
        append_resolver = cols.resolvers.append
        append_injector = cols.injector_idx.append
        append_misc = cols.misc_idx.append
        append_mitm = cols.mitm_idx.append
        append_monitor = cols.monitor_idx.append
        append_dnsrw = cols.dnsrw_idx.append
        append_vector = cols.hijack_vector.append
        append_flakiness = cols.flakiness.append

        external_fraction = isp.external_dns_fraction
        google_share = isp.external_google_share
        edge_fraction = config.edge_resolver_fraction
        as_count = len(asns)
        as_cursors = [self._as_cursors[a] for a in asns]
        resolver_cursor = as_cursors[0]
        resolver_kwargs = dict(
            root=dns_root,
            clock=clock,
            hijack=resolver_policy,
            hijack_rate=hijack_rate if resolver_policy else 1.0,
        )
        isp_hijacks_resolution = resolver_policy is not None and hijack_rate >= 0.5
        has_isp_monitor = isp_monitor is not None
        isp_monitor_entity = isp.monitor
        has_tls_proxy = tls_proxy is not None
        has_transcoder = isp.transcoder is not None
        first_is_transcoder = (
            has_transcoder
            and bool(path_http)
            and isinstance(path_http[0], ImageTranscoder)
        )

        for node_index in range(node_count):
            as_slot = node_index % as_count
            asn = asns[as_slot]
            index = len(cols.ip)
            ip = as_cursors[as_slot].allocate_address()

            external = rng_random() < external_fraction
            if external:
                resolver_label, resolver = self._pick_external_resolver(google_share)
                kind_index = intern_kind(resolver_label)
                truth.external_dns_nodes += 1
                if resolver is google:
                    truth.google_dns_nodes += 1
            elif rng_random() < edge_fraction:
                # A home CPE forwarding to the ISP: unique server IP, same
                # policy.
                resolver = RecursiveResolver(
                    service_ip=resolver_cursor.allocate_address(), **resolver_kwargs
                )
                register_resolver(resolver)
                truth.resolver_count += 1
                kind_index = kind_edge
            else:
                if rng_random() < p_major:
                    pick = bisect.bisect_right(major_cum, rng_random() * major_cum[-1])
                    resolver = majors[min(pick, major_count - 1)]
                else:
                    pick = minor_slots // MINOR_RESOLVER_LOAD
                    minor_slots += 1
                    while pick >= len(minors):
                        minor = RecursiveResolver(
                            service_ip=resolver_cursor.allocate_address(),
                            **resolver_kwargs,
                        )
                        register_resolver(minor)
                        truth.resolver_count += 1
                        minors.append(minor)
                    resolver = minors[pick]
                kind_index = kind_isp

            # Host software draws (one uniform draw each, always consumed).
            injector_pick = _draw_indexed(injector_tables, rng_random())
            misc_pick = _draw_indexed(misc_tables, rng_random())
            mitm_pick = _draw_indexed(mitm_tables, rng_random())
            monitor_pick = _draw_indexed(monitor_tables, rng_random())
            dnsrw_pick = _draw_indexed(dnsrw_tables, rng_random())
            if injector_pick != NO_ENTRY:
                truth.injector_nodes[cols.injectors[injector_pick].family] += 1
            if misc_pick != NO_ENTRY:
                truth.dropper_nodes[cols.miscs[misc_pick][0]] += 1
            if mitm_pick != NO_ENTRY:
                truth.mitm_nodes[cols.mitms[mitm_pick].behavior.product] += 1
            if monitor_pick != NO_ENTRY:
                truth.monitor_nodes[cols.monitors[monitor_pick].entity] += 1

            # Ground-truth hijack accounting.
            zid = None
            vector = NO_ENTRY
            operator = None
            if external:
                hijack = resolver.hijack
                if hijack is not None and resolver.hijack_rate >= 0.5:
                    vector = VEC_PUBLIC
                    operator = hijack.operator
            elif isp_hijacks_resolution:
                vector = VEC_RESOLVER
                operator = resolver_policy.operator
            if vector == NO_ENTRY:
                if path_proxy is not None and external:
                    zid = zid_of(index)
                    if path_proxy.applies_to(zid):
                        vector = VEC_PATH
                        operator = path_proxy.policy.operator
                if vector == NO_ENTRY and dnsrw_pick != NO_ENTRY:
                    vector = VEC_HOST
                    operator = cols.dnsrws[dnsrw_pick][0]
            if vector != NO_ENTRY:
                truth.hijacked_nodes += 1
                truth.hijack_by_vector[HIJACK_VECTORS[vector]] += 1
                truth.hijack_by_operator[operator] += 1

            if has_isp_monitor:
                if zid is None:
                    zid = zid_of(index)
                if isp_monitor.monitors_node(zid):
                    truth.monitor_nodes[isp_monitor_entity] += 1
            if has_tls_proxy:
                # zID-keyed coverage check: consumes no RNG draws, so the
                # loop's draw sequence — the digest contract — is untouched.
                if zid is None:
                    zid = zid_of(index)
                if tls_proxy.applies_to(zid):
                    truth.mitm_nodes[tls_proxy.behavior.product] += 1
            if has_transcoder:
                truth.transcoder_nodes[asn] += 1
                if first_is_transcoder:
                    if zid is None:
                        zid = zid_of(index)
                    if path_http[0].applies_to(zid):
                        truth.transcoder_affected[asn] += 1

            append_ip(ip)
            append_asn(asn)
            append_country(country_index)
            append_isp(isp_record_index)
            append_kind(kind_index)
            append_resolver(resolver)
            append_injector(injector_pick)
            append_misc(misc_pick)
            append_mitm(mitm_pick)
            append_monitor(monitor_pick)
            append_dnsrw(dnsrw_pick)
            append_vector(vector)

            flakiness = 0.01 + rng_random() * 0.04
            if rng_random() < 0.1:
                flakiness = 0.1 + rng_random() * 0.15
            append_flakiness(flakiness)

        # Per-ISP constant counters, hoisted out of the node loop.
        if node_count > 0:
            truth.nodes_total += node_count
            truth.nodes_by_country[country_code] += node_count
            base_share, extra = divmod(node_count, as_count)
            for as_slot, asn in enumerate(asns):
                share = base_share + (1 if as_slot < extra else 0)
                if share:
                    truth.nodes_by_asn[asn] += share
            if isp.web_filter_tag:
                truth.web_filter_nodes += node_count

    # -- final assembly -----------------------------------------------------------

    def finish(self) -> World:
        # The fault plane: one injector shared by the super proxy and every
        # host, or None under the zero-fault profile (the fast path leaves
        # the fault-free simulation byte-identical to pre-fault builds).
        faults = FaultInjector.from_config(self.config)
        profile = get_profile(self.config.fault_profile)
        # Lazy host views over the columns; the fault injector is applied to
        # each host at materialization, so chaos worlds stay lazy too.
        hosts = HostTable(
            self.columns,
            self.internet,
            self.cloudguard_injector,
            self.anchorfree_pops,
            faults=faults,
        )
        lum_registry = ColumnarNodeRegistry(
            hosts=hosts,
            country_runs=self._country_runs,
            seed=self.config.seed,
            repeat_fraction=self.config.repeat_fraction,
        )
        superproxy = SuperProxy(
            ip=self.superproxy_ip,
            internet=self.internet,
            registry=lum_registry,
            google=self.google,
            seed=self.config.seed,
            pacing_seconds=self.config.pacing_seconds,
            faults=faults,
            attempt_timeout_seconds=profile.attempt_timeout_seconds,
        )
        client = LuminatiClient(superproxy)
        return World(
            config=self.config,
            countries=self.registry_countries,
            internet=self.internet,
            routeviews=self.routeviews,
            orgmap=self.orgmap,
            registry=lum_registry,
            superproxy=superproxy,
            client=client,
            google=self.google,
            auth_dns=self.auth_dns,
            probe_dns=self.probe_dns,
            web_server=self.web_server,
            corpus=self.corpus,
            root_store=self.root_store,
            prober_ip=self.prober_ip,
            popular_sites=self.popular_sites,
            university_sites=self.university_sites,
            invalid_sites=self.invalid_sites,
            monitors=self.monitors,
            hosts=hosts,
            truth=self.truth,
            as_allocators=self._as_cursors,
            faults=faults,
        )


def default_country_universe() -> tuple[CountrySpec, ...]:
    """The profile universe a ``countries=None`` build populates.

    Every named country (:data:`~repro.sim.profiles.NAMED_COUNTRIES`) in
    declaration order, followed by the registry's remaining countries with
    stable-hash tail populations and residual hijack ratios.  This is the
    expansion both :func:`build_world` and the worldbuilder compiler use —
    a composed spec equal to it is *the* paper-faithful world.
    """
    named = {spec.code: spec for spec in NAMED_COUNTRIES}
    specs: list[CountrySpec] = list(NAMED_COUNTRIES)
    for country in CountryRegistry():
        if country.code in named:
            continue
        specs.append(
            CountrySpec(
                code=country.code,
                population=tail_population(country.code),
                residual_hijack_ratio=tail_hijack_ratio(country.code),
            )
        )
    return tuple(specs)


def build_world(
    config: Optional[WorldConfig] = None,
    countries: Optional[Sequence[CountrySpec]] = None,
) -> World:
    """Build a fully wired world.

    ``countries`` overrides the profile universe (tests use small custom
    worlds); by default every country in the registry is populated, with the
    paper's named behaviours planted.
    """
    cfg = config if config is not None else WorldConfig()
    builder = _WorldBuilder(cfg, countries)
    builder.build_infrastructure()
    builder.build_sites()
    builder.build_public_dns()
    builder.build_monitors()
    builder.build_mitm_products()
    builder.build_host_software()
    builder.build_population()
    return builder.finish()
