"""Attribution: identifying the party responsible for DNS hijacking (§4.3).

Given the DNS dataset, this module reconstructs the paper's chain of
reasoning:

* group measured nodes by the resolver (DNS server IP) they were observed
  using, keep servers with enough nodes for statistical significance;
* classify each server as **ISP-provided** (every node using it belongs to
  the same organization as the server's own address) or **public** (used by
  nodes from more than two countries) — §4.3.1/§4.3.2;
* flag servers whose nodes are overwhelmingly hijacked (>= 90 %);
* for hijacked nodes on *non-hijacking* servers — most visibly Google's
  8.8.8.8 — extract the link domains embedded in the hijack landing page and
  cluster them by the AS spread of the affected nodes: a domain confined to
  one ISP's ASes implicates the ISP's network path, a domain spread across
  many ASes and countries implicates software on the hosts (§4.3.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.analysis import AnalysisThresholds
from repro.core.experiments.dns_hijack import DnsDataset, DnsProbeRecord
from repro.dnssim.hijack import extract_link_domains
from repro.dnssim.resolver import GooglePublicDns
from repro.net.asn import RouteViewsTable
from repro.net.orgmap import AsOrgMap
from repro.records import slot_init


@dataclass
class DnsServerInfo:
    """Aggregate view of one observed DNS server."""

    ip: int
    asn: Optional[int]
    org_id: Optional[str]
    org_name: str
    records: list[DnsProbeRecord] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        """Nodes observed using this server."""
        return len(self.records)

    @property
    def hijacked_count(self) -> int:
        """How many of those nodes received hijacked answers."""
        return sum(1 for record in self.records if record.hijacked)

    @property
    def hijack_fraction(self) -> float:
        """Fraction of this server's nodes that were hijacked."""
        return self.hijacked_count / self.node_count if self.records else 0.0

    @property
    def countries(self) -> set[str]:
        """Countries (AS registration) of the nodes using this server."""
        return {r.country for r in self.records if r.country is not None}


@dataclass
class DnsServerClassification:
    """The §4.3 server taxonomy."""

    servers: dict[int, DnsServerInfo]
    significant: list[DnsServerInfo]
    isp_provided: list[DnsServerInfo]
    public: list[DnsServerInfo]
    hijacking_isp_servers: list[DnsServerInfo]
    hijacking_public_servers: list[DnsServerInfo]


def classify_dns_servers(
    dataset: DnsDataset,
    routeviews: RouteViewsTable,
    orgmap: AsOrgMap,
    thresholds: Optional[AnalysisThresholds] = None,
) -> DnsServerClassification:
    """Group nodes by server and classify servers per §4.3.1/§4.3.2."""
    cuts = thresholds if thresholds is not None else AnalysisThresholds()
    servers: dict[int, DnsServerInfo] = {}
    for record in dataset.records:
        info = servers.get(record.dns_server_ip)
        if info is None:
            asn = record.dns_server_asn
            org = orgmap.asn_to_org(asn) if asn is not None else None
            info = DnsServerInfo(
                ip=record.dns_server_ip,
                asn=asn,
                org_id=org.org_id if org is not None else None,
                org_name=org.name if org is not None else "(unknown)",
            )
            servers[record.dns_server_ip] = info
        info.records.append(record)

    significant = [
        info for info in servers.values() if info.node_count >= cuts.server_min_nodes
    ]

    isp_provided: list[DnsServerInfo] = []
    public: list[DnsServerInfo] = []
    for info in significant:
        if info.org_id is not None:
            node_orgs = {
                orgmap.asn_to_org(r.asn).org_id
                for r in info.records
                if r.asn is not None and orgmap.asn_to_org(r.asn) is not None
            }
            if node_orgs == {info.org_id}:
                isp_provided.append(info)
                continue
        if len(info.countries) >= cuts.public_min_countries:
            public.append(info)

    hijacking_isp = [
        info for info in isp_provided
        if info.hijack_fraction >= cuts.hijacking_server_fraction
    ]
    hijacking_public = [
        info for info in public
        if info.hijack_fraction >= cuts.hijacking_server_fraction
    ]
    return DnsServerClassification(
        servers=servers,
        significant=significant,
        isp_provided=isp_provided,
        public=public,
        hijacking_isp_servers=hijacking_isp,
        hijacking_public_servers=hijacking_public,
    )


@dataclass(frozen=True)
class AttributionSummary:
    """§4.4: where the hijacking happened, over all hijacked nodes."""

    hijacked_total: int
    isp_dns: int
    public_dns: int
    other: int

    def fraction(self, bucket: str) -> float:
        """Share of hijacked nodes attributed to ``bucket``."""
        if self.hijacked_total == 0:
            return 0.0
        value = {"isp": self.isp_dns, "public": self.public_dns, "other": self.other}[bucket]
        return value / self.hijacked_total


def attribute_hijacking(
    dataset: DnsDataset,
    classification: DnsServerClassification,
    orgmap: AsOrgMap,
) -> AttributionSummary:
    """Attribute each hijacked node to its server (or to the path/host).

    A hijacked node counts against its DNS server when that server rewrites
    answers for at least half of its observed nodes; otherwise the server is
    evidently honest and the rewrite happened elsewhere (§4.3.3's bucket).
    Minor servers below the significance cut are still attributable when
    they share the node's organization.
    """
    isp = public = other = 0
    for record in dataset.records:
        if not record.hijacked:
            continue
        info = classification.servers[record.dns_server_ip]
        if info.hijack_fraction >= 0.5:
            node_org = (
                orgmap.asn_to_org(record.asn).org_id
                if record.asn is not None and orgmap.asn_to_org(record.asn) is not None
                else None
            )
            if info.org_id is not None and info.org_id == node_org:
                isp += 1
                continue
            public += 1
            continue
        other += 1
    return AttributionSummary(
        hijacked_total=isp + public + other,
        isp_dns=isp,
        public_dns=public,
        other=other,
    )


@dataclass(frozen=True)
class HijackUrlRow:
    """One Table 5 row: a landing domain and who received it."""

    domain: str
    nodes: int
    ases: int
    countries: int
    orgs: int
    category: str  # "isp" or "software"


def google_dns_hijack_urls(
    dataset: DnsDataset,
    orgmap: AsOrgMap,
    thresholds: Optional[AnalysisThresholds] = None,
) -> tuple[list[HijackUrlRow], int]:
    """§4.3.3 / Table 5: landing domains served to nodes using Google DNS.

    Returns the rows (domains appearing on at least the threshold number of
    nodes) and the total count of Google-DNS nodes that were nonetheless
    hijacked.  A domain whose victims all sit in one organization's ASes is
    classified as ISP (path) hijacking; a domain spread across organizations
    implicates host software.
    """
    cuts = thresholds if thresholds is not None else AnalysisThresholds()
    victims = [
        record
        for record in dataset.records
        if record.hijacked and GooglePublicDns.is_google_egress(record.dns_server_ip)
    ]
    by_domain: dict[str, list[DnsProbeRecord]] = {}
    for record in victims:
        for domain in extract_link_domains(record.page):
            by_domain.setdefault(domain, []).append(record)

    rows: list[HijackUrlRow] = []
    for domain, records in by_domain.items():
        zids = {r.zid for r in records}
        if len(zids) < cuts.url_min_nodes:
            continue
        ases = {r.asn for r in records if r.asn is not None}
        countries = {r.country for r in records if r.country is not None}
        orgs = {
            orgmap.asn_to_org(asn).org_id
            for asn in ases
            if orgmap.asn_to_org(asn) is not None
        }
        rows.append(
            HijackUrlRow(
                domain=domain,
                nodes=len(zids),
                ases=len(ases),
                countries=len(countries),
                orgs=len(orgs),
                category="isp" if len(orgs) <= 1 else "software",
            )
        )
    rows.sort(key=lambda row: (row.category, -row.nodes))
    return rows, len(victims)


@slot_init
@dataclass(frozen=True, slots=True)
class VendorFamilyRow:
    """One shared hijack-page implementation and the ISPs deploying it."""

    family: str
    isps: tuple[str, ...]
    countries: tuple[str, ...]
    nodes: int


_JS_FAMILY_PATTERN = None  # compiled lazily below


def vendor_js_families(
    dataset: DnsDataset,
    orgmap: AsOrgMap,
    min_isps: int = 2,
) -> list[VendorFamilyRow]:
    """§4.3.1: cluster hijack landing pages by their embedded JavaScript.

    The paper found "five ISPs used nearly identical JavaScript code in
    their hijacked response HTML ... Cox Communication, Oi Fixo, TalkTalk,
    BT Internet, and Verizon", concluding they share a vendor package.  The
    clustering key here is the script's identifying comment block; rows are
    families deployed by at least ``min_isps`` distinct organizations.
    """
    import re

    global _JS_FAMILY_PATTERN
    if _JS_FAMILY_PATTERN is None:
        _JS_FAMILY_PATTERN = re.compile(rb"/\*\s*([A-Za-z0-9_.\-]+)\s*\*/")

    by_family: dict[str, dict] = {}
    for record in dataset.records:
        if not record.hijacked or not record.page:
            continue
        match = _JS_FAMILY_PATTERN.search(record.page)
        if match is None:
            continue
        family = match.group(1).decode("ascii")
        org = orgmap.asn_to_org(record.asn) if record.asn is not None else None
        bucket = by_family.setdefault(
            family, {"org_nodes": Counter(), "org_country": {}, "zids": set()}
        )
        if org is not None:
            bucket["org_nodes"][org.name] += 1
            bucket["org_country"][org.name] = org.country
        bucket["zids"].add(record.zid)

    rows = []
    for family, bucket in by_family.items():
        total = len(bucket["zids"])
        # Ignore orgs contributing only a trace of the family's victims:
        # VPN-egress and monitor-prefetch addresses occasionally mislabel a
        # node's AS, and a deployment is only credible at real volume.
        floor = max(2, total // 100)
        isps = sorted(
            name for name, count in bucket["org_nodes"].items() if count >= floor
        )
        if len(isps) < min_isps:
            continue
        countries = sorted({bucket["org_country"][name] for name in isps})
        rows.append(
            VendorFamilyRow(
                family=family,
                isps=tuple(isps),
                countries=tuple(countries),
                nodes=total,
            )
        )
    rows.sort(key=lambda row: -len(row.isps))
    return rows


@dataclass(frozen=True)
class PublicHijackerProbe:
    """§4.3.2: a direct query against a suspected public hijacking server."""

    ip: int
    owner: str
    node_count: int
    answers_direct_queries: bool


def probe_public_hijackers(
    classification: DnsServerClassification,
    internet,
    prober_ip: int,
    probe_name: str = "doesnotexist-probe.tft-example.net",
) -> list[PublicHijackerProbe]:
    """Issue direct queries to each hijacking public server (§4.3.2).

    The paper identifies the operator from the BGP owner of the server's IP
    and checks whether the server answers direct queries (two did not).
    """
    probes: list[PublicHijackerProbe] = []
    for info in classification.hijacking_public_servers:
        resolver = internet.resolver_at(info.ip)
        answers = False
        if resolver is not None:
            answers = resolver.direct_probe(probe_name, prober_ip) is not None
        probes.append(
            PublicHijackerProbe(
                ip=info.ip,
                owner=info.org_name,
                node_count=info.node_count,
                answers_direct_queries=answers,
            )
        )
    probes.sort(key=lambda probe: -probe.node_count)
    return probes
