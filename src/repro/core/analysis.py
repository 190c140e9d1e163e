"""Aggregations behind the paper's tables (§4.2, §5.2, §6.2, §7.2).

Each ``table*`` function consumes an experiment dataset and returns typed
rows matching the corresponding table's columns.  Thresholds default to the
paper's significance cuts; :meth:`AnalysisThresholds.for_scale` relaxes the
cuts that depend on absolute population (a 0.1-scale world has 0.1× the
nodes per country, but the same nodes per DNS server).
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.experiments.dns_hijack import DnsDataset
from repro.core.experiments.http_mod import HttpDataset, HttpProbeRecord
from repro.core.experiments.https_mitm import HttpsDataset, SITE_CLASS_INVALID
from repro.core.experiments.monitoring import MonitoringDataset
from repro.net.orgmap import AsOrgMap
from repro.web.content import ContentCorpus, ObjectKind
from repro.web.jpeg import decode_jpeg, JpegFormatError
from repro.web.server import is_block_page


@dataclass(frozen=True)
class AnalysisThresholds:
    """The paper's statistical-significance cuts, scale-aware.

    * ``country_min_nodes`` (Table 3: "groups where we have at least 100
      exit nodes") scales with world population.
    * ``server_min_nodes`` (§4.3: servers with >= 10 nodes) does **not**
      scale: per-server loads are scale-invariant in the simulated world.
    * ``as_min_nodes`` (§5.2: ASes with >= 10 measured nodes) scales weakly —
      generic AS sizes shrink with the world.
    * ``url_min_nodes`` / ``issuer_min_nodes`` / ``monitor_min_nodes``
      (Tables 5/8/9 row cuts) scale with population.
    """

    country_min_nodes: int = 100
    server_min_nodes: int = 10
    as_min_nodes: int = 10
    url_min_nodes: int = 5
    issuer_min_nodes: int = 5
    monitor_min_nodes: int = 5
    hijacking_server_fraction: float = 0.9
    public_min_countries: int = 3

    @classmethod
    def for_scale(cls, scale: float) -> "AnalysisThresholds":
        """Thresholds appropriate for a world built at ``scale``."""
        if scale >= 1.0:
            return cls()
        return cls(
            country_min_nodes=max(10, round(100 * scale)),
            server_min_nodes=10,
            as_min_nodes=max(4, min(10, round(90 * scale))),
            # Row cuts for Tables 5/8/9 track the population: the paper's
            # "at least 5 exit nodes" becomes 5*scale (floored at 2).
            url_min_nodes=max(2, round(5 * scale)),
            issuer_min_nodes=max(2, round(5 * scale)),
            monitor_min_nodes=max(2, round(5 * scale)),
        )


# ---------------------------------------------------------------------------
# Table 3: countries by hijack ratio
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CountryHijackRow:
    """One Table 3 row."""

    country: str
    hijacked: int
    total: int

    @property
    def ratio(self) -> float:
        """Fraction of the country's measured nodes that were hijacked."""
        return self.hijacked / self.total if self.total else 0.0


def table3_country_hijack(
    dataset: DnsDataset, thresholds: Optional[AnalysisThresholds] = None
) -> list[CountryHijackRow]:
    """Countries (>= threshold nodes) ranked by NXDOMAIN-hijack ratio."""
    cuts = thresholds if thresholds is not None else AnalysisThresholds()
    totals: Counter = Counter()
    hijacked: Counter = Counter()
    for record in dataset.records:
        if record.country is None:
            continue
        totals[record.country] += 1
        if record.hijacked:
            hijacked[record.country] += 1
    rows = [
        CountryHijackRow(country=country, hijacked=hijacked[country], total=total)
        for country, total in totals.items()
        if total >= cuts.country_min_nodes
    ]
    rows.sort(key=lambda row: -row.ratio)
    return rows


@dataclass(frozen=True)
class AsDispersion:
    """How a violation spreads over ASes — the paper's locality argument.

    §4.2 quotes this for hijacking ("in 20 ASes, more than one-third of exit
    nodes experience it"; 40% of ASes and 10% of countries see none) and
    §6.2 for certificate replacement ("only 1.2% of ASes have more than 10%
    of exit nodes experience replacement" — hence host software, not
    networks).
    """

    groups_total: int
    groups_clean: int
    groups_over_tenth: int
    groups_over_third: int

    @property
    def clean_fraction(self) -> float:
        """Share of groups with no affected nodes at all."""
        return self.groups_clean / self.groups_total if self.groups_total else 0.0

    @property
    def over_tenth_fraction(self) -> float:
        """Share of groups with more than 10% of nodes affected."""
        return self.groups_over_tenth / self.groups_total if self.groups_total else 0.0


def as_dispersion(
    pairs: "Iterable[tuple[Optional[int], bool]]", min_nodes: int = 10
) -> AsDispersion:
    """Dispersion stats over (asn, affected) pairs for sufficiently big ASes.

    Works for any per-node predicate: hijacked (§4.2), certificate replaced
    (§6.2), HTML injected (§5.2).  A *concentrated* result (few groups above
    a third) implicates networks; a *dispersed* one implicates host software.
    """
    totals: Counter = Counter()
    affected: Counter = Counter()
    for asn, flag in pairs:
        if asn is None:
            continue
        totals[asn] += 1
        if flag:
            affected[asn] += 1
    groups = [(affected[asn], total) for asn, total in totals.items() if total >= min_nodes]
    return AsDispersion(
        groups_total=len(groups),
        groups_clean=sum(1 for hit, _total in groups if hit == 0),
        groups_over_tenth=sum(1 for hit, total in groups if hit / total > 0.10),
        groups_over_third=sum(1 for hit, total in groups if hit / total > 1 / 3),
    )


@dataclass(frozen=True, slots=True)
class GoogleDnsConcentrationRow:
    """One footnote-9 row: an AS whose users overwhelmingly use Google DNS."""

    asn: int
    isp: str
    country: str
    google_nodes: int
    total: int

    @property
    def ratio(self) -> float:
        """Fraction of the AS's measured nodes resolving through Google."""
        return self.google_nodes / self.total if self.total else 0.0


def google_dns_concentration(
    dataset: DnsDataset,
    orgmap: AsOrgMap,
    min_nodes: int = 10,
    threshold: float = 0.8,
) -> list[GoogleDnsConcentrationRow]:
    """Footnote 9: ASes where >=80% of exit nodes use Google's public DNS.

    The paper found 91 such ASes (e.g. OPT Benin at 99.1%), evidence that
    whole networks outsource resolution — consistent with studies of African
    resolver placement.
    """
    from repro.dnssim.resolver import GooglePublicDns

    totals: Counter = Counter()
    google: Counter = Counter()
    for record in dataset.records:
        if record.asn is None:
            continue
        totals[record.asn] += 1
        if GooglePublicDns.is_google_egress(record.dns_server_ip):
            google[record.asn] += 1
    rows = []
    for asn, total in totals.items():
        if total < min_nodes or google[asn] / total < threshold:
            continue
        org = orgmap.asn_to_org(asn)
        rows.append(
            GoogleDnsConcentrationRow(
                asn=asn,
                isp=org.name if org is not None else "(unknown)",
                country=org.country if org is not None else "",
                google_nodes=google[asn],
                total=total,
            )
        )
    rows.sort(key=lambda row: -row.ratio)
    return rows


# ---------------------------------------------------------------------------
# Table 4: hijacking ISP resolvers, grouped by ISP
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IspDnsRow:
    """One Table 4 row."""

    country: str
    isp: str
    dns_servers: int
    exit_nodes: int


def table4_isp_dns(classification, orgmap: AsOrgMap) -> list[IspDnsRow]:
    """Aggregate hijacking ISP-provided servers into per-ISP rows.

    ``classification`` is a
    :class:`repro.core.attribution.DnsServerClassification`.
    """
    by_org: dict[str, list] = defaultdict(list)
    for info in classification.hijacking_isp_servers:
        if info.org_id is not None:
            by_org[info.org_id].append(info)
    rows = []
    for org_id, infos in by_org.items():
        org = orgmap.get(org_id)
        rows.append(
            IspDnsRow(
                country=org.country,
                isp=org.name,
                dns_servers=len(infos),
                exit_nodes=sum(info.node_count for info in infos),
            )
        )
    rows.sort(key=lambda row: (row.country, row.isp))
    return rows


# ---------------------------------------------------------------------------
# Table 6: injected-JavaScript markers
# ---------------------------------------------------------------------------

_URL_IN_DIFF = re.compile(r"https?://([A-Za-z0-9.\-]+(?:/[A-Za-z0-9.\-_/]*[A-Za-z0-9])?)")
_VAR_IN_DIFF = re.compile(r"var\s+([A-Za-z_]\w*)\s*;")
_WIDGET_SUFFIX = "_Widget_Container"
# The common-prefix diff may eat the leading "<" (it matches the original's
# next tag), so the meta pattern must not anchor on it.
_META_IN_DIFF = re.compile(r'meta\s+name="([^"]+)"')


def injected_fragment(original: bytes, received: bytes) -> bytes:
    """The contiguous bytes added to a page in flight.

    Uses longest common prefix/suffix — sound for the single-block splices
    real injectors perform; a wholesale page replacement returns the whole
    received body.
    """
    prefix = 0
    limit = min(len(original), len(received))
    while prefix < limit and original[prefix] == received[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and original[len(original) - 1 - suffix] == received[len(received) - 1 - suffix]
    ):
        suffix += 1
    return received[prefix : len(received) - suffix]


def _is_word(char: str) -> bool:
    """Whether ``char`` is a word character in the sense of the regex ``\\w``."""
    return char.isalnum() or char == "_"


def widget_token(text: str) -> Optional[str]:
    """The first ``[A-Za-z]\\w*_Widget_Container`` token in ``text``, or ``None``.

    Returns exactly what that regex's ``search(text).group(1)`` does, in
    linear time: the regex backtracks quadratically through an injector's
    word-character padding.  Its match lies in the first word run whose
    first ASCII letter comes before the run's last copy of the suffix, and
    spans from that letter to the end of that copy.
    """
    found = text.find(_WIDGET_SUFFIX)
    while found >= 0:
        start = found
        while start > 0 and _is_word(text[start - 1]):
            start -= 1
        end = found + len(_WIDGET_SUFFIX)
        while end < len(text) and _is_word(text[end]):
            end += 1
        last = text.rfind(_WIDGET_SUFFIX, found, end)
        for index in range(start, last):
            if text[index].isascii() and text[index].isalpha():
                return text[index : last + len(_WIDGET_SUFFIX)]
        found = text.find(_WIDGET_SUFFIX, end)
    return None


def injection_signature(original: bytes, received: bytes) -> str:
    """The URL or keyword characterising an injection (§5.2's manual step).

    Preference order mirrors what a human analyst keys on: an embedded URL,
    a declared variable, a widget-container class id, a meta tag name.
    """
    fragment = injected_fragment(original, received).decode("ascii", errors="replace")
    match = _URL_IN_DIFF.search(fragment)
    if match:
        return match.group(1)
    token = widget_token(fragment)
    if token is not None:
        return token
    match = _VAR_IN_DIFF.search(fragment)
    if match:
        return f"var {match.group(1)};"
    match = _META_IN_DIFF.search(fragment)
    if match:
        return match.group(1)
    return "(unidentified)"


@dataclass(frozen=True, slots=True)
class JsInjectionRow:
    """One Table 6 row."""

    marker: str
    nodes: int
    countries: int
    ases: int


@dataclass
class HtmlModificationAnalysis:
    """§5.2's HTML findings: filtered interstitials, markers, AS ratios."""

    modified_nodes: int
    block_page_nodes: int
    injected_nodes: int
    rows: list[JsInjectionRow]
    identified_nodes: int
    #: asn -> (injected, measured) for ASes above the significance cut.
    as_ratios: dict[int, tuple[int, int]]


def table6_js_injection(
    dataset: HttpDataset,
    corpus: ContentCorpus,
    thresholds: Optional[AnalysisThresholds] = None,
) -> HtmlModificationAnalysis:
    """Analyse HTML modifications: filter interstitials, extract markers."""
    cuts = thresholds if thresholds is not None else AnalysisThresholds()
    original = corpus.body(ObjectKind.HTML)

    modified = [r for r in dataset.records if r.modified(ObjectKind.HTML)]
    injected: list[tuple[HttpProbeRecord, str]] = []
    block_pages = 0
    for record in modified:
        body = record.modified_bodies[ObjectKind.HTML]
        if is_block_page(body):
            block_pages += 1
            continue
        injected.append((record, injection_signature(original, body)))

    by_marker: dict[str, list[HttpProbeRecord]] = defaultdict(list)
    for record, marker in injected:
        by_marker[marker].append(record)
    rows = [
        JsInjectionRow(
            marker=marker,
            nodes=len(records),
            countries=len({r.country for r in records if r.country is not None}),
            ases=len({r.asn for r in records if r.asn is not None}),
        )
        for marker, records in by_marker.items()
        if marker != "(unidentified)"
    ]
    rows.sort(key=lambda row: -row.nodes)
    identified = sum(row.nodes for row in rows)

    # Per-AS injection ratios over sufficiently measured ASes (§5.2 uses
    # this to argue most injection is host software, not networks).
    measured_per_as: Counter = Counter(
        r.asn for r in dataset.records if r.asn is not None
    )
    injected_per_as: Counter = Counter(
        r.asn for r, _marker in injected if r.asn is not None
    )
    as_ratios = {
        asn: (injected_per_as[asn], measured)
        for asn, measured in measured_per_as.items()
        if measured >= cuts.as_min_nodes and injected_per_as[asn] > 0
    }

    return HtmlModificationAnalysis(
        modified_nodes=len(modified),
        block_page_nodes=block_pages,
        injected_nodes=len(injected),
        rows=rows,
        identified_nodes=identified,
        as_ratios=as_ratios,
    )


# ---------------------------------------------------------------------------
# Table 7: image compression by mobile AS
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ImageCompressionRow:
    """One Table 7 row."""

    asn: int
    isp: str
    country: str
    modified: int
    total: int
    compression_ratios: tuple[float, ...]  # distinct observed ratios

    @property
    def ratio(self) -> float:
        """Fraction of the AS's measured nodes with compressed images."""
        return self.modified / self.total if self.total else 0.0

    @property
    def multiple_ratios(self) -> bool:
        """Whether more than one compression level was observed ("M" rows)."""
        return len(self.compression_ratios) > 1


def table7_image_compression(
    dataset: HttpDataset,
    corpus: ContentCorpus,
    orgmap: AsOrgMap,
    thresholds: Optional[AnalysisThresholds] = None,
) -> list[ImageCompressionRow]:
    """Per-AS image-compression rows for sufficiently measured ASes."""
    cuts = thresholds if thresholds is not None else AnalysisThresholds()
    original_len = len(corpus.body(ObjectKind.JPEG))

    measured_per_as: Counter = Counter(r.asn for r in dataset.records if r.asn is not None)
    compressed: dict[int, list[float]] = defaultdict(list)
    for record in dataset.records:
        if record.asn is None or not record.modified(ObjectKind.JPEG):
            continue
        body = record.modified_bodies[ObjectKind.JPEG]
        try:
            decode_jpeg(body)
        except JpegFormatError:
            continue  # an error page, not a recompressed image
        compressed[record.asn].append(len(body) / original_len)

    rows: list[ImageCompressionRow] = []
    for asn, ratios in compressed.items():
        total = measured_per_as[asn]
        if total < cuts.as_min_nodes:
            continue
        org = orgmap.asn_to_org(asn)
        distinct = sorted({round(ratio, 2) for ratio in ratios})
        rows.append(
            ImageCompressionRow(
                asn=asn,
                isp=org.name if org is not None else "(unknown)",
                country=org.country if org is not None else "",
                modified=len(ratios),
                total=total,
                compression_ratios=tuple(distinct),
            )
        )
    rows.sort(key=lambda row: -row.ratio)
    return rows


@dataclass(frozen=True, slots=True)
class HttpProxyRow:
    """One detected transparent-proxy deployment (Netalyzr-style, §8)."""

    asn: int
    isp: str
    country: str
    via_token: str
    proxied: int
    caching: int
    total: int

    @property
    def ratio(self) -> float:
        """Fraction of the AS's measured nodes behind the proxy."""
        return self.proxied / self.total if self.total else 0.0


def table_http_proxies(
    dataset: HttpDataset,
    orgmap: AsOrgMap,
    thresholds: Optional[AnalysisThresholds] = None,
) -> list[HttpProxyRow]:
    """Per-AS transparent-proxy detections from Via headers and cache hits.

    Groups nodes whose responses carried a ``Via`` header (or whose
    cache-busting double-fetch returned identical bodies) by AS; an AS-wide
    token implicates the ISP, exactly like the paper's other localization
    arguments.
    """
    cuts = thresholds if thresholds is not None else AnalysisThresholds()
    totals: Counter = Counter()
    proxied: dict[int, list[HttpProbeRecord]] = defaultdict(list)
    for record in dataset.records:
        if record.asn is None:
            continue
        totals[record.asn] += 1
        if record.via_token or record.cached_dynamic:
            proxied[record.asn].append(record)
    rows: list[HttpProxyRow] = []
    for asn, records in proxied.items():
        total = totals[asn]
        if total < cuts.as_min_nodes:
            continue
        org = orgmap.asn_to_org(asn)
        tokens = Counter(r.via_token for r in records if r.via_token)
        rows.append(
            HttpProxyRow(
                asn=asn,
                isp=org.name if org is not None else "(unknown)",
                country=org.country if org is not None else "",
                via_token=tokens.most_common(1)[0][0] if tokens else "(header-less)",
                proxied=len(records),
                caching=sum(1 for r in records if r.cached_dynamic),
                total=total,
            )
        )
    rows.sort(key=lambda row: -row.proxied)
    return rows


# ---------------------------------------------------------------------------
# Table 8: certificate-replacement issuers
# ---------------------------------------------------------------------------

#: Keyword -> display group, mirroring the paper's manual grouping of the
#: 320 observed Issuer Common Names into product families.
_ISSUER_KEYWORDS: tuple[tuple[str, str], ...] = (
    ("avast", "Avast"),
    ("avg", "AVG Technology"),
    ("bitdefender", "BitDefender"),
    ("eset", "Eset SSL Filter"),
    ("kaspersky", "Kaspersky"),
    ("opendns", "OpenDNS"),
    ("cyberoam", "Cyberoam SSL"),
    ("sample ca 2", "Sample CA 2"),
    ("fortigate", "Fortigate"),
    ("fortinet", "Fortigate"),
    ("cloudguard", "Cloudguard.me"),
    ("dr.web", "Dr. Web"),
    ("drweb", "Dr. Web"),
    ("mcafee", "McAfee"),
)

#: Product types as identified by the paper's manual investigation.
ISSUER_TYPES: dict[str, str] = {
    "Avast": "Anti-Virus/Security",
    "AVG Technology": "Anti-Virus/Security",
    "BitDefender": "Anti-Virus/Security",
    "Eset SSL Filter": "Anti-Virus/Security",
    "Kaspersky": "Anti-Virus/Security",
    "OpenDNS": "Content filter",
    "Cyberoam SSL": "Anti-Virus/Security",
    "Sample CA 2": "N/A",
    "Fortigate": "Anti-Virus/Security",
    "Empty": "N/A",
    "Cloudguard.me": "Malware",
    "Dr. Web": "Anti-Virus/Security",
    "McAfee": "Anti-Virus/Security",
}


def issuer_group(issuer_cn: str) -> str:
    """Map a raw Issuer CN to its product group (the paper's manual step)."""
    stripped = issuer_cn.strip()
    if not stripped:
        return "Empty"
    lowered = stripped.lower()
    for keyword, group in _ISSUER_KEYWORDS:
        if keyword in lowered:
            return group
    return stripped


@dataclass(frozen=True, slots=True)
class IssuerRow:
    """One Table 8 row."""

    issuer: str
    exit_nodes: int
    type: str


@dataclass
class CertReplacementAnalysis:
    """§6.2's findings: issuer table plus behavioural observations."""

    replaced_nodes: int
    unique_issuer_cns: int
    rows: list[IssuerRow]
    #: issuer group -> fraction of multi-replacement nodes reusing one key.
    key_reuse: dict[str, float]
    #: issuer groups that re-sign invalid origins under their normal issuer.
    revalidates_invalid: set[str]
    #: issuer groups observed skipping some sites on a node (selective MITM).
    selective: set[str]


def table8_issuers(
    dataset: HttpsDataset, thresholds: Optional[AnalysisThresholds] = None
) -> CertReplacementAnalysis:
    """Group replaced certificates by issuer and derive §6.2's behaviours."""
    cuts = thresholds if thresholds is not None else AnalysisThresholds()
    issuer_nodes: dict[str, set[str]] = defaultdict(set)
    raw_cns: set[str] = set()
    key_reuse_counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    revalidates: set[str] = set()
    selective: set[str] = set()

    replaced_nodes = 0
    for record in dataset.records:
        replaced = record.replaced_sites()
        if not replaced:
            continue
        replaced_nodes += 1
        groups_here: dict[str, list] = defaultdict(list)
        for site in replaced:
            raw_cns.add(site.issuer_cn)
            group = issuer_group(site.issuer_cn)
            issuer_nodes[group].add(record.zid)
            groups_here[group].append(site)
        # §6.2: a product "re-signs invalid origins as valid-looking" when
        # the spoofed certificate for an invalid origin carries the *same
        # raw Issuer CN* it uses for valid origins — products that switch to
        # a separate "untrusted" issuer (Avast, BitDefender, Dr. Web) are
        # explicitly not in this class, even though both CNs group together.
        valid_site_cns = {
            s.issuer_cn for s in replaced if s.site_class != SITE_CLASS_INVALID
        }
        for group, sites in groups_here.items():
            if len(sites) >= 2:
                keys = {site.leaf_key_id for site in sites}
                key_reuse_counts[group][0] += 1
                if len(keys) == 1:
                    key_reuse_counts[group][1] += 1
            for site in sites:
                if site.site_class == SITE_CLASS_INVALID and site.issuer_cn in valid_site_cns:
                    revalidates.add(group)
        if record.full_scan and any(not site.replaced for site in record.sites):
            for group in groups_here:
                selective.add(group)

    rows = [
        IssuerRow(
            issuer=group,
            exit_nodes=len(zids),
            type=ISSUER_TYPES.get(group, "N/A"),
        )
        for group, zids in issuer_nodes.items()
        if len(zids) >= cuts.issuer_min_nodes
    ]
    rows.sort(key=lambda row: -row.exit_nodes)
    key_reuse = {
        group: (reused / total if total else 0.0)
        for group, (total, reused) in key_reuse_counts.items()
    }
    return CertReplacementAnalysis(
        replaced_nodes=replaced_nodes,
        unique_issuer_cns=len(raw_cns),
        rows=rows,
        key_reuse=key_reuse,
        revalidates_invalid=revalidates,
        selective=selective,
    )


# ---------------------------------------------------------------------------
# Table 9 + Figure 5: content monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MonitoringRow:
    """One Table 9 row."""

    entity: str
    source_ips: int
    exit_nodes: int
    ases: int
    countries: int


@dataclass
class MonitoringAnalysis:
    """§7.2's findings: entity table plus the Figure 5 delay samples."""

    monitored_nodes: int
    unexpected_source_ips: int
    source_as_groups: int
    rows: list[MonitoringRow]
    #: entity -> all observed delays (seconds, may be negative for prefetch).
    delays: dict[str, list[float]]


def table9_monitoring(
    dataset: MonitoringDataset,
    orgmap: AsOrgMap,
    thresholds: Optional[AnalysisThresholds] = None,
) -> MonitoringAnalysis:
    """Group unexpected requests by the organization of their source AS."""
    cuts = thresholds if thresholds is not None else AnalysisThresholds()
    entity_nodes: dict[str, set[str]] = defaultdict(set)
    entity_ips: dict[str, set[int]] = defaultdict(set)
    entity_node_ases: dict[str, set[int]] = defaultdict(set)
    entity_node_countries: dict[str, set[str]] = defaultdict(set)
    delays: dict[str, list[float]] = defaultdict(list)
    all_ips: set[int] = set()
    all_source_asns: set[int] = set()

    monitored = 0
    for record in dataset.records:
        if not record.monitored:
            continue
        monitored += 1
        for request in record.unexpected:
            org = orgmap.asn_to_org(request.asn) if request.asn is not None else None
            entity = org.name if org is not None else "(unknown)"
            entity_nodes[entity].add(record.zid)
            entity_ips[entity].add(request.source_ip)
            if record.asn is not None:
                entity_node_ases[entity].add(record.asn)
            if record.country is not None:
                entity_node_countries[entity].add(record.country)
            delays[entity].append(request.delay)
            all_ips.add(request.source_ip)
            if request.asn is not None:
                all_source_asns.add(request.asn)

    rows = [
        MonitoringRow(
            entity=entity,
            source_ips=len(entity_ips[entity]),
            exit_nodes=len(zids),
            ases=len(entity_node_ases[entity]),
            countries=len(entity_node_countries[entity]),
        )
        for entity, zids in entity_nodes.items()
        if len(zids) >= cuts.monitor_min_nodes
    ]
    rows.sort(key=lambda row: -row.exit_nodes)
    return MonitoringAnalysis(
        monitored_nodes=monitored,
        unexpected_source_ips=len(all_ips),
        source_as_groups=len(all_source_asns),
        rows=rows,
        delays={entity: sorted(values) for entity, values in delays.items()},
    )
