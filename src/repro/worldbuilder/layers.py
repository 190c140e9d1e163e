"""Layers: the declarative surface of the worldbuilder DSL.

A world spec is a stack of layers, seed-emulator style:

* :class:`BaseLayer` declares countries, ISPs (organizations), their AS
  counts, and optional address-prefix labels;
* :class:`ResolverLayer` configures resolver fleets and external-DNS
  policies on ISP sets selected by :mod:`~repro.worldbuilder.bindings`;
* :class:`MiddleboxLayer` plants end-to-end violators — resolver
  hijackers, transcoders, HTTP proxies, TLS interception proxies, content
  monitors — each carrying the §4–§7 ground-truth finding a study of the
  compiled world must rediscover;
* :class:`NodePopulationLayer` overrides exit-node counts and declares IP
  churn.

Layers mutate :class:`IspDraft` records; the compiler
(:mod:`~repro.worldbuilder.compile`) validates the composed drafts and
renders them to the :class:`~repro.sim.profiles.CountrySpec` /
:class:`~repro.sim.profiles.IspSpec` tuples the existing world builder
consumes.  Nothing here draws ambient randomness (WLD001): partial
bindings tie-break by keyed hash, and every behaviour a layer plants is
carried by the spec dataclasses the engine already rebuilds shards from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional, Union

from repro.records import slot_init
from repro.sim.profiles import (
    CountrySpec,
    IspSpec,
    PathHijackSpec,
    ResolverHijackSpec,
    TlsProxySpec,
    TranscoderSpec,
)
from repro.worldbuilder.bindings import Binding, Selector

if TYPE_CHECKING:
    from repro.core.study import StudyResults

#: The paper's Table 4 keeps servers whose hijack fraction is >= 90%; a
#: hijacker planted below the cut is *intentionally* absent from Table 4
#: (Indonesia's Uzone is the profile example), so it carries no finding.
TABLE4_SERVER_HIJACK_CUT = 0.9

#: Sentinel distinguishing "argument not given" from "explicitly None".
_UNSET: object = object()


# ---------------------------------------------------------------------------
# Drafts: the mutable records layers compose
# ---------------------------------------------------------------------------


@dataclass
class IspDraft:
    """One ISP mid-composition; field-compatible with :class:`IspSpec`.

    ``prefix`` is a DSL-only label: selectors can bind by it and the
    compiler rejects overlapping declarations, but it never reaches the
    rendered spec (the world builder allocates real address space itself).
    """

    country: str
    name: str
    share: float = 0.0
    population: Optional[int] = None
    as_count: int = 1
    mobile: bool = False
    fixed_asn: Optional[int] = None
    prefix: Optional[str] = None
    major_resolvers: int = 2
    major_resolver_nodes: int = 0
    external_dns_fraction: float = 0.08
    external_google_share: Optional[float] = None
    resolver_hijack: Optional[ResolverHijackSpec] = None
    path_hijack: Optional[PathHijackSpec] = None
    transcoder: Optional[TranscoderSpec] = None
    web_filter_tag: Optional[str] = None
    http_proxy_via: Optional[str] = None
    http_proxy_cache: bool = True
    monitor: Optional[str] = None
    monitor_rate: float = 0.0
    monitor_ip_count: int = 0
    tls_proxy: Optional[TlsProxySpec] = None

    def to_spec(self) -> IspSpec:
        """Render to the frozen spec the world builder consumes."""
        return IspSpec(
            name=self.name,
            share=self.share,
            population=self.population,
            as_count=self.as_count,
            major_resolvers=self.major_resolvers,
            major_resolver_nodes=self.major_resolver_nodes,
            resolver_hijack=self.resolver_hijack,
            path_hijack=self.path_hijack,
            external_dns_fraction=self.external_dns_fraction,
            external_google_share=self.external_google_share,
            transcoder=self.transcoder,
            web_filter_tag=self.web_filter_tag,
            http_proxy_via=self.http_proxy_via,
            http_proxy_cache=self.http_proxy_cache,
            monitor=self.monitor,
            monitor_rate=self.monitor_rate,
            monitor_ip_count=self.monitor_ip_count,
            tls_proxy=self.tls_proxy,
            mobile=self.mobile,
            fixed_asn=self.fixed_asn,
        )


@dataclass
class CountryDraft:
    """One country mid-composition."""

    code: str
    population: int
    residual_hijack_ratio: float = 0.0
    external_dns_fraction: float = 0.08
    isps: list[IspDraft] = field(default_factory=list)

    def to_spec(self) -> CountrySpec:
        return CountrySpec(
            code=self.code,
            population=self.population,
            isps=tuple(draft.to_spec() for draft in self.isps),
            residual_hijack_ratio=self.residual_hijack_ratio,
            external_dns_fraction=self.external_dns_fraction,
        )


# ---------------------------------------------------------------------------
# Ground truth: what a planted middlebox promises a study will find
# ---------------------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class ExpectedFinding:
    """One §4–§7 finding a compiled world's study must rediscover.

    ``kind`` picks the verification table; ``detail`` is the kind-specific
    fingerprint (landing domain, Via token, issuer CN, monitor entity).
    """

    kind: str  # dns-hijack | transcoder | http-proxy | tls-proxy | monitor
    section: str
    country: str
    isp: str
    detail: str

    def describe(self) -> dict:
        """JSON-able form for compile reports."""
        return {
            "kind": self.kind,
            "section": self.section,
            "country": self.country,
            "isp": self.isp,
            "detail": self.detail,
        }

    def verify(self, results: "StudyResults") -> bool:
        """Whether a full study of the compiled world rediscovered this.

        Imports stay local: layers must be importable without pulling the
        whole measurement pipeline in (the engine imports this package to
        stamp manifests).
        """
        if self.kind == "dns-hijack":
            from repro.core.analysis import table4_isp_dns
            from repro.core.attribution import classify_dns_servers

            classification = classify_dns_servers(
                results.dns,
                results.world.routeviews,
                results.world.orgmap,
                results.thresholds,
            )
            rows = table4_isp_dns(classification, results.world.orgmap)
            return any(row.isp == self.isp for row in rows)
        if self.kind == "transcoder":
            from repro.core.analysis import table7_image_compression

            rows = table7_image_compression(
                results.http,
                results.world.corpus,
                results.world.orgmap,
                results.thresholds,
            )
            return any(row.isp == self.isp for row in rows)
        if self.kind == "http-proxy":
            from repro.core.analysis import table_http_proxies

            rows = table_http_proxies(
                results.http, results.world.orgmap, results.thresholds
            )
            return any(
                row.isp == self.isp and row.via_token == self.detail
                for row in rows
            )
        if self.kind == "tls-proxy":
            from repro.core.analysis import issuer_group

            expected = issuer_group(self.detail)
            return any(
                row.issuer == expected for row in results.cert_analysis.rows
            )
        if self.kind == "monitor":
            # Table 9 attributes monitors to the org behind the unexpected
            # requests' source IPs — an ISP-level monitor surfaces under
            # the ISP's name, whatever the operator called it.
            return any(
                row.entity == self.isp
                for row in results.monitoring_analysis.rows
            )
        raise ValueError(f"unknown finding kind: {self.kind}")


# ---------------------------------------------------------------------------
# Middlebox declarations
# ---------------------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class ResolverHijacker:
    """§4: ISP resolvers rewrite NXDOMAIN to a landing page.

    ``path_intercept`` adds the §4.3.3 transparent-proxy vector (external
    resolvers are rewritten in flight too).  A rate below the Table 4 cut
    plants hijacking that Tables 3/5 see but Table 4 must not — such a
    declaration carries no finding.
    """

    landing_domain: str
    rate: float = 0.97
    js_family: str = ""
    path_intercept: bool = True
    intercept_rate: float = 1.0

    kind: ClassVar[str] = "resolver hijacker"
    field_name: ClassVar[str] = "resolver_hijack"

    def apply(self, draft: IspDraft) -> None:
        draft.resolver_hijack = ResolverHijackSpec(
            landing_domain=self.landing_domain,
            js_family=self.js_family,
            rate=self.rate,
        )
        if self.path_intercept:
            draft.path_hijack = PathHijackSpec(
                landing_domain=self.landing_domain,
                intercept_rate=self.intercept_rate,
            )

    def finding(self, draft: IspDraft) -> Optional[ExpectedFinding]:
        if self.rate < TABLE4_SERVER_HIJACK_CUT:
            return None
        if draft.major_resolver_nodes <= 0:
            # Without a declared major-resolver fleet the world builder
            # spreads the ISP's subscribers across minor servers, each
            # below the paper's 10-node significance cut — hijacking that
            # Tables 3/5 see but Table 4 must not.  Configure the fleet
            # via ResolverLayer *before* planting to claim a Table 4 row.
            return None
        return ExpectedFinding(
            kind="dns-hijack",
            section="§4 Table 4",
            country=draft.country,
            isp=draft.name,
            detail=self.landing_domain,
        )


@slot_init
@dataclass(frozen=True, slots=True)
class Transcoder:
    """§5: a (typically mobile) AS recompressing images in flight."""

    ratios: tuple[float, ...]
    affected_fraction: float = 1.0

    kind: ClassVar[str] = "transcoder"
    field_name: ClassVar[str] = "transcoder"

    def apply(self, draft: IspDraft) -> None:
        draft.transcoder = TranscoderSpec(
            ratios=tuple(self.ratios),
            affected_fraction=self.affected_fraction,
        )

    def finding(self, draft: IspDraft) -> Optional[ExpectedFinding]:
        return ExpectedFinding(
            kind="transcoder",
            section="§5 Table 7",
            country=draft.country,
            isp=draft.name,
            detail=",".join(str(r) for r in self.ratios),
        )


@slot_init
@dataclass(frozen=True, slots=True)
class HttpProxy:
    """§8 (Netalyzr-style): a transparent HTTP proxy announcing a Via token."""

    via_token: str
    cache: bool = True

    kind: ClassVar[str] = "http proxy"
    field_name: ClassVar[str] = "http_proxy_via"

    def apply(self, draft: IspDraft) -> None:
        draft.http_proxy_via = self.via_token
        draft.http_proxy_cache = self.cache

    def finding(self, draft: IspDraft) -> Optional[ExpectedFinding]:
        return ExpectedFinding(
            kind="http-proxy",
            section="§5/§8 proxy table",
            country=draft.country,
            isp=draft.name,
            detail=self.via_token,
        )


@slot_init
@dataclass(frozen=True, slots=True)
class WebFilter:
    """§5: an in-path content filter stamping pages with a tag.

    Filters surface in the HTML-modification analysis, not in a keyed
    table row, so the declaration carries no verifiable finding.
    """

    tag: str

    kind: ClassVar[str] = "web filter"
    field_name: ClassVar[str] = "web_filter_tag"

    def apply(self, draft: IspDraft) -> None:
        draft.web_filter_tag = self.tag

    def finding(self, draft: IspDraft) -> Optional[ExpectedFinding]:
        return None


@slot_init
@dataclass(frozen=True, slots=True)
class Monitor:
    """§7: an ISP-level content monitor re-fetching observed URLs."""

    name: str
    rate: float
    ip_count: int = 1

    kind: ClassVar[str] = "monitor"
    field_name: ClassVar[str] = "monitor"

    def apply(self, draft: IspDraft) -> None:
        draft.monitor = self.name
        draft.monitor_rate = self.rate
        draft.monitor_ip_count = self.ip_count

    def finding(self, draft: IspDraft) -> Optional[ExpectedFinding]:
        return ExpectedFinding(
            kind="monitor",
            section="§7 Table 9",
            country=draft.country,
            isp=draft.name,
            detail=self.name,
        )


@slot_init
@dataclass(frozen=True, slots=True)
class TlsProxy:
    """§6/§8: an ISP-operated in-path TLS interception proxy.

    This is the one scenario :data:`~repro.sim.profiles.NAMED_COUNTRIES`
    never plants — Table 8's products all run on the host; a national
    filtering gateway intercepts on-path regardless of the client's
    resolver or installed software.
    """

    issuer_cn: str
    coverage: float = 1.0
    issuer_org: str = ""
    issuer_country: str = ""
    only_valid_origins: bool = False

    kind: ClassVar[str] = "tls proxy"
    field_name: ClassVar[str] = "tls_proxy"

    def apply(self, draft: IspDraft) -> None:
        draft.tls_proxy = TlsProxySpec(
            issuer_cn=self.issuer_cn,
            coverage=self.coverage,
            issuer_org=self.issuer_org,
            issuer_country=self.issuer_country,
            only_valid_origins=self.only_valid_origins,
        )

    def finding(self, draft: IspDraft) -> Optional[ExpectedFinding]:
        return ExpectedFinding(
            kind="tls-proxy",
            section="§6 Table 8",
            country=draft.country,
            isp=draft.name,
            detail=self.issuer_cn,
        )


Middlebox = Union[ResolverHijacker, Transcoder, HttpProxy, WebFilter, Monitor, TlsProxy]


def _as_binding(
    target: Union[Selector, Binding],
    limit: Optional[int],
    fraction: Optional[float],
    key: str,
) -> Binding:
    """Normalize a layer-call target to a :class:`Binding`."""
    if isinstance(target, Binding):
        if limit is not None or fraction is not None or key:
            raise ValueError(
                "pass pick options either in the Binding or as keywords, not both"
            )
        return target
    return Binding(selector=target, limit=limit, fraction=fraction, key=key)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class BaseLayer:
    """Countries, ISPs, AS counts, prefix labels — the topology skeleton."""

    name = "base"

    def __init__(self) -> None:
        self.countries: list[CountryDraft] = []
        self.include_tail = False
        self._by_code: dict[str, CountryDraft] = {}
        #: ``add_isp`` calls naming an undeclared country; the compiler
        #: reports these as ``unknown-country`` issues.
        self.orphan_isps: list[IspDraft] = []

    def add_country(
        self,
        code: str,
        population: int,
        *,
        residual_hijack_ratio: float = 0.0,
        external_dns_fraction: float = 0.08,
    ) -> CountryDraft:
        """Declare a country with a full-scale exit-node population."""
        draft = CountryDraft(
            code=code,
            population=population,
            residual_hijack_ratio=residual_hijack_ratio,
            external_dns_fraction=external_dns_fraction,
        )
        self.countries.append(draft)
        # Last declaration wins for add_isp lookups; the compiler reports
        # the duplicate itself as a structured issue.
        self._by_code[code] = draft
        return draft

    def add_isp(
        self,
        country_code: str,
        name: str,
        *,
        share: float = 0.0,
        population: Optional[int] = None,
        as_count: int = 1,
        mobile: bool = False,
        fixed_asn: Optional[int] = None,
        prefix: Optional[str] = None,
    ) -> IspDraft:
        """Declare an ISP in a country declared on this layer."""
        draft = IspDraft(
            country=country_code,
            name=name,
            share=share,
            population=population,
            as_count=as_count,
            mobile=mobile,
            fixed_asn=fixed_asn,
            prefix=prefix,
        )
        country = self._by_code.get(country_code)
        if country is None:
            self.orphan_isps.append(draft)
        else:
            country.isps.append(draft)
        return draft

    def include_default_tail(self) -> None:
        """Append the default profile tail (every country the registry
        knows that this spec didn't declare, at its profile population)."""
        self.include_tail = True


class ResolverLayer:
    """Resolver-fleet and external-DNS policy overrides on ISP sets."""

    name = "resolver"

    def __init__(self) -> None:
        self.overrides: list[tuple[Binding, dict]] = []

    def configure(
        self,
        target: Union[Selector, Binding],
        *,
        major_resolvers: object = _UNSET,
        major_resolver_nodes: object = _UNSET,
        external_dns_fraction: object = _UNSET,
        external_google_share: object = _UNSET,
        limit: Optional[int] = None,
        fraction: Optional[float] = None,
        key: str = "",
    ) -> Binding:
        """Override resolver policy fields on every selected ISP.

        Only the keywords actually given are applied, so overrides stack:
        a later ``configure`` touching other fields leaves these intact.
        """
        binding = _as_binding(target, limit, fraction, key)
        fields = {
            name: value
            for name, value in (
                ("major_resolvers", major_resolvers),
                ("major_resolver_nodes", major_resolver_nodes),
                ("external_dns_fraction", external_dns_fraction),
                ("external_google_share", external_google_share),
            )
            if value is not _UNSET
        }
        if not fields:
            raise ValueError("ResolverLayer.configure: no overrides given")
        self.overrides.append((binding, fields))
        return binding


class MiddleboxLayer:
    """Planted end-to-end violators, each with its ground-truth finding."""

    name = "middlebox"

    def __init__(self) -> None:
        self.plants: list[tuple[Binding, Middlebox]] = []

    def plant(
        self,
        target: Union[Selector, Binding],
        middlebox: Middlebox,
        *,
        limit: Optional[int] = None,
        fraction: Optional[float] = None,
        key: str = "",
    ) -> Binding:
        """Attach one middlebox declaration to every selected ISP."""
        binding = _as_binding(target, limit, fraction, key)
        self.plants.append((binding, middlebox))
        return binding


class NodePopulationLayer:
    """Exit-node population overrides and post-build IP churn."""

    name = "population"

    def __init__(self) -> None:
        self.populations: list[tuple[Binding, int]] = []
        self.churns: list[tuple[Optional[Binding], float]] = []

    def set_population(
        self,
        target: Union[Selector, Binding],
        population: int,
        *,
        limit: Optional[int] = None,
        fraction: Optional[float] = None,
        key: str = "",
    ) -> Binding:
        """Pin the full-scale node count of every selected ISP."""
        if population < 0:
            raise ValueError(f"population must be >= 0: {population}")
        binding = _as_binding(target, limit, fraction, key)
        self.populations.append((binding, population))
        return binding

    def set_churn(
        self,
        fraction: float,
        target: Optional[Union[Selector, Binding]] = None,
    ) -> None:
        """Rotate a fraction of (the selected ISPs') nodes onto fresh IPs.

        Churn runs *after* the world is built, in process — engine shards
        rebuild worlds from ``(config, countries)`` alone, so churned
        addresses are an in-process observation aid (zID persistence,
        §2.3), never part of the manifest or the digest.
        """
        binding = None if target is None else _as_binding(target, None, None, "")
        self.churns.append((binding, fraction))


Layer = Union[BaseLayer, ResolverLayer, MiddleboxLayer, NodePopulationLayer]
