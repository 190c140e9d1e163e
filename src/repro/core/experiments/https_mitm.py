"""The SSL certificate-replacement methodology (paper §6.1, Figure 3).

Through CONNECT tunnels (port 443) the measurement client performs its own
TLS handshakes via each exit node and records the presented chains, for
three classes of sites:

1. **Popular sites** — the top HTTPS sites from the node's country's Alexa
   ranking (which is why the experiment covers only the countries with
   usable rankings);
2. **International sites** — ten U.S. university sites;
3. **Invalid sites** — three sites under our control with deliberately
   broken certificates (self-signed, expired, wrong common name).

The scan is two-phase: an initial probe of one random site per class; if any
check fails — chain validation for classes 1-2, exact match against the
deployed certificate for class 3 — the full 33-site battery runs through the
same node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.crawler import CrawlController
from repro.core.experiments.dataset import Dataset
from repro.faults import FaultError
from repro.luminati.errors import NoPeersError
from repro.sim.world import SiteRecord, World
from repro.tlssim.certs import CertificateChain
from repro.tlssim.validation import validate_chain
from repro.tracing import Timeline

SITE_CLASS_POPULAR = "popular"
SITE_CLASS_UNIVERSITY = "university"
SITE_CLASS_INVALID = "invalid"


@dataclass(frozen=True, slots=True)
class SiteResult:
    """One handshake through one node: what was presented and the verdict."""

    domain: str
    site_class: str
    replaced: bool
    issuer_cn: str
    leaf_key_id: str
    chain_valid: bool
    origin_invalid_kind: str = ""


@dataclass(frozen=True, slots=True)
class HttpsProbeRecord:
    """One measured exit node: initial probe plus (if triggered) full scan."""

    zid: str
    exit_ip: int
    asn: Optional[int]
    country: Optional[str]
    sites: tuple[SiteResult, ...]
    full_scan: bool

    @property
    def any_replaced(self) -> bool:
        """Whether at least one site's certificate was replaced."""
        return any(site.replaced for site in self.sites)

    def replaced_sites(self) -> list[SiteResult]:
        """All sites with replaced certificates."""
        return [site for site in self.sites if site.replaced]


@dataclass
class HttpsDataset(Dataset[HttpsProbeRecord]):
    """Everything the §6 analysis consumes."""

    @property
    def replaced_count(self) -> int:
        """Nodes that saw at least one replaced certificate."""
        return sum(1 for record in self.records if record.any_replaced)


class HttpsMitmExperiment:
    """Runs the §6 methodology against a world."""

    def __init__(self, world: World, seed: int = 63, max_probes: Optional[int] = None) -> None:
        self.world = world
        # §6.2: limited to countries with Alexa rankings.
        self.controller = CrawlController(
            world.client,
            seed=seed,
            country_filter=sorted(world.popular_sites),
            max_probes=max_probes,
        )
        #: Taxonomy kind of the most recent failed measurement (validity
        #: pipeline diagnostics); ``None`` after a success.
        self.last_failure_kind: Optional[str] = None
        # Known-chain fingerprints by domain: a site's origin chain never
        # changes during a run, so hash it once instead of per handshake.
        self._known_chain_fp: dict[str, str] = {}

    # -- single handshake ----------------------------------------------------------

    def _handshake(
        self,
        site: SiteRecord,
        site_class: str,
        country: str,
        session: str,
        expect_zid: Optional[str],
        timeline: Optional[Timeline] = None,
    ) -> tuple[Optional[str], Optional[int], Optional[SiteResult]]:
        """One CONNECT + handshake.  Returns (zid, exit_ip, result)."""
        world = self.world
        try:
            tunnel = world.client.connect(site.ip, 443, country=country, session=session)
        except NoPeersError:
            self.last_failure_kind = "stale"
            return None, None, None
        if expect_zid is not None and tunnel.zid != expect_zid:
            self.last_failure_kind = "stale"
            return tunnel.zid, tunnel.exit_ip, None
        if timeline is not None:
            timeline.add("client", "CONNECT tunnel via exit node", "target server", site.domain)
        try:
            chain: CertificateChain = tunnel.tls_handshake(site.domain)
        except FaultError as exc:
            # The injected handshake failure (truncation, reset) ends this
            # node's measurement; the engine retries through a fresh session.
            self.last_failure_kind = exc.kind
            tunnel.close()
            return tunnel.zid, tunnel.exit_ip, None
        if timeline is not None:
            timeline.add("exit node", "fetch certificate", "target server", site.domain)
        tunnel.close()

        validation = validate_chain(
            chain, site.domain, world.root_store, world.internet.clock.now
        )
        if site_class == SITE_CLASS_INVALID:
            assert site.known_chain is not None
            if chain is site.known_chain:
                replaced = False  # un-intercepted handshakes hand back the origin chain
            else:
                known_fp = self._known_chain_fp.get(site.domain)
                if known_fp is None:
                    known_fp = site.known_chain.fingerprint()
                    self._known_chain_fp[site.domain] = known_fp
                replaced = chain.fingerprint() != known_fp
        else:
            replaced = not validation.valid
        leaf = chain.leaf
        return tunnel.zid, tunnel.exit_ip, SiteResult(
            domain=site.domain,
            site_class=site_class,
            replaced=replaced,
            issuer_cn=leaf.issuer_cn,
            leaf_key_id=leaf.public_key_id,
            chain_valid=validation.valid,
            origin_invalid_kind=site.invalid_kind,
        )

    # -- single-node measurement ------------------------------------------------------

    def measure_once(
        self,
        country: str,
        session: str,
        skip_zids: Optional[set[str]] = None,
        timeline: Optional[Timeline] = None,
    ) -> tuple[Optional[str], Optional[HttpsProbeRecord]]:
        """The two-phase scan of one exit node (Figure 3)."""
        world = self.world
        self.last_failure_kind = None
        rng = self.controller.rng
        popular = world.popular_sites[country]

        initial_sites = [
            (popular[rng.randrange(len(popular))], SITE_CLASS_POPULAR),
            (
                world.university_sites[rng.randrange(len(world.university_sites))],
                SITE_CLASS_UNIVERSITY,
            ),
            (
                world.invalid_sites[rng.randrange(len(world.invalid_sites))],
                SITE_CLASS_INVALID,
            ),
        ]

        zid: Optional[str] = None
        exit_ip: Optional[int] = None
        results: list[SiteResult] = []
        for site, site_class in initial_sites:
            got_zid, got_ip, result = self._handshake(
                site, site_class, country, session, zid, timeline
            )
            if got_zid is None or result is None:
                return got_zid, None  # no peers, or session failover
            zid, exit_ip = got_zid, got_ip
            if skip_zids is not None and zid in skip_zids:
                return zid, None
            results.append(result)

        full_scan = any(result.replaced for result in results)
        if full_scan:
            if timeline is not None:
                timeline.add("client", "initial check failed; full 33-site scan", "exit node")
            results = []
            battery = (
                [(site, SITE_CLASS_POPULAR) for site in popular]
                + [(site, SITE_CLASS_UNIVERSITY) for site in world.university_sites]
                + [(site, SITE_CLASS_INVALID) for site in world.invalid_sites]
            )
            for site, site_class in battery:
                got_zid, _got_ip, result = self._handshake(
                    site, site_class, country, session, zid, timeline
                )
                if result is None:
                    return zid, None  # node churned away mid-scan
                results.append(result)

        asn = world.routeviews.ip_to_asn(exit_ip) if exit_ip is not None else None
        return zid, HttpsProbeRecord(
            zid=zid,
            exit_ip=exit_ip if exit_ip is not None else 0,
            asn=asn,
            country=world.orgmap.asn_to_country(asn) if asn is not None else None,
            sites=tuple(results),
            full_scan=full_scan,
        )

    # -- full crawl --------------------------------------------------------------------

    def run(self) -> HttpsDataset:
        """Crawl until the stopping rule fires; return the dataset."""
        dataset = HttpsDataset()
        controller = self.controller
        while not controller.should_stop:
            country = controller.next_country()
            session = controller.next_session()
            zid, record = self.measure_once(
                country, session, skip_zids=controller.stats.seen_zids
            )
            controller.record_probe(zid)
            if record is not None:
                dataset.records.append(record)
        dataset.probes = controller.stats.probes
        return dataset

    def trace_single_probe(self) -> Timeline:
        """Capture the Figure 3 timeline for one probe."""
        timeline = Timeline(title="Figure 3: two-phase certificate scan via Luminati")
        country = self.controller.next_country()
        session = self.controller.next_session()
        self.measure_once(country, session, timeline=timeline)
        return timeline
