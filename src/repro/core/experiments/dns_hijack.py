"""The NXDOMAIN hijacking methodology (paper §4.1, Figure 2).

For each exit node, two fresh domains *d1* and *d2* under our authoritative
zone are prepared:

1. *d1* always resolves to our web server.  *d2* resolves **only** for
   queries arriving from the super proxy's Google resolver netblock
   (74.125.0.0/16); everyone else gets NXDOMAIN.  This convinces Luminati's
   super-proxy pre-check to forward the request while guaranteeing the exit
   node's own resolver sees a (hijackable) NXDOMAIN.
2. Fetching ``http://d1`` with ``-dns-remote`` reveals, via our server logs,
   the exit node's IP (HTTP access log) and its resolver's egress IP (DNS
   query log).  Nodes whose resolver egress lies inside the whitelisted
   Google netblock cannot be measured and are filtered (footnote 8).
3. Fetching ``http://d2`` through the *same* session then either surfaces an
   NXDOMAIN error in the Luminati log (no hijacking) or returns the hijack
   landing page, which is recorded for attribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.core.crawler import CrawlController
from repro.core.experiments.dataset import Dataset
from repro.core.validity import classify_result
from repro.dnssim.resolver import GooglePublicDns
from repro.sim.world import DNS_TEST_ZONE, World
from repro.tracing import Timeline


@dataclass(frozen=True, slots=True)
class DnsProbeRecord:
    """One measured exit node."""

    zid: str
    exit_ip: int
    asn: Optional[int]
    country: Optional[str]
    dns_server_ip: int
    dns_server_asn: Optional[int]
    hijacked: bool
    page: bytes = b""


@dataclass
class DnsDataset(Dataset[DnsProbeRecord]):
    """Everything the §4 analysis consumes."""

    filtered_google_overlap: int = 0
    unique_dns_servers: int = 0

    @property
    def hijacked_count(self) -> int:
        """Nodes whose NXDOMAIN answer was rewritten."""
        return sum(1 for record in self.records if record.hijacked)


class DnsHijackExperiment:
    """Runs the §4 methodology against a world."""

    def __init__(self, world: World, seed: int = 41, max_probes: Optional[int] = None) -> None:
        self.world = world
        self.controller = CrawlController(world.client, seed=seed, max_probes=max_probes)
        #: Taxonomy kind of the most recent failed measurement (validity
        #: pipeline diagnostics); ``None`` after a success.
        self.last_failure_kind: Optional[str] = None
        self._probe_counter = itertools.count(1)
        # Probe names embed the instance seed: two experiments sharing a
        # world must never mint the same domain, or their authoritative-log
        # entries would cross-contaminate.
        self._tag = f"x{seed}"

    # -- probe domain setup ------------------------------------------------------

    def _prepare_domains(self) -> tuple[str, str]:
        """Mint and register the d1/d2 pair for one probe (§4.1 step 1)."""
        probe_id = next(self._probe_counter)
        d1 = f"d1-{self._tag}-{probe_id}.{DNS_TEST_ZONE}"
        d2 = f"d2-{self._tag}-{probe_id}.{DNS_TEST_ZONE}"
        auth = self.world.auth_dns
        auth.register_a(d1, self.world.measurement_server_ip)
        auth.register_a(
            d2,
            self.world.measurement_server_ip,
            allow_source=GooglePublicDns.is_superproxy_egress,
        )
        return d1, d2

    # -- single-node measurement ---------------------------------------------------

    def measure_once(
        self,
        country: str,
        session: str,
        timeline: Optional[Timeline] = None,
        skip_zids: Optional[set[str]] = None,
    ) -> tuple[Optional[str], Optional[DnsProbeRecord], bool]:
        """Measure one exit node.

        Returns ``(zid, record, filtered)``: ``zid`` is ``None`` when no node
        answered; ``record`` is ``None`` for repeats (zIDs in ``skip_zids``,
        whose second phase is skipped to save exit-node bandwidth), failed
        second phases, or filtered nodes; ``filtered`` flags the footnote-8
        Google-overlap case.
        """
        world = self.world
        self.last_failure_kind = None
        d1, d2 = self._prepare_domains()

        result1 = world.client.request(
            f"http://{d1}/", country=country, session=session,
            dns_remote=True, timeline=timeline,
        )
        if not result1.success or result1.debug is None:
            self.last_failure_kind = classify_result(result1)
            return None, None, False
        zid = result1.debug.zid
        if skip_zids is not None and zid in skip_zids:
            return zid, None, False

        # Exit-node IP: the source of the HTTP request for d1 at our server.
        http_entries = world.web_server.log.for_host(d1)
        if not http_entries:
            return zid, None, False
        exit_ip = http_entries[0].source_ip

        # Resolver egress IP: the non-whitelisted source of the DNS queries
        # for d1.  The super proxy's own pre-check arrives from the
        # whitelisted Google netblock and is skipped.
        dns_server_ip: Optional[int] = None
        for entry in world.auth_dns.log.for_name(d1):
            if not GooglePublicDns.is_superproxy_egress(entry.source_ip):
                dns_server_ip = entry.source_ip
        if dns_server_ip is None:
            # The node resolves through the same anycast instances the super
            # proxy uses — the d2 trick cannot work here (footnote 8).
            return zid, None, True

        result2 = world.client.request(
            f"http://{d2}/", country=country, session=session,
            dns_remote=True, timeline=timeline,
        )
        if result2.debug is None or result2.debug.zid != zid:
            # Session failover to a different node: discard the measurement.
            self.last_failure_kind = "stale"
            return zid, None, False
        if result2.is_nxdomain:
            hijacked, page = False, b""
        elif result2.success:
            if result2.truncated:
                # A partial hijack landing page cannot be attributed; the
                # measurement is invalid, not evidence either way.
                self.last_failure_kind = "truncated"
                return zid, None, False
            hijacked, page = True, result2.body
        else:
            self.last_failure_kind = classify_result(result2)
            return zid, None, False

        asn = world.routeviews.ip_to_asn(exit_ip)
        return zid, DnsProbeRecord(
            zid=zid,
            exit_ip=exit_ip,
            asn=asn,
            country=world.orgmap.asn_to_country(asn) if asn is not None else None,
            dns_server_ip=dns_server_ip,
            dns_server_asn=world.routeviews.ip_to_asn(dns_server_ip),
            hijacked=hijacked,
            page=page,
        ), False

    # -- full crawl ------------------------------------------------------------

    def run(self) -> DnsDataset:
        """Crawl exit nodes until the stopping rule fires; return the dataset."""
        dataset = DnsDataset()
        controller = self.controller
        while not controller.should_stop:
            country = controller.next_country()
            session = controller.next_session()
            zid, record, filtered = self.measure_once(
                country, session, skip_zids=controller.stats.seen_zids
            )
            controller.record_probe(zid)
            if filtered:
                dataset.filtered_google_overlap += 1
            if record is not None:
                dataset.records.append(record)
        dataset.probes = controller.stats.probes
        dataset.unique_dns_servers = len({r.dns_server_ip for r in dataset.records})
        return dataset

    def trace_single_probe(self) -> Timeline:
        """Capture the Figure 2 timeline for one probe."""
        timeline = Timeline(
            title="Figure 2: NXDOMAIN hijacking measurement via Luminati"
        )
        country = self.controller.next_country()
        session = self.controller.next_session()
        self.measure_once(country, session, timeline=timeline)
        return timeline
