"""The content-monitoring methodology (paper §7.1, Figure 4).

Each measured exit node fetches a *unique* domain that resolves to our web
server.  Exactly one request should therefore arrive for that domain; any
additional requests — typically from different IP addresses, minutes to
hours later — reveal that something recorded the URL and re-fetched it.  The
measurement server is watched for 24 hours after the probes.

Detection and attribution both live on timestamps and source addresses in
the access log: the node's own request is identified by the exit-node IP
Luminati reported (falling back to the earliest request when a VPN hides
it), and every other request for the domain is an unexpected one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.core.crawler import CrawlController
from repro.core.experiments.dataset import Dataset
from repro.core.validity import classify_result
from repro.net.ip import str_to_ip
from repro.sim.world import PROBE_ZONE, World
from repro.tracing import Timeline

#: §7.1: the server is monitored for up to 24 hours after the request.
WATCH_WINDOW_SECONDS = 24 * 3600.0


@dataclass(frozen=True, slots=True)
class UnexpectedRequest:
    """One unexpected request for a probe domain."""

    source_ip: int
    time: float
    delay: float  # relative to the node's own request (may be negative)
    user_agent: str
    asn: Optional[int]


@dataclass(frozen=True, slots=True)
class MonitorProbeRecord:
    """One measured exit node and everything its probe domain received."""

    zid: str
    reported_ip: int
    asn: Optional[int]
    country: Optional[str]
    domain: str
    node_request_time: float
    node_request_ip: int
    unexpected: tuple[UnexpectedRequest, ...]

    @property
    def monitored(self) -> bool:
        """Whether any unexpected request arrived."""
        return bool(self.unexpected)

    @property
    def vpn_detected(self) -> bool:
        """Whether the node's own request came from an address other than
        the one Luminati reported (the AnchorFree pattern, §7.2.1)."""
        return self.node_request_ip != self.reported_ip


@dataclass
class MonitoringDataset(Dataset[MonitorProbeRecord]):
    """Everything the §7 analysis consumes."""

    @property
    def monitored_count(self) -> int:
        """Nodes whose probe produced unexpected requests."""
        return sum(1 for record in self.records if record.monitored)


class MonitoringExperiment:
    """Runs the §7 methodology against a world."""

    def __init__(self, world: World, seed: int = 74, max_probes: Optional[int] = None) -> None:
        self.world = world
        self.controller = CrawlController(world.client, seed=seed, max_probes=max_probes)
        #: Taxonomy kind of the most recent failed probe (validity pipeline
        #: diagnostics); ``None`` after a success.
        self.last_failure_kind: Optional[str] = None
        self._probe_counter = itertools.count(1)
        # Instance-unique domain tag (see DnsHijackExperiment.__init__).
        self._tag = f"x{seed}"
        #: zid -> (domain, reported_ip, country); resolved into records after
        #: the 24-hour watch window.
        self._pending: dict[str, tuple[str, int]] = {}

    def probe_once(
        self,
        country: str,
        session: str,
        skip_zids: Optional[set[str]] = None,
        timeline: Optional[Timeline] = None,
        only_zid: Optional[str] = None,
    ) -> Optional[str]:
        """Issue one unique-domain probe; log analysis happens later.

        ``only_zid`` restricts recording to one expected node: a session
        failover onto any other node returns that node's zID without adding
        it to the pending set (plan-driven execution owns exactly its
        planned nodes and must not measure a neighbour shard's).
        """
        self.last_failure_kind = None
        domain = f"m-{self._tag}-{next(self._probe_counter)}.{PROBE_ZONE}"
        if timeline is not None:
            timeline.add("client", "request unique domain", "super proxy", domain)
        result = self.world.client.request(
            f"http://{domain}/", country=country, session=session, timeline=timeline
        )
        if not result.success or result.debug is None:
            self.last_failure_kind = classify_result(result)
            return None
        zid = result.debug.zid
        if skip_zids is not None and zid in skip_zids:
            return zid
        if only_zid is not None and zid != only_zid:
            return zid
        if timeline is not None:
            timeline.add("exit node", "fetch content", "measurement server", domain)
            timeline.add("monitoring entity", "observes request", "", domain)
        self._pending[zid] = (domain, str_to_ip(result.debug.exit_ip))
        return zid

    def _resolve_record(self, zid: str, domain: str, reported_ip: int) -> MonitorProbeRecord:
        """Classify every logged request for one probe domain (§7.1)."""
        world = self.world
        entries = world.web_server.log.for_host(domain)
        node_entry = None
        for entry in entries:
            if entry.source_ip == reported_ip:
                node_entry = entry
                break
        if node_entry is None and entries:
            # VPN-tunnelled nodes: the node's own request carries the VPN
            # egress address; take the earliest request as the node's.
            node_entry = min(entries, key=lambda e: e.time)

        unexpected: list[UnexpectedRequest] = []
        node_time = node_entry.time if node_entry is not None else 0.0
        node_ip = node_entry.source_ip if node_entry is not None else 0
        for entry in entries:
            if entry is node_entry:
                continue
            if entry.time - node_time > WATCH_WINDOW_SECONDS:
                continue  # outside the 24-hour watch window
            unexpected.append(
                UnexpectedRequest(
                    source_ip=entry.source_ip,
                    time=entry.time,
                    delay=entry.time - node_time,
                    user_agent=entry.user_agent,
                    asn=world.routeviews.ip_to_asn(entry.source_ip),
                )
            )

        asn = world.routeviews.ip_to_asn(reported_ip)
        return MonitorProbeRecord(
            zid=zid,
            reported_ip=reported_ip,
            asn=asn,
            country=world.orgmap.asn_to_country(asn) if asn is not None else None,
            domain=domain,
            node_request_time=node_time,
            node_request_ip=node_ip,
            unexpected=tuple(unexpected),
        )

    def resolve_pending(self) -> list[MonitorProbeRecord]:
        """Wait out the 24-hour window, then classify every probe's log.

        Separated from :meth:`run` so plan-driven execution (the engine) can
        issue its own probes via :meth:`probe_once` and still share one
        implementation of the watch-window/log-resolution step.
        """
        # Let the last probes' 24-hour windows elapse so every scheduled
        # re-fetch lands in the log.
        self.world.internet.advance(WATCH_WINDOW_SECONDS + 1.0)
        return [
            self._resolve_record(zid, domain, reported_ip)
            for zid, (domain, reported_ip) in self._pending.items()
        ]

    def run(self) -> MonitoringDataset:
        """Probe, wait out the 24-hour window, then analyse the access log."""
        dataset = MonitoringDataset()
        controller = self.controller
        while not controller.should_stop:
            country = controller.next_country()
            session = controller.next_session()
            zid = self.probe_once(country, session, skip_zids=controller.stats.seen_zids)
            controller.record_probe(zid)

        dataset.records.extend(self.resolve_pending())
        dataset.probes = controller.stats.probes
        return dataset

    def trace_single_probe(self) -> Timeline:
        """Capture the Figure 4 timeline for one probe."""
        timeline = Timeline(title="Figure 4: content-monitoring measurement via Luminati")
        country = self.controller.next_country()
        session = self.controller.next_session()
        self.probe_once(country, session, timeline=timeline)
        self.world.internet.advance(WATCH_WINDOW_SECONDS + 1.0)
        timeline.add("monitoring entity", "re-fetches content", "measurement server")
        return timeline
