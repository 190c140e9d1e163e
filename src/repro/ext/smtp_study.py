"""The STARTTLS-stripping study — the paper's §3.4 future work, realized.

Methodology (a direct transplant of the paper's style):

1. deploy an SMTP server we control, whose capability list is ground truth
   (it always offers STARTTLS and we know its certificate chain exactly);
2. open raw TCP tunnels through exit nodes to it and run EHLO + STARTTLS;
3. a node whose dialogue lacks the STARTTLS capability — or whose upgrade
   yields a different certificate — sits behind an in-path violator;
4. group victims by AS: a stripping box is an ISP deployment when its
   victims concentrate in one organization's ASes.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.ext.arbitrary_vpn import ArbitraryVpnService
from repro.luminati.errors import NoPeersError
from repro.net.orgmap import AsOrgMap
from repro.records import slot_init
from repro.sim.world import World
from repro.smtpsim.session import SmtpServer
from repro.smtpsim.stripper import StartTlsStripper
from repro.tlssim.certs import CertificateChain, self_signed_certificate


def deploy_smtp_measurement_server(world: World) -> SmtpServer:
    """Stand up our mail server next to the measurement web server."""
    research_asn = world.routeviews.ip_to_asn(world.measurement_server_ip)
    if research_asn is None or research_asn not in world.as_allocators:
        raise RuntimeError("cannot find the research AS to host the SMTP server")
    ip = world.as_allocators[research_asn].allocate_address()
    chain = CertificateChain((self_signed_certificate("mail.tft-example.net"),))
    server = SmtpServer(ip=ip, hostname="mail.tft-example.net", tls_chain=chain)
    world.internet.register_smtp_server(ip, server)
    return server


def plant_striptls_boxes(
    world: World, operators: dict[str, float], seed: int = 0
) -> int:
    """Attach STARTTLS strippers to the hosts of the named ISPs.

    ``operators`` maps ISP names (as they appear in the org map) to strip
    rates.  Returns the number of hosts whose port-25 path now crosses a
    box.  Ground truth lands in ``host.truth['striptls']`` for tests.
    """
    strippers = {
        name: StartTlsStripper(operator=name, strip_rate=rate)
        for name, rate in operators.items()
    }
    planted = 0
    for host in world.hosts:
        stripper = strippers.get(host.truth.get("isp", ""))
        if stripper is None:
            continue
        host.path_smtp_strippers += (stripper,)
        if stripper.applies_to(host.zid):
            host.truth["striptls"] = stripper.operator
            planted += 1
    return planted


@slot_init
@dataclass(frozen=True, slots=True)
class StartTlsProbeRecord:
    """One measured exit node's SMTP view of our server."""

    zid: str
    exit_ip: int
    asn: Optional[int]
    country: Optional[str]
    starttls_offered: bool
    starttls_accepted: bool
    chain_replaced: bool


@dataclass
class StartTlsDataset:
    """Everything the STARTTLS analysis consumes."""

    records: list[StartTlsProbeRecord] = field(default_factory=list)
    probes: int = 0

    @property
    def node_count(self) -> int:
        """Measured exit nodes."""
        return len(self.records)

    @property
    def stripped_count(self) -> int:
        """Nodes that did not see STARTTLS offered (our server always offers)."""
        return sum(1 for record in self.records if not record.starttls_offered)


class StartTlsExperiment:
    """Crawl exit nodes over the arbitrary-traffic VPN and probe SMTP."""

    def __init__(
        self,
        world: World,
        server: SmtpServer,
        seed: int = 85,
        max_probes: Optional[int] = None,
    ) -> None:
        self.world = world
        self.server = server
        self.vpn = ArbitraryVpnService(world.registry, seed=seed)
        self._rng = random.Random(f"striptls:{seed}")
        self._max_probes = max_probes
        reported = self.vpn.reported_countries()
        self._countries: list[str] = []
        self._cumweights: list[int] = []
        total = 0
        for country, count in reported.items():
            if count > 0:
                total += count
                self._countries.append(country)
                self._cumweights.append(total)

    def _next_country(self) -> str:
        total = self._cumweights[-1]
        index = bisect.bisect_right(self._cumweights, self._rng.randrange(total))
        return self._countries[index]

    def run(self) -> StartTlsDataset:
        """Crawl until the new-node rate collapses; return the dataset."""
        dataset = StartTlsDataset()
        seen: set[str] = set()
        window: list[int] = []
        probes = 0
        while True:
            if self._max_probes is not None and probes >= self._max_probes:
                break
            if len(window) >= 400 and sum(window[-400:]) / 400 < 0.12:
                break
            probes += 1
            try:
                tunnel = self.vpn.open_raw_tunnel(
                    self.server.ip, 25, country=self._next_country()
                )
            except NoPeersError:
                window.append(0)
                continue
            if tunnel.zid in seen:
                window.append(0)
                tunnel.close()
                continue
            seen.add(tunnel.zid)
            window.append(1)
            dialogue = tunnel.smtp_probe(try_starttls=True)
            tunnel.close()
            replaced = (
                dialogue.starttls_accepted
                and dialogue.tls_chain is not None
                and self.server.tls_chain is not None
                and dialogue.tls_chain.fingerprint() != self.server.tls_chain.fingerprint()
            )
            asn = self.world.routeviews.ip_to_asn(tunnel.exit_ip)
            dataset.records.append(
                StartTlsProbeRecord(
                    zid=tunnel.zid,
                    exit_ip=tunnel.exit_ip,
                    asn=asn,
                    country=(
                        self.world.orgmap.asn_to_country(asn) if asn is not None else None
                    ),
                    starttls_offered=dialogue.starttls_offered,
                    starttls_accepted=dialogue.starttls_accepted,
                    chain_replaced=replaced,
                )
            )
        dataset.probes = probes
        return dataset


@slot_init
@dataclass(frozen=True, slots=True)
class StripTlsRow:
    """One analysis row: an AS and its stripped fraction."""

    asn: int
    isp: str
    country: str
    stripped: int
    total: int

    @property
    def ratio(self) -> float:
        """Fraction of the AS's measured nodes with STARTTLS stripped."""
        return self.stripped / self.total if self.total else 0.0


def table_striptls_by_as(
    dataset: StartTlsDataset, orgmap: AsOrgMap, min_nodes: int = 10
) -> list[StripTlsRow]:
    """Per-AS stripping table (the extension's Table-7-style output)."""
    totals: Counter = Counter()
    stripped: Counter = Counter()
    for record in dataset.records:
        if record.asn is None:
            continue
        totals[record.asn] += 1
        if not record.starttls_offered:
            stripped[record.asn] += 1
    rows: list[StripTlsRow] = []
    for asn, total in totals.items():
        if total < min_nodes or stripped[asn] == 0:
            continue
        org = orgmap.asn_to_org(asn)
        rows.append(
            StripTlsRow(
                asn=asn,
                isp=org.name if org is not None else "(unknown)",
                country=org.country if org is not None else "",
                stripped=stripped[asn],
                total=total,
            )
        )
    rows.sort(key=lambda row: -row.ratio)
    return rows
