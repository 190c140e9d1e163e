"""Authoritative DNS serving and the domain registry.

The measurement methodology controls an authoritative server and registers
per-probe domain names under it.  Two behaviours from §4.1 are essential:

* **Source-conditional answers** — for the second probe domain *d2*, the
  server returns a valid A record only when the query's source IP is inside
  the allow-list (the super proxy's Google resolver netblock), and NXDOMAIN to
  everyone else.  This is what convinces Luminati to forward the request while
  still delivering an NXDOMAIN to the exit node's own resolver.
* **Query logging** — the server records the source IP of every query, which
  is how the methodology learns which resolver each exit node uses.

:class:`DnsRoot` is the glue between resolvers and authoritative servers: a
registry mapping registered zones to the server that answers for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.clock import SimClock
from repro.dnssim.message import DnsQuery, DnsResponse, QueryLog, RCode, normalize_name

SourcePredicate = Callable[[int], bool]


@dataclass(slots=True)
class RecordPolicy:
    """How the authoritative server answers for one name.

    ``address`` is the A record returned when the policy allows it.  When
    ``allow_source`` is set, queries from non-matching sources get NXDOMAIN —
    this implements the paper's conditional *d2* answer.  A server shares one
    policy among every name that answers alike, so nothing assigns a field
    after construction.
    """

    address: int
    allow_source: Optional[SourcePredicate] = None
    #: The NOERROR answer, built once — policies answer millions of queries.
    _answer: DnsResponse = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._answer = DnsResponse.answer(self.address)

    def answer_for(self, source_ip: int) -> DnsResponse:
        """Resolve the policy for a query from ``source_ip``."""
        if self.allow_source is not None and not self.allow_source(source_ip):
            return DnsResponse.nxdomain()
        return self._answer


class AuthoritativeServer:
    """An authoritative server for one or more zones, with a query log.

    Names can be registered exactly (``register``) or the whole zone can fall
    through to a default policy (``set_zone_default``) — the monitoring
    experiment (§7) mints thousands of unique per-node subdomains, all
    pointing at the measurement web server, without registering each one.
    Unregistered names without a default yield NXDOMAIN.
    """

    def __init__(self, zone: str, clock: SimClock) -> None:
        self.zone = normalize_name(zone)
        self._dotted = "." + self.zone
        self._clock = clock
        self._records: dict[str, RecordPolicy] = {}
        #: One :meth:`register_a` policy per ``(address, allow_source)``: the
        #: §4 experiment registers two names per probe, all answering alike.
        self._policies: dict[tuple[int, Optional[SourcePredicate]], RecordPolicy] = {}
        self._zone_default: Optional[RecordPolicy] = None
        self.log = QueryLog()

    def in_zone(self, qname: str) -> bool:
        """Whether this server is authoritative for ``qname``."""
        name = normalize_name(qname)
        return name == self.zone or name.endswith(self._dotted)

    def register(self, qname: str, policy: RecordPolicy) -> None:
        """Install an answer policy for an exact name inside the zone."""
        name = normalize_name(qname)
        if not self.in_zone(name):
            raise ValueError(f"{name} is outside zone {self.zone}")
        self._records[name] = policy

    def register_a(
        self,
        qname: str,
        address: int,
        allow_source: Optional[SourcePredicate] = None,
    ) -> None:
        """Convenience wrapper: install a (possibly conditional) A record.

        Names registered with the same ``address`` and ``allow_source`` share
        one policy (and so one NOERROR answer).
        """
        key = (address, allow_source)
        policy = self._policies.get(key)
        if policy is None:
            policy = self._policies[key] = RecordPolicy(address, allow_source)
        self.register(qname, policy)

    def set_zone_default(self, policy: RecordPolicy) -> None:
        """Answer policy applied to any in-zone name without an exact record."""
        self._zone_default = policy

    def query(self, query: DnsQuery) -> DnsResponse:
        """Answer a query, recording it in the log."""
        name = query.qname  # DnsQuery already normalized it
        if not (name == self.zone or name.endswith(self._dotted)):
            self.log.append(self._clock.now, name, query.source_ip, RCode.SERVFAIL)
            return DnsResponse.servfail()
        return self.answer(name, query.source_ip)

    def answer(self, name: str, source_ip: int) -> DnsResponse:
        """Answer for an already-normalized, in-zone name, logging the query.

        The :class:`DnsRoot` hot path: routing has already proved the name
        is in this zone, so the per-query :class:`DnsQuery` object and the
        duplicate zone check are skipped.  Log entries are identical to the
        :meth:`query` path.
        """
        policy = self._records.get(name, self._zone_default)
        if policy is None:
            response = DnsResponse.nxdomain()
        else:
            response = policy.answer_for(source_ip)
        self.log.append(self._clock.now, name, source_ip, response.rcode)
        return response


class DnsRoot:
    """Registry of authoritative servers by zone.

    Stands in for the global DNS delegation hierarchy: a resolver hands a
    query to :meth:`resolve_authoritative`, which routes it to the most
    specific registered zone.  Names under no registered zone are NXDOMAIN —
    the simulated universe only contains names someone serves.
    """

    def __init__(self) -> None:
        self._servers: dict[str, AuthoritativeServer] = {}
        #: ``(zone, "." + zone, server)`` ordered most-specific first; the
        #: zone count is tiny, so a linear suffix scan beats rebuilding every
        #: suffix of the query name (the per-query hot path).
        self._zones: list[tuple[str, str, AuthoritativeServer]] = []
        #: qname -> owning server (or ``None``), filled per lookup.  Probe
        #: names are queried a handful of times each (exit resolver, super
        #: proxy, retries), so the cache turns the repeat scans into one
        #: dict hit; cleared whenever the zone set changes.
        self._route_cache: dict[str, Optional[AuthoritativeServer]] = {}

    def register(self, server: AuthoritativeServer) -> None:
        """Register a server as authoritative for its zone."""
        if server.zone in self._servers:
            raise ValueError(f"zone {server.zone} already delegated")
        self._servers[server.zone] = server
        self._zones = sorted(
            ((zone, "." + zone, srv) for zone, srv in self._servers.items()),
            key=lambda entry: -entry[0].count("."),
        )
        self._route_cache.clear()

    def _route(self, name: str) -> Optional[AuthoritativeServer]:
        """The owning server for an already-normalized name (cached)."""
        try:
            return self._route_cache[name]
        except KeyError:
            pass
        found = None
        for zone, dotted, server in self._zones:
            if name == zone or name.endswith(dotted):
                found = server
                break
        self._route_cache[name] = found
        return found

    def authoritative_for(self, qname: str) -> Optional[AuthoritativeServer]:
        """The server for the most specific zone containing ``qname``, or ``None``."""
        return self._route(normalize_name(qname))

    def resolve_authoritative(self, qname: str, source_ip: int, now: float) -> DnsResponse:
        """Route a query to the owning authoritative server (NXDOMAIN if none).

        ``now`` is accepted for signature stability; log entries are clocked
        on the owning server's own clock, exactly as :meth:`AuthoritativeServer.query`
        does.
        """
        name = normalize_name(qname)
        server = self._route(name)
        if server is None:
            return DnsResponse.nxdomain()
        return server.answer(name, source_ip)
