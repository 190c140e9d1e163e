"""DNS message model.

Only the slice of DNS the paper exercises is modelled: A-record queries and
responses carrying either answers or an NXDOMAIN/SERVFAIL status.  Domain
names are lower-cased on construction so comparisons are case-insensitive, as
in real DNS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.records import slot_init


class RCode(enum.Enum):
    """DNS response codes used in the simulation."""

    NOERROR = 0
    SERVFAIL = 2
    NXDOMAIN = 3


def normalize_name(name: str) -> str:
    """Canonical form of a domain name: lower case, no trailing dot."""
    if name.islower() and not name.endswith("."):
        return name  # already canonical — skip the copying slow path
    return name.rstrip(".").lower()


@slot_init
@dataclass(frozen=True, slots=True)
class DnsQuery:
    """An A-record query as seen by a server: the name asked and who asked.

    ``source_ip`` is the address the query arrived from — for a query reaching
    an authoritative server through a recursive resolver this is the
    *resolver's* egress address, which is exactly the signal the paper uses to
    identify each exit node's DNS server.
    """

    qname: str
    source_ip: int
    time: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "qname", normalize_name(self.qname))


@slot_init
@dataclass(frozen=True, slots=True)
class DnsResponse:
    """An answer: response code plus zero or more A-record addresses."""

    rcode: RCode
    addresses: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rcode is RCode.NOERROR and not self.addresses:
            raise ValueError("NOERROR response must carry at least one address")
        if self.rcode is not RCode.NOERROR and self.addresses:
            raise ValueError(f"{self.rcode.name} response must not carry addresses")

    @classmethod
    def answer(cls, *addresses: int) -> "DnsResponse":
        """A NOERROR response with the given A records."""
        return cls(RCode.NOERROR, tuple(addresses))

    @classmethod
    def nxdomain(cls) -> "DnsResponse":
        """An NXDOMAIN (name does not exist) response."""
        return _NXDOMAIN

    @classmethod
    def servfail(cls) -> "DnsResponse":
        """A SERVFAIL response."""
        return _SERVFAIL

    @property
    def is_nxdomain(self) -> bool:
        """Whether this response reports that the name does not exist."""
        return self.rcode is RCode.NXDOMAIN

    @property
    def first_address(self) -> int:
        """The first A record; raises :class:`ValueError` on non-answers."""
        if not self.addresses:
            raise ValueError(f"no addresses in {self.rcode.name} response")
        return self.addresses[0]


# Error responses carry no per-query state, so the (frozen) instances are
# shared: DNS-heavy paths would otherwise build millions of identical ones.
_NXDOMAIN = DnsResponse(RCode.NXDOMAIN)
_SERVFAIL = DnsResponse(RCode.SERVFAIL)


@slot_init
@dataclass(frozen=True, slots=True)
class QueryLogEntry:
    """One line of an authoritative server's query log."""

    time: float
    qname: str
    source_ip: int
    rcode: RCode


class QueryLog:
    """Append-only query log kept by the measurement authoritative server.

    The log stores one column per :class:`QueryLogEntry` field, not one
    object per query: a crawl logs millions of queries, and an object per
    entry would leave that many live objects for the cyclic collector to
    walk.  Readers get frozen :class:`QueryLogEntry` records built when read,
    and no method rewrites or removes a stored field.  A per-name index keeps
    :meth:`for_name` O(matches): the NXDOMAIN methodology queries the log
    once per probe.
    """

    __slots__ = ("_time", "_qname", "_source_ip", "_rcode", "_by_name")

    def __init__(self) -> None:
        self._time: list[float] = []
        self._qname: list[str] = []
        self._source_ip: list[int] = []
        self._rcode: list[RCode] = []
        self._by_name: dict[str, list[int]] = {}

    def append(self, time: float, qname: str, source_ip: int, rcode: RCode) -> None:
        """Record one served query; ``qname`` is indexed as given."""
        positions = self._by_name.get(qname)
        if positions is None:
            self._by_name[qname] = [len(self._time)]
        else:
            positions.append(len(self._time))
        self._time.append(time)
        self._qname.append(qname)
        self._source_ip.append(source_ip)
        self._rcode.append(rcode)

    @property
    def entries(self) -> list[QueryLogEntry]:
        """Every logged query, in arrival order."""
        return list(map(QueryLogEntry, self._time, self._qname, self._source_ip, self._rcode))

    def for_name(self, qname: str) -> list[QueryLogEntry]:
        """All log entries whose query name matches ``qname`` exactly."""
        time, names, sources, rcodes = self._time, self._qname, self._source_ip, self._rcode
        return [
            QueryLogEntry(time[i], names[i], sources[i], rcodes[i])
            for i in self._by_name.get(normalize_name(qname), ())
        ]

    def sources_for_name(self, qname: str) -> list[int]:
        """Source IPs that asked for ``qname``, in arrival order."""
        sources = self._source_ip
        return [sources[i] for i in self._by_name.get(normalize_name(qname), ())]

    def __len__(self) -> int:
        return len(self._time)
