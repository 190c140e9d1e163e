"""Recursive resolvers: ISP resolvers, public services, and hijackers.

An exit node is configured with exactly one recursive resolver (the paper
identifies it from the source IP of queries arriving at the measurement
authoritative server).  Resolvers differ along the axes the paper's
attribution cares about:

* **Ownership** — an ISP resolver serves only that ISP's customers; a public
  service (Google, OpenDNS, Comodo, Level 3...) serves clients from many
  countries.  Attribution infers this from the query log, never from ground
  truth.
* **Hijacking** — a resolver may carry a :class:`~repro.dnssim.hijack.HijackPolicy`
  that rewrites NXDOMAIN answers (Table 4's ISP resolvers, §4.3.2's public
  hijackers).
* **Egress addressing** — anycast services answer authoritative queries from
  a pool of egress addresses; Google's case matters because the super proxy's
  own resolution uses a specific Google netblock (74.125.0.0/16) that the
  methodology must whitelist.
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence

from repro.net.clock import SimClock
from repro.net.ip import Prefix
from repro.dnssim.authoritative import DnsRoot
from repro.dnssim.hijack import HijackPolicy
from repro.dnssim.message import DnsResponse, normalize_name


def _stable_hash(*parts: object) -> int:
    """Deterministic 32-bit hash used for reproducible per-query decisions."""
    payload = "\x1f".join(map(str, parts)).encode("utf-8")
    return zlib.crc32(payload)


def _hash_prefix(*parts: object) -> int:
    """CRC state after hashing ``parts`` as a :func:`_stable_hash` prefix.

    CRC-32 streams, so ``_stable_hash(a, b, c)`` equals
    ``zlib.crc32(str(c).encode(), _hash_prefix(a, b))`` — hot per-query call
    sites precompute the constant prefix once.
    """
    payload = ("\x1f".join(map(str, parts)) + "\x1f").encode("utf-8")
    return zlib.crc32(payload)


class RecursiveResolver:
    """A recursive DNS resolver with optional NXDOMAIN hijacking.

    Parameters
    ----------
    service_ip:
        The address clients configure (and that the world's routing tables
        attribute to the operator's AS).
    root:
        The delegation registry queries are forwarded through.
    hijack:
        If set, NXDOMAIN answers are rewritten per the policy.
    hijack_rate:
        Fraction of NXDOMAIN answers actually rewritten.  Decisions are
        deterministic per (resolver, query name) so repeated measurements of
        the same probe agree.
    egress_ips:
        Addresses used as the query source towards authoritative servers.
        Defaults to ``[service_ip]``; anycast services supply a pool and pick
        per-client.
    answers_direct_probes:
        Whether the resolver responds to researchers probing it directly
        (§4.3.2 found two hijacking "public" servers that refuse direct
        queries).
    """

    # Constant per-resolver hash prefixes (see _hash_prefix): these
    # decisions run once per query, millions of times per study.  Each is
    # computed only where its decision is a draw — a pool of egress
    # addresses, a hijack rate below 1 — since most of the thousand-odd
    # resolvers a world builds have neither.
    _egress_prefix: int
    _hijack_prefix: int

    def __init__(
        self,
        service_ip: int,
        root: DnsRoot,
        clock: SimClock,
        hijack: Optional[HijackPolicy] = None,
        hijack_rate: float = 1.0,
        egress_ips: Optional[Sequence[int]] = None,
        answers_direct_probes: bool = True,
    ) -> None:
        if not 0.0 <= hijack_rate <= 1.0:
            raise ValueError(f"hijack_rate out of range: {hijack_rate}")
        self.service_ip = service_ip
        self._root = root
        self._clock = clock
        self.hijack = hijack
        self.hijack_rate = hijack_rate
        self._egress_ips: tuple[int, ...] = (
            tuple(egress_ips) if egress_ips else (service_ip,)
        )
        self.answers_direct_probes = answers_direct_probes
        if len(self._egress_ips) > 1:
            self._egress_prefix = _hash_prefix("egress", service_ip)
        if hijack is not None and hijack_rate < 1.0:
            self._hijack_prefix = _hash_prefix("hijack", service_ip)

    def egress_for(self, client_ip: int) -> int:
        """The egress address used for a given client's queries (stable per client)."""
        if len(self._egress_ips) == 1:
            return self._egress_ips[0]
        index = zlib.crc32(str(client_ip).encode("utf-8"), self._egress_prefix) % len(
            self._egress_ips
        )
        return self._egress_ips[index]

    def _should_hijack(self, qname: str) -> bool:
        if self.hijack is None:
            return False
        if self.hijack_rate >= 1.0:
            return True
        draw = zlib.crc32(qname.encode("utf-8"), self._hijack_prefix) % 10_000
        return draw < self.hijack_rate * 10_000

    def resolve(self, qname: str, client_ip: int) -> DnsResponse:
        """Resolve a name on behalf of a client, applying any hijack policy."""
        name = normalize_name(qname)
        egress = self.egress_for(client_ip)
        response = self._root.resolve_authoritative(name, egress, self._clock.now)
        if response.is_nxdomain and self._should_hijack(name):
            return self.hijack.apply(response)
        return response

    def direct_probe(self, qname: str, prober_ip: int) -> Optional[DnsResponse]:
        """A researcher querying the resolver directly (used in §4.3.2).

        Returns ``None`` when the resolver does not answer outside clients.
        """
        if not self.answers_direct_probes:
            return None
        return self.resolve(qname, prober_ip)


class GooglePublicDns(RecursiveResolver):
    """Google's 8.8.8.8 anycast service.

    Two properties matter for the methodology:

    * The **super proxy** resolves through a Google instance whose egress
      lies in 74.125.0.0/16 — the netblock the authoritative server must
      whitelist for the conditional *d2* answer (§4.1 step 1).
    * **Exit nodes** configured with 8.8.8.8 usually reach *other* egress
      blocks, so their *d2* queries correctly receive NXDOMAIN and the node
      stays measurable; nodes unlucky enough to share the whitelisted
      netblock are filtered out (footnote 8).

    Google never hijacks (§4.3.3 relies on this).
    """

    SERVICE_ADDRESS = "8.8.8.8"
    SUPERPROXY_EGRESS_PREFIX = Prefix.from_str("74.125.0.0/16")
    #: Published Google netblocks; attribution uses these to recognise
    #: "this node uses Google DNS" from the authoritative query log.
    PUBLISHED_PREFIXES = (
        Prefix.from_str("74.125.0.0/16"),
        Prefix.from_str("173.194.0.0/16"),
        Prefix.from_str("172.217.32.0/20"),
    )

    def __init__(
        self,
        root: DnsRoot,
        clock: SimClock,
        egress_ips: Sequence[int],
        superproxy_egress_ips: Sequence[int],
    ) -> None:
        from repro.net.ip import str_to_ip

        super().__init__(
            service_ip=str_to_ip(self.SERVICE_ADDRESS),
            root=root,
            clock=clock,
            hijack=None,
            egress_ips=egress_ips,
        )
        for ip in superproxy_egress_ips:
            if not self.SUPERPROXY_EGRESS_PREFIX.contains(ip):
                raise ValueError(
                    "super-proxy Google egress must be inside "
                    f"{self.SUPERPROXY_EGRESS_PREFIX}"
                )
        self._superproxy_egress: tuple[int, ...] = tuple(superproxy_egress_ips)
        self._spx_prefixes: dict[int, int] = {}

    @classmethod
    def is_google_egress(cls, ip: int) -> bool:
        """Whether ``ip`` falls in a published Google netblock."""
        return any(prefix.contains(ip) for prefix in cls.PUBLISHED_PREFIXES)

    @classmethod
    def is_superproxy_egress(cls, ip: int) -> bool:
        """Whether ``ip`` is inside the netblock the super proxy resolves from."""
        return cls.SUPERPROXY_EGRESS_PREFIX.contains(ip)

    def resolve_for_superproxy(self, qname: str, superproxy_ip: int) -> DnsResponse:
        """Resolution performed on behalf of Luminati's super proxy.

        Egress is pinned to the 74.125.0.0/16 instance pool, matching the
        empirically-determined behaviour in §4.1.
        """
        name = normalize_name(qname)
        prefix = self._spx_prefixes.get(superproxy_ip)
        if prefix is None:
            prefix = self._spx_prefixes[superproxy_ip] = _hash_prefix("spx", superproxy_ip)
        index = zlib.crc32(name.encode("utf-8"), prefix) % len(self._superproxy_egress)
        egress = self._superproxy_egress[index]
        return self._root.resolve_authoritative(name, egress, self._clock.now)
