"""The client-facing Luminati API.

:class:`LuminatiClient` is what the measurement code programs against — the
analogue of speaking the proxy protocol to ``zproxy.luminati.org`` with
username parameters.  It exposes exactly the control surface §2.3 documents:
country selection, session pinning, remote DNS, CONNECT tunnels to port 443,
and the per-country node counts Luminati reports (used by the crawler for
proportional sampling, §3.2).
"""

from __future__ import annotations

from typing import Optional

from repro.luminati.errors import NoPeersError
from repro.luminati.headers import TimelineDebug
from repro.luminati.registry import RegisteredNode
from repro.luminati.superproxy import ProxyOptions, ProxyResult, SuperProxy
from repro.tlssim.certs import CertificateChain
from repro.tracing import Timeline


#: Approximate bytes a certificate-fetch handshake moves through the tunnel
#: (ClientHello + ServerHello + a typical chain), for the billing meter.
HANDSHAKE_BYTES = 3_500


class Tunnel:
    """An established CONNECT tunnel through one exit node.

    Luminati does not constrain what flows through the tunnel (§2.3); the
    measurement client uses it solely to run a TLS handshake and capture the
    certificate chain the exit node sees.
    """

    def __init__(
        self,
        node: RegisteredNode,
        dest_ip: int,
        port: int,
        debug: TimelineDebug,
        ledger=None,
    ) -> None:
        self._node = node
        self.dest_ip = dest_ip
        self.port = port
        self.debug = debug
        self._ledger = ledger
        self._open = True

    @property
    def zid(self) -> str:
        """The exit node's persistent identifier."""
        return self._node.zid

    @property
    def exit_ip(self) -> int:
        """The exit node's IP as reported by Luminati."""
        return self._node.host.ip

    def tls_handshake(self, server_name: str) -> CertificateChain:
        """Run a TLS ClientHello through the tunnel; returns the presented chain."""
        if not self._open:
            raise ConnectionError("tunnel is closed")
        if self._ledger is not None:
            self._ledger.record(self._node.zid, HANDSHAKE_BYTES)
        return self._node.host.tls_handshake(self.dest_ip, self.port, server_name)

    def close(self) -> None:
        """Terminate the connection (the client never requests content, §6.1)."""
        self._open = False


class LuminatiClient:
    """A paying Luminati customer's API handle."""

    def __init__(self, superproxy: SuperProxy) -> None:
        self._superproxy = superproxy

    def request(
        self,
        url: str,
        country: Optional[str] = None,
        session: Optional[str] = None,
        dns_remote: bool = False,
        timeline: Optional[Timeline] = None,
    ) -> ProxyResult:
        """Proxy ``GET url`` through an exit node.

        ``country``/``session``/``dns_remote`` correspond to the
        ``-country-XX``, ``-session-XXX`` and ``-dns-remote`` username
        parameters.
        """
        options = ProxyOptions(
            country=country.upper() if country else None,
            session=session,
            dns_remote=dns_remote,
        )
        return self._superproxy.handle_request(options, url, timeline=timeline)

    def request_as(self, username: str, url: str) -> ProxyResult:
        """Proxy a request using raw username-parameter syntax (API parity)."""
        return self._superproxy.handle_request(ProxyOptions.from_username(username), url)

    def connect(
        self,
        dest_ip: int,
        port: int = 443,
        country: Optional[str] = None,
        session: Optional[str] = None,
    ) -> Tunnel:
        """Open a CONNECT tunnel to ``dest_ip:port`` (443 only) via an exit node.

        Raises :class:`NoPeersError` when no exit node could be engaged.
        """
        options = ProxyOptions(
            country=country.upper() if country else None, session=session
        )
        node, debug = self._superproxy.open_tunnel(options, dest_ip, port)
        if node is None:
            raise NoPeersError(f"no exit node available (country={country!r})")
        return Tunnel(
            node=node, dest_ip=dest_ip, port=port, debug=debug,
            ledger=self._superproxy.ledger,
        )

    def reported_countries(self) -> dict[str, int]:
        """Per-country exit-node counts as reported by the service."""
        return self._superproxy.registry.countries()

    @property
    def ledger(self):
        """The billing/ethics traffic ledger (see §2.3 and §3.4)."""
        return self._superproxy.ledger
