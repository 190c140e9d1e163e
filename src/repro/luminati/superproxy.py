"""The Luminati super proxy.

All client traffic enters here (§2.3): the super proxy resolves the target
domain through Google's DNS (the pre-check the NXDOMAIN methodology must
defeat), selects an exit node honouring the ``-country``/``-session``
username parameters, forwards the request, retries through up to five nodes
on failure, and returns the response together with the
``X-Hola-Timeline-Debug`` header.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.dnssim.message import RCode
from repro.dnssim.resolver import GooglePublicDns
from repro.fabric import Internet, UnreachableError
from repro.faults import KIND_TIMEOUT, FaultError, FaultInjector, response_truncated
from repro.hosts import HostDnsError
from repro.luminati.billing import TrafficLedger
from repro.luminati.errors import BadRequestError, TunnelPortError
from repro.luminati.headers import HEADER_NAME, AttemptRecord, TimelineDebug
from repro.luminati.registry import ExitNodeRegistry, RegisteredNode
from repro.luminati.session import SessionTable
from repro.net.ip import IpError, ip_to_str, str_to_ip
from repro.records import slot_init
from repro.tracing import Timeline

#: §2.3: Luminati retries failed requests with up to five exit nodes total.
MAX_ATTEMPTS = 5

# Error identifiers surfaced in ProxyResult.error.
ERROR_SUPERPROXY_DNS = "superproxy_dns_failure"
ERROR_EXIT_DNS_NXDOMAIN = "exit_dns_nxdomain"
ERROR_NO_PEERS = "no_peers"
ERROR_SUPERPROXY_502 = "superproxy_502"


@slot_init
@dataclass(frozen=True, slots=True)
class ProxyOptions:
    """Per-request controls expressed via Luminati username parameters."""

    country: Optional[str] = None
    session: Optional[str] = None
    dns_remote: bool = False

    @classmethod
    def from_username(cls, username: str) -> "ProxyOptions":
        """Parse ``lum-customer-X[-country-xx][-session-N][-dns-remote]``."""
        tokens = username.split("-")
        country: Optional[str] = None
        session: Optional[str] = None
        dns_remote = False
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token == "country" and index + 1 < len(tokens):
                country = tokens[index + 1].upper()
                index += 2
            elif token == "session" and index + 1 < len(tokens):
                session = tokens[index + 1]
                index += 2
            elif token == "dns" and index + 1 < len(tokens) and tokens[index + 1] == "remote":
                dns_remote = True
                index += 2
            else:
                index += 1
        return cls(country=country, session=session, dns_remote=dns_remote)


@slot_init
@dataclass(frozen=True, slots=True)
class ProxyResult:
    """What a Luminati client gets back for one proxied request."""

    status: Optional[int]
    body: bytes
    error: Optional[str]
    debug: Optional[TimelineDebug]
    headers: tuple[tuple[str, str], ...] = ()

    @property
    def success(self) -> bool:
        """Whether the request produced an HTTP response through an exit node."""
        return self.error is None and self.status is not None

    @property
    def is_nxdomain(self) -> bool:
        """Whether the exit node's own resolution said the name does not exist."""
        return self.error == ERROR_EXIT_DNS_NXDOMAIN

    @property
    def truncated(self) -> bool:
        """Whether the body fell short of its advertised ``Content-Length``.

        A truncated transfer is a *transport* failure: analyses must treat it
        as invalid input, never as evidence of content modification (§5).
        """
        return self.success and response_truncated(self.body, self.header("Content-Length"))

    def header(self, name: str) -> Optional[str]:
        """Case-insensitive response-header lookup."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None


def split_http_url(url: str) -> tuple[str, str]:
    """Split ``http://host/path`` into (host, path); rejects non-http schemes."""
    prefix = "http://"
    if not url.startswith(prefix):
        raise BadRequestError(f"only http:// URLs may be proxied, got {url!r}")
    rest = url[len(prefix):]
    host, slash, path = rest.partition("/")
    if not host:
        raise BadRequestError(f"URL has no host: {url!r}")
    return host.lower(), "/" + path if slash else "/"


class SuperProxy:
    """zproxy.luminati.org, simulated."""

    def __init__(
        self,
        ip: int,
        internet: Internet,
        registry: ExitNodeRegistry,
        google: GooglePublicDns,
        seed: int = 0,
        pacing_seconds: float = 0.05,
        faults: Optional[FaultInjector] = None,
        attempt_timeout_seconds: float = 0.0,
    ) -> None:
        self.ip = ip
        self._internet = internet
        self._registry = registry
        self._google = google
        self._rng = random.Random(f"superproxy:{seed}")
        self._sessions = SessionTable(internet.clock)
        self.pacing_seconds = pacing_seconds
        self.requests_served = 0
        #: Per-GB billing meter and §3.4 ethics ledger.
        self.ledger = TrafficLedger()
        #: Fault plane (``None`` when the world runs the zero-fault profile).
        self._faults = faults
        #: Per-attempt simulated-time budget; 0.0 disables the check.  A
        #: forward whose simulated duration exceeds the budget is discarded
        #: and recorded as a ``timeout`` attempt — the paper's per-request
        #: timeout defense against wedged nodes.
        self.attempt_timeout_seconds = attempt_timeout_seconds
        # Rendered exit-IP strings for debug headers, keyed by the address
        # value (an IP that churns simply gets a new entry).
        self._ip_strings: dict[int, str] = {}
        # First-attempt-success debug payloads by zid.  TimelineDebug is
        # frozen, so the (debug, header) pair for the overwhelmingly common
        # "one attempt, ok" outcome is a pure function of (zid, exit IP); the
        # entry carries the IP it was rendered for so address churn
        # invalidates it naturally.
        self._ok_debug: dict[str, tuple[int, TimelineDebug, tuple[str, str]]] = {}
        # url -> (host, path); probe URLs repeat across objects and retries,
        # and splitting is pure.  Only valid splits are cached.
        self._url_parts: dict[str, tuple[str, str]] = {}

    @property
    def registry(self) -> ExitNodeRegistry:
        """The exit-node pool this super proxy selects from."""
        return self._registry

    def pin_session(self, session: str, zid: str) -> None:
        """Bind a session to a specific exit node ahead of any request.

        The real service only pins a session to whatever node it happened to
        select first; the execution engine replays a precomputed iteration
        plan, so it pins each planned node explicitly and then speaks the
        ordinary session-pinned request path.  The binding is subject to the
        normal session-window expiry and offline-drop behaviour — a pinned
        node that churns away still produces a failover, which is exactly the
        retry signal the engine consumes.
        """
        if self._registry.by_zid(zid) is None:
            raise LookupError(f"cannot pin session to unknown zid {zid!r}")
        self._sessions.bind(session, zid)
        obs = self._internet.obs
        if obs.enabled:
            obs.event("session.pin", actor="superproxy", target=zid, detail=session)

    # -- helpers ------------------------------------------------------------

    def _advance_time(self) -> None:
        """Each request takes a little wall-clock time; monitors may fire."""
        if self.pacing_seconds > 0:
            self._internet.advance(self.pacing_seconds)

    #: How much less likely a session-pinned node is to be offline than a
    #: cold pick — it was serving this very session moments ago.
    PINNED_FLAKINESS_DAMPEN = 0.1

    def _select_node(
        self,
        options: ProxyOptions,
        exclude_zids: set[str],
    ) -> tuple[Optional[RegisteredNode], bool]:
        """Pick a node honouring session pinning, skipping excluded zIDs.

        Returns ``(node, pinned)``; ``pinned`` is True when the node came
        from an existing session binding.
        """
        if options.session is not None:
            pinned = self._sessions.lookup(options.session)
            if pinned is not None and pinned not in exclude_zids:
                node = self._registry.by_zid(pinned)
                if node is not None:
                    self._sessions.touch(options.session)
                    return node, True
        for _ in range(8):  # bounded re-draws around excluded nodes
            try:
                node = self._registry.pick(self._rng, options.country)
            except LookupError:
                return None, False
            if node.zid not in exclude_zids:
                if options.session is not None:
                    self._sessions.bind(options.session, node.zid)
                    obs = self._internet.obs
                    if obs.enabled:
                        obs.event(
                            "session.bind", actor="superproxy",
                            target=node.zid, detail=options.session,
                        )
                return node, False
        return None, False

    def _drop_session(self, options: ProxyOptions) -> None:
        """Drop a failed node's session binding (and record the drop)."""
        if options.session is None:
            return
        self._sessions.drop(options.session)
        obs = self._internet.obs
        if obs.enabled:
            obs.event("session.drop", actor="superproxy", detail=options.session)

    def _debug(self, node: Optional[RegisteredNode], attempts: list[AttemptRecord]) -> TimelineDebug:
        if node is None:
            return TimelineDebug(zid="none", exit_ip="", attempts=tuple(attempts))
        ip = node.host.ip
        exit_ip = self._ip_strings.get(ip)
        if exit_ip is None:
            exit_ip = self._ip_strings[ip] = ip_to_str(ip)
        return TimelineDebug(zid=node.zid, exit_ip=exit_ip, attempts=tuple(attempts))

    # -- HTTP proxying --------------------------------------------------------

    def handle_request(
        self,
        options: ProxyOptions,
        url: str,
        timeline: Optional[Timeline] = None,
    ) -> ProxyResult:
        """Proxy one HTTP request through an exit node (Figure 1's timeline)."""
        obs = self._internet.obs
        if not obs.enabled:
            return self._handle_request(options, url, timeline)
        with obs.span("proxy.request", actor="superproxy", detail=url):
            result = self._handle_request(options, url, timeline)
            obs.event(
                "proxy.result",
                actor="superproxy",
                detail=result.error or "ok",
                attrs={"status": result.status if result.status is not None else 0},
            )
        return result

    def _note_attempt(self, attempts: list[AttemptRecord], zid: str, outcome: str) -> None:
        """Record one failover attempt (and publish it on the event bus)."""
        attempts.append(AttemptRecord(zid=zid, outcome=outcome))
        obs = self._internet.obs
        if obs.enabled:
            obs.event("proxy.attempt", actor="superproxy", target=zid, detail=outcome)

    def _handle_request(
        self,
        options: ProxyOptions,
        url: str,
        timeline: Optional[Timeline] = None,
    ) -> ProxyResult:
        obs = self._internet.obs
        traced = timeline is not None
        self._advance_time()
        self.requests_served += 1
        parts = self._url_parts.get(url)
        if parts is None:
            parts = self._url_parts[url] = split_http_url(url)
        host, path = parts
        if traced:
            timeline.add("client", "proxy request", "super proxy", url)

        if self._faults is not None and self._faults.superproxy_error(self.requests_served):
            if traced:
                timeline.add("super proxy", "502 Bad Gateway", "client")
            if obs.enabled:
                obs.event(
                    "proxy.502", actor="superproxy", detail=url,
                    attrs={"request": self.requests_served},
                )
            return ProxyResult(status=None, body=b"", error=ERROR_SUPERPROXY_502, debug=None)

        # DNS pre-check / default resolution at the super proxy via Google.
        # (Cheap shape test first: raising IpError on every domain-name URL
        # costs more than the whole DNS dispatch on the hot path.)
        resolved_ip: Optional[int] = None
        literal = host.count(".") == 3 and host.replace(".", "").isdigit()
        if literal:
            try:
                resolved_ip = str_to_ip(host)
            except IpError:
                literal = False
        if not literal:
            if traced:
                timeline.add("super proxy", "DNS request via Google", "authoritative DNS", host)
            answer = self._google.resolve_for_superproxy(host, self.ip)
            if obs.enabled:
                obs.event(
                    "dns.google_precheck", actor="superproxy", target=host,
                    attrs={"rcode": answer.rcode.name},
                )
            if answer.is_nxdomain or not answer.addresses:
                if traced:
                    timeline.add("super proxy", "DNS failure, request rejected", "client")
                return ProxyResult(
                    status=None, body=b"", error=ERROR_SUPERPROXY_DNS, debug=None
                )
            resolved_ip = answer.first_address

        attempts: list[AttemptRecord] = []
        tried: set[str] = set()
        node: Optional[RegisteredNode] = None
        for _attempt in range(MAX_ATTEMPTS):
            node, pinned = self._select_node(options, tried)
            if node is None:
                break
            tried.add(node.zid)
            dampen = self.PINNED_FLAKINESS_DAMPEN if pinned else 1.0
            if self._registry.is_offline(node, self._rng, dampen=dampen):
                self._note_attempt(attempts, node.zid, "offline")
                self._drop_session(options)
                node = None
                continue
            if self._faults is not None and self._faults.offline_window(
                node.zid, self._internet.clock.now
            ):
                self._note_attempt(attempts, node.zid, "offline")
                self._drop_session(options)
                node = None
                continue
            if traced:
                timeline.add("super proxy", "forward request", "exit node", node.zid)
            started = self._internet.clock.now
            try:
                if options.dns_remote:
                    if traced:
                        timeline.add("exit node", "DNS request", "exit node resolver", host)
                    response = node.host.fetch_http(host, path)
                else:
                    response = node.host.fetch_http(host, path, dest_ip=resolved_ip)
            except HostDnsError as exc:
                if exc.response.rcode is RCode.SERVFAIL:
                    # A broken resolver, not an authoritative answer about the
                    # name: refuse this node and fail over to the next peer.
                    self._note_attempt(attempts, node.zid, "refused")
                    if traced:
                        timeline.add("exit node", "SERVFAIL from resolver", "super proxy")
                    self._drop_session(options)
                    node = None
                    continue
                # The exit node's own resolver says the name does not exist.
                # This is an authoritative answer about the *name*, not a node
                # failure, so Luminati reports it rather than retrying.
                self._note_attempt(attempts, node.zid, "dns_nxdomain")
                if traced:
                    timeline.add("exit node", "NXDOMAIN from resolver", "super proxy")
                    timeline.add("super proxy", "error response", "client")
                return ProxyResult(
                    status=None,
                    body=b"",
                    error=ERROR_EXIT_DNS_NXDOMAIN,
                    debug=self._debug(node, attempts),
                )
            except FaultError as exc:
                self._note_attempt(attempts, node.zid, exc.kind)
                if traced:
                    timeline.add("exit node", f"fault: {exc.kind}", "super proxy")
                self._drop_session(options)
                node = None
                continue
            except UnreachableError:
                self._note_attempt(attempts, node.zid, "connect_failed")
                node = None
                continue
            if (
                self.attempt_timeout_seconds > 0.0
                and self._internet.clock.now - started > self.attempt_timeout_seconds
            ):
                # The transfer outlived its simulated-time budget: discard the
                # late response and fail over, exactly as the measurement
                # client's per-request timeout would.
                self._note_attempt(attempts, node.zid, KIND_TIMEOUT)
                if traced:
                    timeline.add("exit node", "response past deadline", "super proxy")
                self._drop_session(options)
                node = None
                continue
            zid = node.zid
            if attempts:
                self._note_attempt(attempts, zid, "ok")
                debug = self._debug(node, attempts)
                header = (HEADER_NAME, debug.serialize())
            else:
                # First attempt succeeded — reuse the node's cached debug
                # payload instead of re-serializing it.
                cached = self._ok_debug.get(zid)
                if cached is None or cached[0] != node.host.ip:
                    self._note_attempt(attempts, zid, "ok")
                    debug = self._debug(node, attempts)
                    cached = self._ok_debug[zid] = (
                        node.host.ip,
                        debug,
                        (HEADER_NAME, debug.serialize()),
                    )
                elif obs.enabled:
                    obs.event("proxy.attempt", actor="superproxy", target=zid, detail="ok")
                _ip, debug, header = cached
            self.ledger.record(zid, len(response.body))
            if traced:
                timeline.add("exit node", "fetch content", "web server", url)
                timeline.add("exit node", "return response", "super proxy")
                timeline.add("super proxy", "return response", "client")
            headers = response.headers + (header,)
            return ProxyResult(
                status=response.status,
                body=response.body,
                error=None,
                debug=debug,
                headers=headers,
            )

        return ProxyResult(
            status=None,
            body=b"",
            error=ERROR_NO_PEERS,
            debug=self._debug(None, attempts) if attempts else None,
        )

    # -- CONNECT tunnels ------------------------------------------------------

    def open_tunnel(
        self,
        options: ProxyOptions,
        dest_ip: int,
        port: int,
    ) -> tuple[Optional[RegisteredNode], TimelineDebug]:
        """Establish a CONNECT tunnel via an exit node (port 443 only).

        Returns ``(node, debug)``; ``node`` is ``None`` when no peer could be
        found (the debug trail still records the attempts).
        """
        if port != 443:
            raise TunnelPortError(f"CONNECT is only allowed to port 443, not {port}")
        obs = self._internet.obs
        with obs.span("proxy.tunnel", actor="superproxy", attrs={"port": port}):
            self._advance_time()
            self.requests_served += 1
            attempts: list[AttemptRecord] = []
            tried: set[str] = set()
            for _attempt in range(MAX_ATTEMPTS):
                node, pinned = self._select_node(options, tried)
                if node is None:
                    break
                tried.add(node.zid)
                dampen = self.PINNED_FLAKINESS_DAMPEN if pinned else 1.0
                if self._registry.is_offline(node, self._rng, dampen=dampen):
                    self._note_attempt(attempts, node.zid, "offline")
                    self._drop_session(options)
                    continue
                if self._faults is not None and self._faults.offline_window(
                    node.zid, self._internet.clock.now
                ):
                    self._note_attempt(attempts, node.zid, "offline")
                    self._drop_session(options)
                    continue
                self._note_attempt(attempts, node.zid, "ok")
                return node, self._debug(node, attempts)
            return None, self._debug(None, attempts)
