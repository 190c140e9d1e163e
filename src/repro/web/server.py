"""Web servers in the simulated Internet.

:class:`MeasurementWebServer` is *our* server: it serves the ground-truth
content corpus and a default page for the per-probe unique domains, and its
access log is the raw material for the DNS (exit-node IP discovery) and
monitoring (unexpected re-fetch) analyses.

:class:`HijackPageServer` and :class:`BlockPageServer` are the *other side*:
the ad/search pages NXDOMAIN hijackers redirect victims to, and the "blocked"
or "bandwidth exceeded" interstitials that §5.2 filters out of the HTML
modification counts.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.net.clock import SimClock
from repro.web.content import CONTENT_TYPES, ContentCorpus
from repro.web.http import AccessLog, HttpRequest, HttpResponse
from repro.dnssim.hijack import HijackPolicy, render_hijack_page


class HttpHandler(Protocol):
    """Anything reachable over plain HTTP in the simulated Internet."""

    def handle_http(self, request: HttpRequest) -> HttpResponse:
        """Serve one request."""
        ...


class MeasurementWebServer:
    """The experimenters' web server.

    Serves:

    * the content corpus objects at their well-known paths, for any host;
    * a small default page for every other path — this is what the unique
      per-probe domains (``<token>.probe.tft-example.net``) return.

    Every request is appended to :attr:`log` with its arrival time and source
    IP; that log is read (never written) by the analysis pipeline.
    """

    DEFAULT_PAGE = (
        b"<!DOCTYPE html><html><head><title>tft probe</title></head>"
        b"<body><p>measurement probe page</p></body></html>"
    )

    #: Path of the cache-busting resource: every request gets a fresh body,
    #: so receiving a repeated body reveals an in-path shared cache.
    DYNAMIC_PATH = "/objects/dynamic.txt"

    def __init__(self, ip: int, clock: SimClock, corpus: Optional[ContentCorpus] = None) -> None:
        self.ip = ip
        self._clock = clock
        self.corpus = corpus
        self.log = AccessLog()
        self._dynamic_counter = 0
        # Corpus responses are identical for every request and HttpResponse
        # is frozen, so one shared instance per object serves the whole run.
        self._corpus_responses = (
            {
                corpus.path(kind): HttpResponse.ok(corpus.body(kind), CONTENT_TYPES[kind])
                for kind in corpus.PATHS
            }
            if corpus is not None
            else {}
        )
        # The default page is what every unique per-probe domain returns —
        # the single hottest response — and it is identical every time.
        self._default_response = HttpResponse.ok(self.DEFAULT_PAGE)

    def handle_http(self, request: HttpRequest) -> HttpResponse:
        """Serve a request and record it."""
        response = self._route(request)
        self.log.append(
            request.time,
            request.source_ip,
            request.host,
            request.path,
            request.user_agent,
            response.status,
        )
        return response

    def _route(self, request: HttpRequest) -> HttpResponse:
        response = self._corpus_responses.get(request.path)
        if response is not None:
            return response
        if request.path == self.DYNAMIC_PATH:
            self._dynamic_counter += 1
            token = f"dynamic-token-{self._dynamic_counter:09d}" + "x" * 1100
            return HttpResponse.ok(token.encode("ascii"), "text/plain")
        if request.path == "/":
            return self._default_response
        return HttpResponse.not_found(f"no such path {request.path}")


class HijackPageServer:
    """The landing server an NXDOMAIN hijacker redirects victims to.

    Serves the operator's "search assistance" page for *any* host and path —
    hijackers answer for whatever mistyped domain the victim asked about.
    """

    def __init__(self, ip: int, policy: HijackPolicy) -> None:
        self.ip = ip
        self.policy = policy

    def handle_http(self, request: HttpRequest) -> HttpResponse:
        """Serve the hijack landing page for the (nonexistent) queried name."""
        return HttpResponse.ok(render_hijack_page(self.policy, request.host))


class BlockPageServer:
    """Serves content-policy interstitials ("blocked", "bandwidth exceeded").

    §5.2 found 32 exit nodes whose "modified" HTML was actually one of these
    pages; the analysis filters them by the marker phrases, so the simulated
    pages carry the same phrases.
    """

    BLOCKED = (
        b"<!DOCTYPE html><html><body><h1>Access blocked</h1>"
        b"<p>This page has been blocked by your network administrator.</p>"
        b"</body></html>"
    )
    BANDWIDTH_EXCEEDED = (
        b"<!DOCTYPE html><html><body><h1>Bandwidth exceeded</h1>"
        b"<p>Your data allowance has been exhausted.</p></body></html>"
    )

    def __init__(self, ip: int, kind: str = "blocked") -> None:
        if kind not in ("blocked", "bandwidth"):
            raise ValueError(f"unknown block page kind {kind!r}")
        self.ip = ip
        self.kind = kind

    @property
    def page(self) -> bytes:
        """The interstitial body this server returns."""
        return self.BLOCKED if self.kind == "blocked" else self.BANDWIDTH_EXCEEDED

    def handle_http(self, request: HttpRequest) -> HttpResponse:
        """Serve the interstitial regardless of host/path."""
        return HttpResponse.ok(self.page)


def is_block_page(body: bytes) -> bool:
    """The §5.2 filter: does a returned page look like a policy interstitial?"""
    lowered = body.lower()
    return b"blocked" in lowered or b"bandwidth exceeded" in lowered
