"""HTTP message model and access logging.

Requests carry the fields the paper's analysis reads: the source IP seen by
the server (exit node, VPN egress, or monitor), the ``Host`` header (unique
per-probe domains are the correlation key across experiments), the
``User-Agent`` (one of the clues used to identify monitoring entities in
§7.2), and a timestamp (Figure 5's delay CDFs are differences of log
timestamps).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.records import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class HttpRequest:
    """A plain-HTTP request as observed on the wire."""

    host: str
    path: str
    source_ip: int
    time: float
    method: str = "GET"
    user_agent: str = "tft-measurement/1.0"
    headers: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "host", self.host.rstrip(".").lower())
        if not self.path.startswith("/"):
            raise ValueError(f"path must start with '/': {self.path!r}")

    @property
    def url(self) -> str:
        """The full ``http://`` URL of the request."""
        return f"http://{self.host}{self.path}"

    def header(self, name: str) -> Optional[str]:
        """Case-insensitive header lookup."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    def with_source(self, source_ip: int, time: Optional[float] = None) -> "HttpRequest":
        """A copy of this request as re-issued from another address (monitors)."""
        return replace(
            self, source_ip=source_ip, time=self.time if time is None else time
        )


@slot_init
@dataclass(frozen=True, slots=True)
class HttpResponse:
    """An HTTP response: status line, headers, body bytes."""

    status: int
    body: bytes
    reason: str = ""
    headers: tuple[tuple[str, str], ...] = ()

    @classmethod
    def ok(cls, body: bytes, content_type: str = "text/html") -> "HttpResponse":
        """A 200 response with the given body."""
        return cls(
            status=200,
            body=body,
            reason="OK",
            headers=(("Content-Type", content_type),),
        )

    @classmethod
    def not_found(cls, detail: str = "not found") -> "HttpResponse":
        """A 404 response."""
        return cls(status=404, body=detail.encode("ascii"), reason="Not Found")

    def header(self, name: str) -> Optional[str]:
        """Case-insensitive header lookup."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    def with_body(self, body: bytes) -> "HttpResponse":
        """A copy of this response with a different body (used by injectors)."""
        return replace(self, body=body)

    def with_header(self, name: str, value: str) -> "HttpResponse":
        """A copy with one header appended."""
        return replace(self, headers=self.headers + ((name, value),))

    @property
    def is_success(self) -> bool:
        """Whether the status code is 2xx."""
        return 200 <= self.status < 300


@slot_init
@dataclass(frozen=True, slots=True)
class AccessLogEntry:
    """One served request, as recorded by the measurement web server."""

    time: float
    source_ip: int
    host: str
    path: str
    user_agent: str
    status: int


class AccessLog:
    """Append-only access log with the lookups the analysis pipeline needs.

    The content-monitoring detector asks, per unique probe domain: which
    requests arrived, from which IPs, at which times?  A per-host index keeps
    that query O(matches) even with millions of entries.  As in
    :class:`~repro.dnssim.message.QueryLog`, each :class:`AccessLogEntry`
    field is one column, readers get frozen entries built when read, and no
    method rewrites or removes a stored field.
    """

    __slots__ = ("_time", "_source_ip", "_host", "_path", "_user_agent", "_status", "_by_host")

    def __init__(self) -> None:
        self._time: list[float] = []
        self._source_ip: list[int] = []
        self._host: list[str] = []
        self._path: list[str] = []
        self._user_agent: list[str] = []
        self._status: list[int] = []
        self._by_host: dict[str, list[int]] = {}

    def append(
        self, time: float, source_ip: int, host: str, path: str, user_agent: str, status: int
    ) -> None:
        """Record one served request; ``host`` is indexed as given."""
        positions = self._by_host.get(host)
        if positions is None:
            self._by_host[host] = [len(self._time)]
        else:
            positions.append(len(self._time))
        self._time.append(time)
        self._source_ip.append(source_ip)
        self._host.append(host)
        self._path.append(path)
        self._user_agent.append(user_agent)
        self._status.append(status)

    def _columns(self) -> tuple[list, ...]:
        return (self._time, self._source_ip, self._host, self._path, self._user_agent, self._status)

    @property
    def entries(self) -> list[AccessLogEntry]:
        """Every served request, in arrival order."""
        return list(map(AccessLogEntry, *self._columns()))

    def for_host(self, host: str) -> list[AccessLogEntry]:
        """All requests for one ``Host`` value, in arrival order."""
        time, sources, hosts, paths, agents, statuses = self._columns()
        return [
            AccessLogEntry(time[i], sources[i], hosts[i], paths[i], agents[i], statuses[i])
            for i in self._by_host.get(host.rstrip(".").lower(), ())
        ]

    def hosts(self) -> Iterator[str]:
        """Every distinct ``Host`` value seen."""
        return iter(self._by_host)

    def __len__(self) -> int:
        return len(self._time)
