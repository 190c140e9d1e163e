"""The column-stored evidence logs against the object-per-entry logs.

:class:`~repro.dnssim.message.QueryLog` and :class:`~repro.web.http.AccessLog`
keep one column per entry field.  ``ListQueryLog`` and ``ListAccessLog``
below are the logs they replaced, which kept a list of frozen entries; they
are the oracle, so every reader must return what they return, in the same
order and with the same lookup normalisation.  The bound test checks what
the columns are for: logging a query or a request leaves no live object
per entry for the cyclic collector to walk.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Iterator

from hypothesis import given, strategies as st

from repro.dnssim.authoritative import AuthoritativeServer
from repro.dnssim.message import QueryLog, QueryLogEntry, RCode, normalize_name
from repro.net.clock import SimClock
from repro.web.http import AccessLog, AccessLogEntry, HttpRequest
from repro.web.server import MeasurementWebServer


@dataclass(slots=True)
class ListQueryLog:
    """The query log as a list of entries, with a per-name index."""

    entries: list[QueryLogEntry] = field(default_factory=list)
    _by_name: dict[str, list[int]] = field(default_factory=dict)

    def append(self, entry: QueryLogEntry) -> None:
        self._by_name.setdefault(entry.qname, []).append(len(self.entries))
        self.entries.append(entry)

    def for_name(self, qname: str) -> list[QueryLogEntry]:
        indexes = self._by_name.get(normalize_name(qname), ())
        return [self.entries[i] for i in indexes]

    def sources_for_name(self, qname: str) -> list[int]:
        return [entry.source_ip for entry in self.for_name(qname)]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(slots=True)
class ListAccessLog:
    """The access log as a list of entries, with a per-host index."""

    entries: list[AccessLogEntry] = field(default_factory=list)
    _by_host: dict[str, list[int]] = field(default_factory=dict)

    def append(self, entry: AccessLogEntry) -> None:
        self._by_host.setdefault(entry.host, []).append(len(self.entries))
        self.entries.append(entry)

    def for_host(self, host: str) -> list[AccessLogEntry]:
        indexes = self._by_host.get(host.rstrip(".").lower(), ())
        return [self.entries[i] for i in indexes]

    def hosts(self) -> Iterator[str]:
        return iter(self._by_host)

    def __len__(self) -> int:
        return len(self.entries)


#: Stored names; the upper-case one is stored as given, so no lookup finds it.
NAMES = ("a.example", "b.example", "x.a.example", "C.example")


def lookups() -> Iterator[str]:
    """Every stored name as asked for in several spellings, plus a miss."""
    for name in NAMES:
        yield from (name, name.upper(), name + ".", name.upper() + ".")
    yield "missing.example"


times = st.floats(allow_nan=False)
addresses = st.integers(min_value=0, max_value=2**32 - 1)

query_entries = st.lists(
    st.builds(
        QueryLogEntry,
        time=times,
        qname=st.sampled_from(NAMES),
        source_ip=addresses,
        rcode=st.sampled_from(RCode),
    ),
    max_size=40,
)

access_entries = st.lists(
    st.builds(
        AccessLogEntry,
        time=times,
        source_ip=addresses,
        host=st.sampled_from(NAMES),
        path=st.sampled_from(("/", "/objects/page.html")),
        user_agent=st.text(max_size=4),
        status=st.sampled_from((200, 404)),
    ),
    max_size=40,
)


@given(query_entries)
def test_query_log_reads_like_the_list_log(entries):
    log, reference = QueryLog(), ListQueryLog()
    for entry in entries:
        log.append(entry.time, entry.qname, entry.source_ip, entry.rcode)
        reference.append(entry)
    assert len(log) == len(reference)
    assert log.entries == reference.entries
    for name in lookups():
        assert log.for_name(name) == reference.for_name(name)
        assert log.sources_for_name(name) == reference.sources_for_name(name)


@given(access_entries)
def test_access_log_reads_like_the_list_log(entries):
    log, reference = AccessLog(), ListAccessLog()
    for entry in entries:
        log.append(
            entry.time, entry.source_ip, entry.host, entry.path, entry.user_agent, entry.status
        )
        reference.append(entry)
    assert len(log) == len(reference)
    assert log.entries == reference.entries
    assert list(log.hosts()) == list(reference.hosts())
    for name in lookups():
        assert log.for_host(name) == reference.for_host(name)


def test_logging_leaves_no_object_per_entry():
    clock = SimClock()
    auth = AuthoritativeServer("zone.example", clock)
    web = MeasurementWebServer(1, clock)
    names = [f"n{index}.zone.example" for index in range(10)]
    for name in names:
        auth.register_a(name, 42)
    requests = [
        HttpRequest(host=names[k % 10], path="/", source_ip=k, time=float(k)) for k in range(5000)
    ]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for k in range(5000):
            auth.answer(names[k % 10], k)
        for request in requests:
            web.handle_http(request)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert (len(auth.log), len(web.log)) == (5000, 5000)
    # One index list per name and log; an object per entry would add 10,000.
    assert added <= 40, f"10,000 log entries left {added} new tracked objects"
