"""Columnar, array-backed storage for the exit-node population.

The paper's platform spans >1.2M Luminati exit nodes; building a rich
Python object per node made ``scale=1.0`` worlds cost minutes of CPU and
gigabytes of heap before a single probe ran.  This module stores the whole
population as parallel columns instead:

* numeric attributes (IP, ASN, flakiness, per-node draw outcomes) live in
  :mod:`array` arrays — one machine word or less per node per column;
* repeated strings (country codes, resolver-kind labels) are interned once
  in a :class:`StringInterner` and referenced by index;
* everything shared between the nodes of one ISP (path middleboxes, the
  org id, the resolver-hijack policy) lives in one :class:`IspRecord`
  referenced by index.

zIDs are not stored at all: the zID is a pure function of the node index
(:func:`zid_of` / :func:`zid_index`), which is what makes index-backed
country pools and compact plan transport possible.

:class:`HostTable` is the lazy view over the columns: a full
:class:`~repro.hosts.ExitNodeHost` — field-for-field identical to what the
old eager builder produced — is materialized on first access and cached, so
a shard only ever pays for the nodes its plan slice actually touches.

The columns are append-only during world construction and frozen (by
convention) afterwards: workers never mutate them, which is what keeps a
shared table safe to replay per shard.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, overload

from repro.hosts import ExitNodeHost
from repro.luminati.registry import zid_of
from repro.records import slot_init

if TYPE_CHECKING:
    from repro.fabric import Internet
    from repro.faults import FaultInjector
    from repro.middlebox.dns_rewrite import TransparentDnsProxy
    from repro.middlebox.monitor import ContentMonitor
    from repro.sim.profiles import IspSpec

#: Sentinel for "no entry" in the optional per-node draw columns.
NO_ENTRY = -1

#: Hijack-vector codes stored in the ``hijack_vector`` column.
HIJACK_VECTORS: tuple[str, ...] = ("public", "resolver", "path", "host")
VEC_PUBLIC, VEC_RESOLVER, VEC_PATH, VEC_HOST = range(4)


class StringInterner:
    """A tiny string-intern table: value -> stable small integer index."""

    __slots__ = ("_values", "_index")

    def __init__(self) -> None:
        self._values: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, value: str) -> int:
        """The index of ``value``, assigning the next one on first sight."""
        index = self._index.get(value)
        if index is None:
            index = len(self._values)
            self._values.append(value)
            self._index[value] = index
        return index

    def value(self, index: int) -> str:
        """The string at an index."""
        return self._values[index]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)


@slot_init
@dataclass(frozen=True, slots=True)
class IspRecord:
    """Everything shared by all nodes of one ISP, stored once.

    ``path_http``/``path_monitors`` are the shared middlebox tuples every
    subscriber host references; ``path_proxy`` applies only to external-DNS
    subscribers (§4.3.3); ``isp_monitor`` drives the per-zID
    ``monitors_node`` ground-truth check.
    """

    spec: "IspSpec"
    org_id: str
    country_code: str
    path_proxy: Optional["TransparentDnsProxy"]
    path_http: tuple
    path_monitors: tuple
    isp_monitor: Optional["ContentMonitor"]
    #: In-path TLS interceptors (:class:`~repro.middlebox.tls_mitm.IspTlsProxy`);
    #: empty for every paper-profile ISP.
    path_tls: tuple = ()


class NodeColumns:
    """Parallel per-node columns plus the shared payload registries.

    The world builder appends one entry per column per node, in node-index
    order; ``NO_ENTRY`` marks "nothing drawn" in the optional columns.
    """

    __slots__ = (
        "ip", "asn", "country_idx", "isp_idx", "resolver_kind_idx",
        "injector_idx", "misc_idx", "mitm_idx", "monitor_idx", "dnsrw_idx",
        "hijack_vector", "flakiness", "resolvers",
        "countries", "resolver_kinds", "isp_records",
        "injectors", "miscs", "mitms", "monitors", "dnsrws",
    )

    def __init__(self) -> None:
        self.ip = array("I")
        self.asn = array("I")
        self.country_idx = array("H")
        self.isp_idx = array("I")
        self.resolver_kind_idx = array("B")
        self.injector_idx = array("h")
        self.misc_idx = array("h")
        self.mitm_idx = array("h")
        self.monitor_idx = array("h")
        self.dnsrw_idx = array("h")
        self.hijack_vector = array("b")
        #: float64 on purpose: offline draws compare ``rng.random() <
        #: flakiness`` and any narrowing would change borderline outcomes.
        self.flakiness = array("d")
        #: Per-node resolver object (resolvers are shared and few, so this
        #: is a pointer column, not an object-per-node graph).
        self.resolvers: list = []
        self.countries = StringInterner()
        self.resolver_kinds = StringInterner()
        self.isp_records: list[IspRecord] = []
        # Drawable host-software payloads, referenced by the *_idx columns.
        self.injectors: list = []
        self.miscs: list = []  # (kind, modifier) pairs
        self.mitms: list = []
        self.monitors: list = []
        self.dnsrws: list = []  # (name, rewriter) pairs

    def __len__(self) -> int:
        return len(self.ip)

    def add_isp_record(self, record: IspRecord) -> int:
        """Register one ISP's shared state; returns its column index."""
        self.isp_records.append(record)
        return len(self.isp_records) - 1

    def country_code(self, index: int) -> str:
        """The country code of the node at ``index``."""
        return self.countries.value(self.country_idx[index])

    def nbytes(self) -> int:
        """Approximate bytes held by the numeric columns (bench metric)."""
        total = 0
        for name in (
            "ip", "asn", "country_idx", "isp_idx", "resolver_kind_idx",
            "injector_idx", "misc_idx", "mitm_idx", "monitor_idx",
            "dnsrw_idx", "hijack_vector", "flakiness",
        ):
            column = getattr(self, name)
            total += len(column) * column.itemsize
        return total


class HostTable(Sequence[ExitNodeHost]):
    """Lazy, cached :class:`ExitNodeHost` views over :class:`NodeColumns`.

    Behaves like the list the eager builder used to produce (length,
    indexing, slicing, iteration), but a host object only exists once
    something touches it.  Materialization is cached, so every access to one
    index yields the *same* object — mutations (IP churn, fault wiring,
    installed software added by the §3.4 extensions) stick.
    """

    def __init__(
        self,
        columns: NodeColumns,
        internet: "Internet",
        cloudguard_injector,
        anchorfree_pops: tuple[int, ...],
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self._columns = columns
        self._internet = internet
        self._cloudguard = cloudguard_injector
        self._anchorfree_pops = anchorfree_pops
        #: The world's fault injector; applied to each host at
        #: materialization (the eager builder wired it post-build).
        self.faults = faults
        self._cache: dict[int, ExitNodeHost] = {}

    @property
    def columns(self) -> NodeColumns:
        """The backing columns (read-only by convention)."""
        return self._columns

    @property
    def materialized_count(self) -> int:
        """How many hosts have been materialized so far."""
        return len(self._cache)

    def __len__(self) -> int:
        return len(self._columns)

    @overload
    def __getitem__(self, index: int) -> ExitNodeHost: ...

    @overload
    def __getitem__(self, index: slice) -> list[ExitNodeHost]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.host(i) for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"host index out of range: {index}")
        return self.host(index)

    def host(self, index: int) -> ExitNodeHost:
        """The host at ``index``, materializing (and caching) on first use."""
        host = self._cache.get(index)
        if host is None:
            host = self._materialize(index)
            self._cache[index] = host
        return host

    def _materialize(self, index: int) -> ExitNodeHost:
        """Reconstruct exactly the host the eager builder would have made."""
        cols = self._columns
        record = cols.isp_records[cols.isp_idx[index]]
        isp = record.spec
        zid = zid_of(index)
        label = cols.resolver_kinds.value(cols.resolver_kind_idx[index])
        truth: dict = {
            "isp": isp.name,
            "org": record.org_id,
            "country": record.country_code,
            "resolver_kind": label,
        }

        host = ExitNodeHost(
            zid=zid,
            ip=cols.ip[index],
            asn=cols.asn[index],
            resolver=cols.resolvers[index],
            internet=self._internet,
        )
        external = label not in ("isp", "edge")
        if record.path_proxy is not None and external:
            host.path_dns_rewriters = (record.path_proxy,)
        host.path_http_modifiers = record.path_http
        host.path_monitors = record.path_monitors
        if record.path_tls:
            host.path_tls_interceptors = record.path_tls
            covering = tuple(
                proxy.operator
                for proxy in record.path_tls
                if proxy.applies_to(zid)
            )
            if covering:
                truth["path_tls"] = covering[0]

        # Host software, in the eager builder's append order:
        # injector, misc modifier, then Cloudguard's coupled injector.
        modifiers: list = []
        drawn = cols.injector_idx[index]
        if drawn != NO_ENTRY:
            injector = cols.injectors[drawn]
            modifiers.append(injector)
            truth["injector"] = injector.family
        drawn = cols.misc_idx[index]
        if drawn != NO_ENTRY:
            kind, modifier = cols.miscs[drawn]
            modifiers.append(modifier)
            truth["misc_modifier"] = kind
        drawn = cols.mitm_idx[index]
        if drawn != NO_ENTRY:
            mitm = cols.mitms[drawn]
            host.host_tls_interceptors = (mitm,)
            truth["mitm"] = mitm.behavior.product
            if mitm.behavior.product == "Cloudguard.me":
                modifiers.append(self._cloudguard)
        if modifiers:
            host.host_http_modifiers = tuple(modifiers)
        drawn = cols.monitor_idx[index]
        if drawn != NO_ENTRY:
            monitor = cols.monitors[drawn]
            host.host_monitors = (monitor,)
            truth["monitor"] = monitor.entity
            if monitor.entity == "AnchorFree" and self._anchorfree_pops:
                host.vpn_egress_ips = self._anchorfree_pops
        drawn = cols.dnsrw_idx[index]
        if drawn != NO_ENTRY:
            name, rewriter = cols.dnsrws[drawn]
            host.host_dns_rewriters = (rewriter,)
            truth["host_dns_rewriter"] = name

        vector = cols.hijack_vector[index]
        if vector != NO_ENTRY:
            truth["hijack_vector"] = HIJACK_VECTORS[vector]
        if record.isp_monitor is not None and record.isp_monitor.monitors_node(zid):
            truth.setdefault("monitor", isp.monitor)
        if isp.transcoder is not None:
            truth["mobile_transcoder"] = isp.name
        if isp.http_proxy_via:
            truth["http_proxy"] = isp.http_proxy_via

        host.truth = truth
        if self.faults is not None:
            host.faults = self.faults
        return host
