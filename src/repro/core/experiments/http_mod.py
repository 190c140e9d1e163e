"""The HTTP content-modification methodology (paper §5.1).

Four ground-truth objects — a 9 KB HTML page, a 39 KB JPEG, a 258 KB
un-minified JavaScript library, and a 3 KB un-minified CSS file — are fetched
through each measured exit node and byte-compared against what we served.

Bandwidth economics shape the sampling: "We first measure three exit nodes in
the same AS.  If we detect that at least one exit node in an AS experiences
content modification, we then return to that AS to measure more exit nodes"
— reproduced here with a per-AS revisit cap.  A node's AS is only learnable
*after* routing a request through it (Luminati cannot target ASes), so every
probe fetches the cheap HTML object first and continues with the remaining
objects only when its AS still needs samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.core.crawler import CrawlController
from repro.core.experiments.dataset import Dataset
from repro.core.validity import classify_result
from repro.middlebox.http_proxy import proxy_via_token
from repro.net.ip import str_to_ip
from repro.records import slot_init
from repro.sim.world import PROBE_ZONE, World
from repro.web.content import ObjectKind
from repro.web.server import MeasurementWebServer

#: §5.1's three-nodes-per-AS initial sample.
INITIAL_PER_AS = 3
#: Cap on additional nodes measured when an AS is flagged for revisit.  The
#: paper measured flagged ASes nearly exhaustively (Globe: 1,374 nodes), so
#: the default cap is effectively "all of them".
DEFAULT_REVISIT_CAP = 5_000
#: Give up pursuing a flagged AS after this many consecutive revisit probes
#: that failed to land on an unmeasured node in it (the AS is exhausted).
REVISIT_MISS_STREAK = 60

#: Host under which the corpus objects are served.
OBJECTS_HOST = f"objects.{PROBE_ZONE}"


@slot_init
@dataclass(frozen=True, slots=True)
class HttpProbeRecord:
    """One fully measured exit node: per-object received bodies' verdicts."""

    zid: str
    exit_ip: int
    asn: Optional[int]
    country: Optional[str]
    #: kind -> received body for objects that differed from ground truth;
    #: unmodified objects are omitted to keep the dataset small.
    modified_bodies: dict[ObjectKind, bytes]
    fetched_all: bool
    #: Netalyzr-style proxy signals (§8 related work): the Via token an
    #: in-path proxy stamped on responses, and whether two fetches of the
    #: cache-busting resource returned the same body (a shared cache).
    via_token: str = ""
    cached_dynamic: bool = False

    def modified(self, kind: ObjectKind) -> bool:
        """Whether the object of this kind came back altered."""
        return kind in self.modified_bodies


@dataclass
class HttpDataset(Dataset[HttpProbeRecord]):
    """Everything the §5 analysis consumes."""

    flagged_ases: set[int] = field(default_factory=set)

    def modified_count(self, kind: ObjectKind) -> int:
        """Nodes whose object of this kind was modified."""
        return sum(1 for record in self.records if record.modified(kind))

    def measured_in_as(self, asn: int) -> list[HttpProbeRecord]:
        """All records for one AS."""
        return [r for r in self.records if r.asn == asn]


class HttpModExperiment:
    """Runs the §5 methodology against a world."""

    def __init__(
        self,
        world: World,
        seed: int = 52,
        max_probes: Optional[int] = None,
        revisit_cap: int = DEFAULT_REVISIT_CAP,
    ) -> None:
        self.world = world
        self.controller = CrawlController(world.client, seed=seed, max_probes=max_probes)
        self.revisit_cap = revisit_cap
        self._as_measured: dict[int, int] = {}
        self._flagged: set[int] = set()
        #: Taxonomy kind of the most recent failed measurement (validity
        #: pipeline diagnostics); ``None`` after a success.
        self.last_failure_kind: Optional[str] = None

    @property
    def flagged_ases(self) -> set[int]:
        """ASes with at least one end-to-end signal so far (a copy)."""
        return set(self._flagged)

    # -- fetching -----------------------------------------------------------------

    def _fetch(self, kind: ObjectKind, session: str, country: str):
        """Fetch one corpus object through the pinned exit node."""
        path = self.world.corpus.path(kind)
        return self.world.client.request(
            f"http://{OBJECTS_HOST}{path}", country=country, session=session
        )

    def _wants_more(self, asn: Optional[int]) -> bool:
        """Whether this AS still needs samples (initial 3 or flagged revisit)."""
        if asn is None:
            return False
        measured = self._as_measured.get(asn, 0)
        if measured < INITIAL_PER_AS:
            return True
        return asn in self._flagged and measured < INITIAL_PER_AS + self.revisit_cap

    def measure_once(
        self,
        country: str,
        session: str,
        skip_zids: Optional[set[str]] = None,
        target_asns: Optional[set[int]] = None,
        apply_sampling_policy: bool = True,
    ) -> tuple[Optional[str], Optional[HttpProbeRecord]]:
        """Measure one node; the HTML fetch doubles as AS identification.

        ``target_asns`` is set during the revisit phase: only nodes in those
        ASes are measured (anything else Luminati hands us is released).
        ``apply_sampling_policy=False`` disables the 3-per-AS economics and
        measures the node unconditionally — plan-driven execution (the
        engine) decides coverage up front, so the adaptive gate would only
        second-guess the plan.
        """
        world = self.world
        corpus = world.corpus
        self.last_failure_kind = None

        # Identification probe: a ~100-byte page, NOT one of the corpus
        # objects.  Most probes land on nodes that will be skipped (repeats,
        # already-sampled ASes); keeping this fetch tiny is what holds every
        # node under the paper's 1 MB ethics cap (§3.4) during the crawl.
        ident = world.client.request(
            f"http://{OBJECTS_HOST}/", country=country, session=session
        )
        if not ident.success or ident.debug is None:
            self.last_failure_kind = classify_result(ident)
            return None, None
        zid = ident.debug.zid
        if skip_zids is not None and zid in skip_zids:
            return zid, None

        # The exit node's address (and thus AS) comes from Luminati's debug
        # header; VPN-tunnelled nodes will instead surface their VPN egress
        # in our server logs, which §7 exploits — here the reported IP is the
        # right grouping key.
        exit_ip = str_to_ip(ident.debug.exit_ip)
        asn = world.routeviews.ip_to_asn(exit_ip)
        if target_asns is not None:
            if asn not in target_asns:
                return zid, None
        elif apply_sampling_policy and not self._wants_more(asn):
            return zid, None

        modified: dict[ObjectKind, bytes] = {}
        fetched_all = True
        result = ident
        for kind in (ObjectKind.HTML, ObjectKind.JPEG, ObjectKind.JS, ObjectKind.CSS):
            result = self._fetch(kind, session, country)
            if not result.success or result.debug is None or result.debug.zid != zid:
                fetched_all = False
                self.last_failure_kind = classify_result(result) or "stale"
                break
            if result.truncated:
                # A short read always differs from ground truth, but it is
                # transport loss, not §5 content modification: the whole
                # measurement is invalid and must be retried, never diffed.
                fetched_all = False
                self.last_failure_kind = "truncated"
                break
            if corpus.is_modified(kind, result.body):
                modified[kind] = result.body
        if not fetched_all:
            return zid, None

        # Proxy detection: the Via header on responses, plus a double fetch
        # of the cache-busting resource (identical bodies => shared cache).
        via = proxy_via_token(result.headers) or ""
        cached = False
        dynamic_url = f"http://{OBJECTS_HOST}{MeasurementWebServer.DYNAMIC_PATH}"
        first = world.client.request(dynamic_url, country=country, session=session)
        second = world.client.request(dynamic_url, country=country, session=session)
        if (
            first.success and second.success
            and not first.truncated and not second.truncated
            and first.debug is not None and first.debug.zid == zid
            and second.debug is not None and second.debug.zid == zid
        ):
            cached = first.body == second.body
            via = via or proxy_via_token(first.headers) or ""

        if asn is not None:
            self._as_measured[asn] = self._as_measured.get(asn, 0) + 1
            # Any end-to-end signal — modified bodies, a Via header, or a
            # shared-cache hit — earns the AS a revisit.
            if modified or via or cached:
                self._flagged.add(asn)

        return zid, HttpProbeRecord(
            zid=zid,
            exit_ip=exit_ip,
            asn=asn,
            country=world.orgmap.asn_to_country(asn) if asn is not None else None,
            modified_bodies=modified,
            fetched_all=True,
            via_token=via,
            cached_dynamic=cached,
        )

    # -- full crawl ------------------------------------------------------------------

    def run(self) -> HttpDataset:
        """Initial 3-per-AS crawl, then targeted revisits of flagged ASes."""
        dataset = HttpDataset()
        controller = self.controller
        measured: set[str] = set()

        # Phase 1: initial sampling, three nodes per AS.
        while not controller.should_stop:
            country = controller.next_country()
            session = controller.next_session()
            zid, record = self.measure_once(country, session, skip_zids=measured)
            controller.record_probe(zid)
            if record is not None:
                measured.add(record.zid)
                dataset.records.append(record)

        # Phase 2: return to flagged ASes and measure more of their nodes
        # (§5.1: "we then return to that AS to measure more exit nodes").
        # Luminati only targets countries, so revisit probes that land on a
        # different flagged AS of the same country are kept, and pursuit of
        # an AS ends after a long streak of misses (its pool is exhausted).
        orgmap = self.world.orgmap
        needs: dict[int, str] = {}
        for asn in sorted(self._flagged):
            country = orgmap.asn_to_country(asn)
            if country is not None:
                needs[asn] = country
        miss_streak: Counter = Counter()
        while needs:
            for asn, country in list(needs.items()):
                if asn not in needs:
                    continue  # satisfied by an earlier probe this round
                session = self.controller.next_session()
                try:
                    zid, record = self.measure_once(
                        country, session, skip_zids=measured,
                        target_asns=set(needs),
                    )
                except ValueError:
                    needs.pop(asn, None)
                    continue
                controller.record_probe(zid)
                if record is not None:
                    measured.add(record.zid)
                    dataset.records.append(record)
                    hit_asn = record.asn
                    if hit_asn is not None:
                        miss_streak[hit_asn] = 0
                        if (
                            self._as_measured.get(hit_asn, 0)
                            >= INITIAL_PER_AS + self.revisit_cap
                        ):
                            needs.pop(hit_asn, None)
                    if hit_asn != asn:
                        miss_streak[asn] += 1
                else:
                    miss_streak[asn] += 1
                if miss_streak[asn] >= REVISIT_MISS_STREAK:
                    needs.pop(asn, None)

        dataset.probes = controller.stats.probes
        dataset.flagged_ases = set(self._flagged)
        return dataset
