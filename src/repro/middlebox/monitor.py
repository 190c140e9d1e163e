"""Content monitors (§7, Table 9, Figure 5).

A content monitor records the URLs a user requests and later re-fetches them
from the monitoring entity's own servers — the "unexpected requests" the
paper discovered arriving at its measurement server.  Each entity's
fingerprint is its re-fetch *schedule*, visible as a distinct delay CDF in
Figure 5:

* TrendMicro: two re-fetches, ~12–120 s and ~200–12,500 s after the request
  (the step at y = 0.5 in the CDF).
* Commtouch/CYREN: one re-fetch, 1–10 minutes later.
* AnchorFree (Hotspot Shield): two near-simultaneous re-fetches, 99 % within
  1 s; the second always from one location (Menlo Park).
* Bluecoat: fetches the content *before* releasing the user's request 83 %
  of the time (negative delays; the CDF starts at 41 %), plus a later
  re-fetch.
* TalkTalk: re-fetch at almost exactly 30 s, then another within the hour.
* Tiscali U.K.: a single re-fetch at almost exactly 30 s.

:class:`DelaySpec`/:class:`DelayModel` encode those schedules;
:class:`ContentMonitor` executes them against the simulated Internet using
the shared event scheduler, so advancing the clock 24 h materialises every
re-fetch in the measurement server's access log.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence, TYPE_CHECKING

from repro.middlebox.base import stable_choice, stable_fraction
from repro.records import slot_init
from repro.web.http import HttpRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric import Internet


@slot_init
@dataclass(frozen=True, slots=True)
class DelaySpec:
    """One scheduled re-fetch: a delay distribution plus a source-IP pool name.

    ``distribution`` is one of ``"uniform"``, ``"loguniform"`` or ``"normal"``
    with ``(low, high)`` / ``(mean, stddev)`` parameters, in seconds, relative
    to the moment the user's request is released.
    """

    distribution: str
    param_a: float
    param_b: float
    source_pool: str = "default"

    def __post_init__(self) -> None:
        if self.distribution not in ("uniform", "loguniform", "normal"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "loguniform" and (self.param_a <= 0 or self.param_b <= 0):
            raise ValueError("loguniform bounds must be positive")

    def sample(self, rng: random.Random) -> float:
        """Draw one delay (clipped to be non-negative)."""
        if self.distribution == "uniform":
            value = rng.uniform(self.param_a, self.param_b)
        elif self.distribution == "loguniform":
            value = math.exp(rng.uniform(math.log(self.param_a), math.log(self.param_b)))
        else:
            value = rng.gauss(self.param_a, self.param_b)
        return max(0.05, value)


@dataclass(frozen=True)
class DelayModel:
    """An entity's full re-fetch schedule.

    ``prefetch_probability`` is the chance the entity fetches the content
    *before* releasing the user's request (Bluecoat); when it fires, the
    user's request is held for a duration drawn from ``hold_range`` and the
    entity's first fetch lands ahead of it.
    """

    requests: tuple[DelaySpec, ...]
    prefetch_probability: float = 0.0
    hold_range: tuple[float, float] = (0.3, 3.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.prefetch_probability <= 1.0:
            raise ValueError(f"prefetch_probability out of range: {self.prefetch_probability}")


class ContentMonitor:
    """One monitoring entity (AV vendor, VPN provider, or ISP service).

    Parameters
    ----------
    entity:
        Display name (Table 9's "Name" column).
    source_pools:
        Named pools of the entity's own server IPs; ``"default"`` must exist.
        The AnchorFree pattern — first request from any of 10 POPs, second
        always from Menlo Park — is expressed by giving the second
        :class:`DelaySpec` its own pool.
    delay_model:
        The re-fetch schedule.
    monitor_rate:
        Stable per-node fraction of subscribers/installs actually monitored
        (TalkTalk's service covers ~45 % of its subscribers, §7.2.2).
    user_agent:
        The User-Agent the entity's crawlers present.
    """

    def __init__(
        self,
        entity: str,
        source_pools: dict[str, Sequence[int]],
        delay_model: DelayModel,
        monitor_rate: float = 1.0,
        user_agent: str = "",
    ) -> None:
        if "default" not in source_pools or not source_pools["default"]:
            raise ValueError("source_pools must contain a non-empty 'default' pool")
        if not 0.0 <= monitor_rate <= 1.0:
            raise ValueError(f"monitor_rate out of range: {monitor_rate}")
        self.entity = entity
        self.source_pools = {name: tuple(ips) for name, ips in source_pools.items()}
        self.delay_model = delay_model
        self.monitor_rate = monitor_rate
        self.user_agent = user_agent or f"{entity}-scanner/1.0"

    @property
    def all_source_ips(self) -> tuple[int, ...]:
        """Every IP the entity can fetch from (Table 9's "IPs" column)."""
        seen: dict[int, None] = {}
        for pool in self.source_pools.values():
            for ip in pool:
                seen.setdefault(ip)
        return tuple(seen)

    def monitors_node(self, node_zid: str) -> bool:
        """Whether this node's traffic is monitored (stable per node)."""
        if self.monitor_rate >= 1.0:
            return True
        return stable_fraction("monitor", self.entity, node_zid) < self.monitor_rate

    def _pick_source(self, pool_name: str, rng: random.Random) -> int:
        pool = self.source_pools.get(pool_name) or self.source_pools["default"]
        return pool[rng.randrange(len(pool))]

    def _refetch(self, request: HttpRequest, dest_ip: int, internet: "Internet") -> None:
        """Perform one re-fetch (the unexpected request the server logs)."""
        internet.http_fetch(dest_ip, request)

    def observe_request(
        self, request: HttpRequest, dest_ip: int, node_zid: str, internet: "Internet"
    ) -> float:
        """Observe a request; schedule the entity's re-fetches; return hold seconds."""
        if not self.monitors_node(node_zid):
            return 0.0
        rng = random.Random(
            f"{self.entity}:{node_zid}:{request.host}:{request.path}"
        )
        now = internet.clock.now
        hold = 0.0
        specs = list(self.delay_model.requests)

        if self.delay_model.prefetch_probability and rng.random() < self.delay_model.prefetch_probability:
            # Fetch first, then release the user's request after the hold.
            hold = rng.uniform(*self.delay_model.hold_range)
            first_pool = specs[0].source_pool if specs else "default"
            prefetch = request.with_source(
                self._pick_source(first_pool, rng), time=now + 0.05
            )
            prefetch = _as_monitor_request(prefetch, self.user_agent)
            self._refetch(prefetch, dest_ip, internet)
            specs = specs[1:]  # the prefetch consumed the first scheduled request

        release_time = now + hold
        for spec in specs:
            delay = spec.sample(rng)
            when = release_time + delay
            source = self._pick_source(spec.source_pool, rng)
            refetch = _as_monitor_request(
                request.with_source(source, time=when), self.user_agent
            )
            internet.schedule_at(
                when, lambda r=refetch, d=dest_ip: self._refetch(r, d, internet)
            )
        return hold


def _as_monitor_request(request: HttpRequest, user_agent: str) -> HttpRequest:
    """Stamp a re-fetch with the monitoring entity's User-Agent."""
    from dataclasses import replace

    return replace(request, user_agent=user_agent)
