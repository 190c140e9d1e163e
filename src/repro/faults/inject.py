"""The fault injector: decisions at the simulation's natural seams.

One :class:`FaultInjector` is built per world (``build_world`` wires it into
the super proxy and every exit-node host) and makes every chaos decision by
consulting its :class:`~repro.faults.plan.FaultPlan` — never an RNG stream.
The injector *decides*; the seam that asked *enacts* (advances the simulated
clock, raises, truncates), so this module stays free of clocks and network
state and the ``repro lint`` FLT001 rule can hold it to a pure-hash diet.

Failure taxonomy (surfaced in Luminati debug attempts, engine metrics, and
shard-cache entries):

* ``timeout``   — the attempt outlived its simulated-time budget;
* ``truncated`` — a body or handshake arrived incomplete;
* ``reset``     — the connection died mid-request (crash, TLS reset);
* ``refused``   — the request was rejected up front (502, SERVFAIL);
* ``stale``     — the node churned away (offline window, session failover).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.faults.plan import FaultPlan
from repro.faults.profiles import FaultProfile, get_profile
from repro.web.http import HttpResponse

KIND_TIMEOUT = "timeout"
KIND_TRUNCATED = "truncated"
KIND_RESET = "reset"
KIND_REFUSED = "refused"
KIND_STALE = "stale"

#: Every terminal failure kind, in canonical order.
FAILURE_KINDS = (KIND_REFUSED, KIND_RESET, KIND_STALE, KIND_TIMEOUT, KIND_TRUNCATED)


class FaultError(ConnectionError):
    """An injected transport-level failure, tagged with its taxonomy kind."""

    def __init__(self, kind: str, detail: str = "") -> None:
        super().__init__(f"injected fault: {kind}" + (f" ({detail})" if detail else ""))
        self.kind = kind


def truncate_response(response: HttpResponse, fraction: float) -> HttpResponse:
    """Deliver only a prefix of the body, keeping the advertised length.

    The full length is recorded in ``Content-Length`` *before* the cut, which
    is exactly how a real truncated transfer looks to a client: fewer bytes
    than the server promised.  :func:`response_truncated` detects the
    mismatch.
    """
    full = len(response.body)
    if full == 0:
        return response
    keep = max(1, min(full - 1, int(full * fraction)))
    if response.header("Content-Length") is None:
        response = response.with_header("Content-Length", str(full))
    return response.with_body(response.body[:keep])


def response_truncated(body: bytes, content_length: Optional[str]) -> bool:
    """Whether a body is shorter than its advertised ``Content-Length``."""
    if content_length is None:
        return False
    try:
        advertised = int(content_length)
    except ValueError:
        return False
    return len(body) < advertised


class FaultInjector:
    """Keyed-hash chaos decisions for one world.

    Attempt indices are per-zID counters: every pass of a node through a
    forwarding seam increments its counter, so the key ``(zid, attempt)``
    replays identically for any execution of the same plan slice.
    ``counters`` tallies fired faults by kind — diagnostics only, never part
    of a dataset.
    """

    def __init__(self, profile: FaultProfile, plan: FaultPlan) -> None:
        self.profile = profile
        self.plan = plan
        self._attempts: dict[str, int] = {}
        #: The last ``(window, fired)`` offline decision per zID.
        self._offline: dict[str, tuple[int, bool]] = {}
        self.counters: Counter = Counter()

    @classmethod
    def from_config(cls, config) -> Optional["FaultInjector"]:
        """The injector a :class:`~repro.sim.config.WorldConfig` asks for.

        Returns ``None`` for a zero-fault profile so every seam's fast path
        (``injector is None``) leaves the fault-free simulation untouched.
        """
        profile = get_profile(config.fault_profile)
        if profile.is_zero:
            return None
        plan = FaultPlan(f"faults:{config.seed}:{config.fault_seed}:{profile.name}")
        return cls(profile, plan)

    # -- attempt accounting -------------------------------------------------

    def next_attempt(self, zid: str) -> int:
        """The next forwarding-attempt index for a node (1-based)."""
        index = self._attempts.get(zid, 0) + 1
        self._attempts[zid] = index
        return index

    # -- super-proxy seam ---------------------------------------------------

    def superproxy_error(self, request_index: int) -> bool:
        """Whether the super proxy 502s this request outright."""
        fired = self.plan.happens(
            self.profile.superproxy_error_rate, "superproxy", request_index
        )
        if fired:
            self.counters["superproxy_502"] += 1
        return fired

    def offline_window(self, zid: str, now: float) -> bool:
        """Whether the node is inside one of its deterministic dark windows."""
        window = int(now // self.profile.offline_window_seconds)
        last = self._offline.get(zid)
        if last is not None and last[0] == window:
            fired = last[1]
        else:
            fired = self.plan.happens(
                self.profile.offline_window_rate, "offline", zid, window
            )
            self._offline[zid] = (window, fired)
        if fired:
            self.counters["offline_window"] += 1
        return fired

    # -- exit-node forwarding seam -----------------------------------------

    def dns_fault(self, zid: str, attempt: int) -> Optional[str]:
        """``refused`` (SERVFAIL) / ``timeout`` / ``None`` for node-side DNS."""
        if self.plan.happens(self.profile.dns_servfail_rate, "dns-servfail", zid, attempt):
            self.counters["dns_servfail"] += 1
            return KIND_REFUSED
        if self.plan.happens(self.profile.dns_timeout_rate, "dns-timeout", zid, attempt):
            self.counters["dns_timeout"] += 1
            return KIND_TIMEOUT
        return None

    def crash(self, zid: str, attempt: int) -> bool:
        """Whether the node crashes mid-request."""
        fired = self.plan.happens(self.profile.crash_rate, "crash", zid, attempt)
        if fired:
            self.counters["crash"] += 1
        return fired

    def stall_seconds(self, zid: str, attempt: int) -> float:
        """Simulated seconds this transfer stalls (0.0 for no stall)."""
        if not self.plan.happens(self.profile.stall_rate, "stall", zid, attempt):
            return 0.0
        self.counters["stall"] += 1
        return self.plan.uniform(
            self.profile.stall_seconds_min,
            self.profile.stall_seconds_max,
            "stall-length",
            zid,
            attempt,
        )

    def truncate_fraction(self, zid: str, attempt: int) -> Optional[float]:
        """Body fraction delivered when this transfer truncates, else ``None``."""
        if not self.plan.happens(self.profile.http_truncate_rate, "truncate", zid, attempt):
            return None
        self.counters["http_truncated"] += 1
        return self.plan.uniform(
            self.profile.truncate_fraction_min,
            self.profile.truncate_fraction_max,
            "truncate-fraction",
            zid,
            attempt,
        )

    # -- TLS seam -----------------------------------------------------------

    def tls_fault(self, zid: str, attempt: int) -> Optional[str]:
        """``truncated`` / ``reset`` / ``None`` for a TLS handshake."""
        if self.plan.happens(self.profile.tls_truncate_rate, "tls-truncate", zid, attempt):
            self.counters["tls_truncated"] += 1
            return KIND_TRUNCATED
        if self.plan.happens(self.profile.tls_reset_rate, "tls-reset", zid, attempt):
            self.counters["tls_reset"] += 1
            return KIND_RESET
        return None
