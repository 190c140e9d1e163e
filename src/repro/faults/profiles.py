"""Named fault profiles: how unreliable the simulated Luminati pool is.

The paper's platform rode on end-user machines that churned, stalled, and
truncated transfers mid-measurement (§3); a profile bundles per-seam fault
rates into one picklable value that travels inside :class:`WorldConfig`, so
the execution engine's shard tasks, run digest, and shard-cache keys all
see it.

``none`` is the default and injects nothing — a world built under it is
byte-identical to one built before the fault plane existed.  ``chaos`` is
the CI profile: every seam fires often enough that a small test world
exercises each failure kind, including >10% truncation of HTTP transfers
(the §5 false-positive regression threshold).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """Per-seam fault rates; all probabilities are per-decision in [0, 1]."""

    name: str
    #: Super proxy fails the request outright (a 502 before peer selection).
    superproxy_error_rate: float = 0.0
    #: Fraction of offline windows during which a node is dark.
    offline_window_rate: float = 0.0
    #: Length of one offline window in simulated seconds.
    offline_window_seconds: float = 900.0
    #: Exit node crashes mid-request (connection reset after forwarding).
    crash_rate: float = 0.0
    #: Transfer stalls, consuming simulated time before completing.
    stall_rate: float = 0.0
    stall_seconds_min: float = 2.0
    stall_seconds_max: float = 45.0
    #: Exit-node-side resolution fails (SERVFAIL) or times out.
    dns_servfail_rate: float = 0.0
    dns_timeout_rate: float = 0.0
    #: Simulated seconds burned by a DNS timeout before it surfaces.
    dns_timeout_seconds: float = 5.0
    #: TLS handshake dies mid-flight: truncation or reset.
    tls_truncate_rate: float = 0.0
    tls_reset_rate: float = 0.0
    #: HTTP body delivered only partially (Content-Length > len(body)).
    http_truncate_rate: float = 0.0
    truncate_fraction_min: float = 0.1
    truncate_fraction_max: float = 0.9
    #: Per-attempt simulated-time budget the super proxy enforces; an attempt
    #: slower than this is discarded as ``timeout``.  0 disables the budget.
    attempt_timeout_seconds: float = 0.0

    @property
    def is_zero(self) -> bool:
        """Whether this profile can never inject anything."""
        return not any(
            (
                self.superproxy_error_rate,
                self.offline_window_rate,
                self.crash_rate,
                self.stall_rate,
                self.dns_servfail_rate,
                self.dns_timeout_rate,
                self.tls_truncate_rate,
                self.tls_reset_rate,
                self.http_truncate_rate,
            )
        )


#: The shipped profiles, by name.
PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "mild": FaultProfile(
        name="mild",
        superproxy_error_rate=0.005,
        offline_window_rate=0.02,
        crash_rate=0.01,
        stall_rate=0.01,
        dns_servfail_rate=0.005,
        dns_timeout_rate=0.005,
        tls_truncate_rate=0.005,
        tls_reset_rate=0.005,
        http_truncate_rate=0.02,
        attempt_timeout_seconds=30.0,
    ),
    "chaos": FaultProfile(
        name="chaos",
        superproxy_error_rate=0.03,
        offline_window_rate=0.08,
        crash_rate=0.05,
        stall_rate=0.05,
        dns_servfail_rate=0.03,
        dns_timeout_rate=0.02,
        tls_truncate_rate=0.04,
        tls_reset_rate=0.04,
        http_truncate_rate=0.15,
        attempt_timeout_seconds=30.0,
    ),
}


def get_profile(name: str) -> FaultProfile:
    """Look up a shipped profile; raises ``ValueError`` for unknown names."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown fault profile {name!r} (known: {known})") from None
