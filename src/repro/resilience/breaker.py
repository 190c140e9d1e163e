"""Per-tenant circuit breakers on the simulated clock.

PR 4 quarantines a repeatedly-failing *node* (``NodeHealth`` in
``repro.engine.runner``); this is the same pattern one layer up, applied
to a *tenant* whose studies keep failing.  The state machine is textbook
closed → open → half-open, except that "time" is the service's
``SimClock`` — so breaker transitions are part of the deterministic replay
surface, not a wall-clock side channel.

* **closed** — studies flow; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the tenant
  is quarantined: its submissions stay queued but are never popped until
  ``cooldown_seconds`` of simulated time pass.
* **half-open** — after cooldown one probe study is admitted.  Success
  closes the breaker and resets the count; failure re-opens it (a fresh
  cooldown from the failure time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.records import slot_init

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Gauge encoding for ``serve_breaker_state``: closed=0, half-open=1, open=2.
BREAKER_STATE_VALUES = {
    BREAKER_CLOSED: 0.0,
    BREAKER_HALF_OPEN: 1.0,
    BREAKER_OPEN: 2.0,
}


@slot_init
@dataclass(frozen=True, slots=True)
class BreakerPolicy:
    """When a tenant trips, and how long it stays quarantined."""

    failure_threshold: int = 3
    cooldown_seconds: float = 3_600.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")

    def to_dict(self) -> dict:
        """JSON-able form (specfile round-trip)."""
        return {
            "failure_threshold": self.failure_threshold,
            "cooldown_seconds": self.cooldown_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BreakerPolicy":
        """Inverse of :meth:`to_dict`; unknown keys rejected."""
        unknown = set(payload) - {"failure_threshold", "cooldown_seconds"}
        if unknown:
            raise ValueError(f"unknown breaker keys: {sorted(unknown)}")
        return cls(
            failure_threshold=int(payload.get("failure_threshold", 3)),
            cooldown_seconds=float(payload.get("cooldown_seconds", 3_600.0)),
        )


class CircuitBreaker:
    """One tenant's breaker; every transition is driven by explicit calls.

    The breaker never reads a clock itself — callers pass simulated ``now``
    into :meth:`allows`, :meth:`record_failure`, and :meth:`reopens_at`
    so the state is a pure function of the call history.
    """

    __slots__ = ("policy", "_state", "_consecutive_failures", "_opened_at", "_probing")

    def __init__(self, policy: Optional[BreakerPolicy] = None) -> None:
        self.policy = policy or BreakerPolicy()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success (or breaker close)."""
        return self._consecutive_failures

    def state(self, now: float) -> str:
        """Current state, accounting for cooldown expiry at ``now``."""
        if self._state == BREAKER_OPEN and now >= self._opened_at + self.policy.cooldown_seconds:
            return BREAKER_HALF_OPEN
        return self._state

    def allows(self, now: float) -> bool:
        """Whether a study for this tenant may start at simulated ``now``.

        In half-open state only one probe is admitted at a time; a second
        ``allows`` before the probe's outcome is recorded returns False.
        """
        state = self.state(now)
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_HALF_OPEN:
            if self._probing:
                return False
            # Entering half-open: latch it so the probe outcome, not the
            # passage of more simulated time, decides the next transition.
            self._state = BREAKER_HALF_OPEN
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """A study for this tenant completed: close and reset."""
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._probing = False

    def record_failure(self, now: float) -> bool:
        """A study failed at simulated ``now``; returns True if this
        failure (re)opened the breaker.

        Half-open is judged via :meth:`state` at ``now`` — a failure after
        the cooldown expired is a failed probe (and re-opens) whether or
        not the caller latched it with :meth:`allows` first.
        """
        self._consecutive_failures += 1
        was_probe = self.state(now) == BREAKER_HALF_OPEN
        self._probing = False
        if was_probe or self._consecutive_failures >= self.policy.failure_threshold:
            already_open = self._state == BREAKER_OPEN and not was_probe
            self._state = BREAKER_OPEN
            self._opened_at = now
            return not already_open
        return False

    def reopens_at(self) -> Optional[float]:
        """Simulated time at which an open breaker admits a probe, or
        None when the breaker is not open."""
        if self._state != BREAKER_OPEN:
            return None
        return self._opened_at + self.policy.cooldown_seconds
