"""Per-task retry with simulated-time backoff.

Exit nodes churn: a planned node can be momentarily offline, fail over to a
different node mid-measurement, or answer for only part of a multi-request
probe.  The engine retries each planned node a bounded number of times,
advancing the shard's :class:`~repro.net.clock.SimClock` between attempts —
never the wall clock — so a retried run replays bit-for-bit and the §7
monitoring timelines stay on simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.records import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How often and how patiently to re-attempt one planned node."""

    #: Total attempts per node (first try included).
    max_attempts: int = 3
    #: Simulated seconds waited before the first retry.
    backoff_seconds: float = 5.0
    #: Multiplier applied to the wait after every retry.
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.backoff_seconds < 0:
            raise ValueError(f"backoff_seconds must be >= 0: {self.backoff_seconds}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1: {self.backoff_factor}")

    def delays(self) -> Iterator[float]:
        """The simulated-seconds wait before each retry, in order.

        Yields ``max_attempts - 1`` values; the first attempt never waits.
        """
        wait = self.backoff_seconds
        for _ in range(self.max_attempts - 1):
            yield wait
            wait *= self.backoff_factor

    def to_dict(self) -> dict:
        """JSON-able form (recorded in the run manifest)."""
        return {
            "max_attempts": self.max_attempts,
            "backoff_seconds": self.backoff_seconds,
            "backoff_factor": self.backoff_factor,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RetryPolicy":
        """Inverse of :meth:`to_dict`."""
        return cls(
            max_attempts=payload["max_attempts"],
            backoff_seconds=payload["backoff_seconds"],
            backoff_factor=payload["backoff_factor"],
        )
