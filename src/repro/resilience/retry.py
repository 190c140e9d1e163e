"""Deterministic study-level retry with keyed-hash backoff.

The engine's :class:`~repro.engine.retry.RetryPolicy` retries one
*measurement* inside a shard; this policy retries one *study* inside the
service loop.  Backoff runs on the simulated clock and the jitter term is
a keyed hash of ``(service seed, tenant, study, occurrence, attempt)`` —
the same position-independence contract as schedule jitter and the fault
plane — so the retry timeline is identical across worker counts and
crash/``--resume`` histories.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.records import slot_init


def _jitter_fraction(seed: int, key: str, attempt: int) -> float:
    """Uniform-ish fraction in [0, 1) from a keyed SHA-256 draw."""
    material = f"study-retry:{seed}:{key}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(material).hexdigest()
    return int(digest[:13], 16) / float(16**13)


@slot_init
@dataclass(frozen=True, slots=True)
class StudyRetryPolicy:
    """How many times a failed study re-enters the queue, and when.

    ``max_attempts`` counts total tries (first run included); the delay
    before try ``n+1`` is ``backoff_seconds * backoff_factor**(n-1)``,
    stretched by up to ``jitter`` of itself via the keyed hash.
    """

    max_attempts: int = 3
    backoff_seconds: float = 900.0
    backoff_factor: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, seed: int, key: str, attempt: int) -> float:
        """Simulated seconds to wait before retry number ``attempt``.

        ``attempt`` is 1-based: 1 is the delay between the first failure
        and the second try.
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        base = self.backoff_seconds * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter * _jitter_fraction(seed, key, attempt))

    def to_dict(self) -> dict:
        """JSON-able form (specfile round-trip)."""
        return {
            "max_attempts": self.max_attempts,
            "backoff_seconds": self.backoff_seconds,
            "backoff_factor": self.backoff_factor,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyRetryPolicy":
        """Inverse of :meth:`to_dict`; unknown keys rejected."""
        known = {"max_attempts", "backoff_seconds", "backoff_factor", "jitter"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown retry keys: {sorted(unknown)}")
        return cls(
            max_attempts=int(payload.get("max_attempts", 3)),
            backoff_seconds=float(payload.get("backoff_seconds", 900.0)),
            backoff_factor=float(payload.get("backoff_factor", 2.0)),
            jitter=float(payload.get("jitter", 0.1)),
        )
