"""Measurement-validity defenses against platform unreliability (§3).

The paper's measurements ran through churning, flaky consumer machines; its
defenses — per-request timeouts, repeat-and-confirm before flagging a
violation, and abandoning nodes that keep failing — are reproduced here as
an explicit pipeline the execution engine threads through every planned
measurement:

* :func:`classify_result` folds a failed (or short) proxy result into the
  failure taxonomy of :mod:`repro.faults.inject`;
* :class:`ValidityPolicy` says how paranoid a run is — how many consensus
  confirmations a measurement needs before its record is kept, and how many
  cumulative failures quarantine a node;
* :class:`NodeHealth` is the per-shard reliability score and circuit
  breaker: nodes that cross the quarantine threshold are skipped for the
  rest of the shard and reported (with reasons) in the shard's metrics.

The default policy is entirely inert — zero confirmations, no quarantine —
so fault-free runs are byte-identical to runs made before this module
existed.  :meth:`ValidityPolicy.for_profile` derives the hardened variant
whenever a fault profile is active.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.faults import (
    KIND_REFUSED,
    KIND_RESET,
    KIND_STALE,
    KIND_TIMEOUT,
    KIND_TRUNCATED,
)
from repro.records import slot_init

#: Attempt outcomes (Luminati debug records) folded into the taxonomy.
_OUTCOME_KINDS = {
    "offline": KIND_STALE,
    "connect_failed": KIND_REFUSED,
    KIND_REFUSED: KIND_REFUSED,
    KIND_RESET: KIND_RESET,
    KIND_STALE: KIND_STALE,
    KIND_TIMEOUT: KIND_TIMEOUT,
    KIND_TRUNCATED: KIND_TRUNCATED,
}


def classify_result(result) -> Optional[str]:
    """The taxonomy kind of a failed :class:`ProxyResult`, or ``None``.

    ``None`` means the result is not a node failure: either it succeeded
    with a complete body, or it is a methodology outcome (NXDOMAIN, a
    super-proxy DNS rejection) that analyses interpret rather than retry.
    """
    from repro.luminati.superproxy import ERROR_NO_PEERS, ERROR_SUPERPROXY_502

    if result.error == ERROR_SUPERPROXY_502:
        return KIND_REFUSED
    if result.success:
        return KIND_TRUNCATED if result.truncated else None
    if result.debug is not None and result.debug.attempts:
        last = result.debug.attempts[-1].outcome
        if last in _OUTCOME_KINDS:
            return _OUTCOME_KINDS[last]
    if result.error == ERROR_NO_PEERS:
        return KIND_STALE
    return None


@slot_init
@dataclass(frozen=True, slots=True)
class ValidityPolicy:
    """How much distrust a run applies to its own measurements."""

    #: Extra same-node measurements that must agree (on the experiment's
    #: violation signature) before a record is kept.  0 disables consensus.
    confirmations: int = 0
    #: Cumulative failures (reset on success) after which a node is
    #: quarantined for the rest of the shard.  0 disables quarantine.
    quarantine_attempts: int = 0

    @property
    def active(self) -> bool:
        """Whether any defense is switched on."""
        return self.confirmations > 0 or self.quarantine_attempts > 0

    def to_dict(self) -> dict:
        """JSON-able form (stored in run manifests, part of the run digest)."""
        return {
            "confirmations": self.confirmations,
            "quarantine_attempts": self.quarantine_attempts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ValidityPolicy":
        """Inverse of :meth:`to_dict`."""
        return cls(
            confirmations=payload.get("confirmations", 0),
            quarantine_attempts=payload.get("quarantine_attempts", 0),
        )

    @classmethod
    def for_profile(cls, fault_profile: str) -> "ValidityPolicy":
        """The policy a fault profile warrants.

        A zero-fault world gets the inert policy (bit-compatibility with
        fault-free runs); any chaos profile gets the paper's defenses.
        """
        if fault_profile == "none":
            return cls()
        return cls(confirmations=1, quarantine_attempts=6)


class NodeHealth:
    """Per-node reliability scoring and quarantine for one shard.

    Purely local to a shard (the engine's determinism contract forbids
    cross-shard mutable state), keyed by zID, and consulted by the retry
    loop as a circuit breaker: once a node accumulates
    ``policy.quarantine_attempts`` failures without an intervening success,
    every remaining plan entry for it is skipped.
    """

    def __init__(self, policy: ValidityPolicy) -> None:
        self.policy = policy
        self._failures: dict[str, int] = {}
        self._kinds: dict[str, Counter] = {}

    def record_success(self, zid: str) -> None:
        """A successful measurement clears the node's failure streak."""
        self._failures.pop(zid, None)

    def record_failure(self, zid: str, kind: str) -> None:
        """One failed attempt of the given taxonomy kind."""
        self._failures[zid] = self._failures.get(zid, 0) + 1
        self._kinds.setdefault(zid, Counter())[kind] += 1

    def quarantined(self, zid: str) -> bool:
        """Whether the node has crossed the quarantine threshold."""
        if self.policy.quarantine_attempts <= 0:
            return False
        return self._failures.get(zid, 0) >= self.policy.quarantine_attempts

    def dominant_kind(self, zid: str) -> str:
        """The node's most frequent failure kind (ties break alphabetically)."""
        kinds = self._kinds.get(zid)
        if not kinds:
            return KIND_STALE
        return min(kinds, key=lambda kind: (-kinds[kind], kind))

    def reason(self, zid: str) -> str:
        """Human-readable quarantine reason, e.g. ``"6x timeout"``."""
        return f"{self._failures.get(zid, 0)}x {self.dominant_kind(zid)}"

    def report(self) -> dict[str, str]:
        """All quarantined nodes with reasons, sorted by zID."""
        return {
            zid: self.reason(zid)
            for zid in sorted(self._failures)
            if self.quarantined(zid)
        }
