"""The multi-tenant study queue: priorities, quotas, fair scheduling.

Many tenants submit studies concurrently; the service drains them one at a
time.  Which submission runs next must be a pure function of the queue's
history — never of arrival interleaving or wall-clock timing — so the
scheduling discipline is deterministic weighted fairness:

1. higher ``priority`` strictly first (an operator's smoke probe preempts
   batch re-crawls),
2. within a priority class, the tenant with the lowest *normalized service
   count* (studies served so far divided by the tenant's ``weight``) goes
   first — a tenant with weight 2 sustains twice the throughput of a
   weight-1 tenant under contention,
3. ties break by submission sequence number (global FIFO).

Per-tenant quotas bound queue occupancy: a tenant at its ``max_queued``
limit has further submissions rejected (counted, surfaced in metrics) until
its backlog drains — one noisy tenant cannot starve the queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.records import slot_init


class QuotaExceeded(RuntimeError):
    """A tenant tried to queue more studies than its quota allows."""


@slot_init
@dataclass(frozen=True, slots=True)
class TenantPolicy:
    """One tenant's quota and fair-share weight."""

    #: Most submissions the tenant may have queued at once.
    max_queued: int = 8
    #: Fair-share weight; 2.0 gets twice the throughput of 1.0 under load.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_queued < 1:
            raise ValueError(f"max_queued must be >= 1: {self.max_queued}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive: {self.weight}")


@slot_init
@dataclass(frozen=True, slots=True)
class Submission:
    """One queued study: identity, ownership, and the request to execute.

    ``request`` is whatever the service knows how to execute — an engine
    :class:`~repro.engine.StudySpec` or a callable job — the queue never
    looks inside it.
    """

    sid: int
    tenant: str
    name: str
    priority: int
    submitted_at: float
    request: object
    occurrence: int = 0


@dataclass
class QueueStats:
    """Counters the queue maintains about its own history."""

    submitted: dict[str, int] = field(default_factory=dict)
    rejected: dict[str, int] = field(default_factory=dict)
    served: dict[str, int] = field(default_factory=dict)
    #: Submissions dropped by global load shedding (see :meth:`StudyQueue.shed`).
    shed: dict[str, int] = field(default_factory=dict)

    def bump(self, table: dict[str, int], tenant: str) -> None:
        """Increment one tenant's counter in ``table``."""
        table[tenant] = table.get(tenant, 0) + 1


class StudyQueue:
    """Deterministic multi-tenant queue with quotas and weighted fairness."""

    def __init__(
        self,
        policies: Optional[Mapping[str, TenantPolicy]] = None,
        default_policy: TenantPolicy = TenantPolicy(),
    ) -> None:
        self._policies = dict(policies or {})
        self._default = default_policy
        self._pending: list[Submission] = []
        self._sequence = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._pending)

    def policy(self, tenant: str) -> TenantPolicy:
        """The policy governing ``tenant`` (the default if unregistered)."""
        return self._policies.get(tenant, self._default)

    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        """Register or replace one tenant's policy."""
        self._policies[tenant] = policy

    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued submissions, overall or for one tenant."""
        if tenant is None:
            return len(self._pending)
        return sum(1 for sub in self._pending if sub.tenant == tenant)

    def submit(
        self,
        tenant: str,
        name: str,
        request: object,
        *,
        at: float,
        priority: int = 0,
        occurrence: int = 0,
    ) -> Submission:
        """Queue one study; raises :class:`QuotaExceeded` over the limit."""
        if self.depth(tenant) >= self.policy(tenant).max_queued:
            self.stats.bump(self.stats.rejected, tenant)
            raise QuotaExceeded(
                f"tenant {tenant!r} already has {self.depth(tenant)} studies "
                f"queued (max_queued={self.policy(tenant).max_queued})"
            )
        submission = Submission(
            sid=self._sequence,
            tenant=tenant,
            name=name,
            priority=priority,
            submitted_at=at,
            request=request,
            occurrence=occurrence,
        )
        self._sequence += 1
        self._pending.append(submission)
        self.stats.bump(self.stats.submitted, tenant)
        return submission

    def _rank(self, submission: Submission) -> tuple[float, float, int]:
        served = self.stats.served.get(submission.tenant, 0)
        normalized = served / self.policy(submission.tenant).weight
        return (-submission.priority, normalized, submission.sid)

    def pop(self, blocked: frozenset[str] = frozenset()) -> Optional[Submission]:
        """Remove and return the next submission under the fairness rule.

        Marks the winning tenant as served, so repeated pops interleave
        tenants according to their weights.  ``blocked`` tenants (e.g.
        quarantined by an open circuit breaker) are passed over — their
        submissions stay queued.  ``None`` when nothing is eligible.
        """
        eligible = (
            self._pending
            if not blocked
            else [sub for sub in self._pending if sub.tenant not in blocked]
        )
        if not eligible:
            return None
        winner = min(eligible, key=self._rank)
        self._pending.remove(winner)
        self.stats.bump(self.stats.served, winner.tenant)
        return winner

    def shed(self, bound: int) -> list[Submission]:
        """Drop submissions until at most ``bound`` remain; returns victims.

        Deterministic victim order: the lowest priority goes first, then the
        lightest-weight tenant, then the *newest* submission (highest sid) —
        an overloaded service sacrifices the cheapest, most recent work and
        never touches what the fairness rule would run next.
        """
        victims: list[Submission] = []
        while len(self._pending) > bound:
            victim = max(
                self._pending,
                key=lambda sub: (
                    -sub.priority,
                    -self.policy(sub.tenant).weight,
                    sub.sid,
                ),
            )
            self._pending.remove(victim)
            self.stats.bump(self.stats.shed, victim.tenant)
            victims.append(victim)
        return victims
