"""Service-plane fault seams: keyed-hash chaos for the ``repro serve`` layer.

PR 4's :class:`FaultInjector` stops at the protocol seams — it can kill a
measurement, never a *study*.  This module extends the same contract one
layer up: a :class:`ServiceFaultPlan` injects failures at the seams the
service loop crosses for every study —

* ``coordinator`` — building the shared world for a spec (→ ``world``);
* ``execute``     — running one shard attempt in the engine (→ ``shard``);
* ``callable``    — invoking a callable job's runner (→ ``callable``);
* ``cache``       — serving or storing a shard-cache entry (→ ``cache``);
* ``journal``     — appending the service ledger (→ ``journal``).

Every decision is the same pure SHA-256 draw as :class:`FaultPlan`, keyed
by ``(plan seed, seam, scope, key)`` where the scope pins the study
identity ``(tenant, name, occurrence, attempt)``.  Consequences mirror the
protocol plane: the same study attempt suffers the same faults bit-for-bit
regardless of worker count or crash/``--resume`` history, and a zero-rate
profile never draws at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.faults.plan import FaultPlan

SEAM_COORDINATOR = "coordinator"
SEAM_EXECUTE = "execute"
SEAM_CALLABLE = "callable"
SEAM_CACHE = "cache"
SEAM_JOURNAL = "journal"

#: Every service seam, in canonical order.
SERVICE_SEAMS = (
    SEAM_CACHE,
    SEAM_CALLABLE,
    SEAM_COORDINATOR,
    SEAM_EXECUTE,
    SEAM_JOURNAL,
)

#: Which failure-taxonomy category an injected fault at each seam lands in
#: (see ``repro.resilience.taxonomy``).
SEAM_CATEGORIES = {
    SEAM_COORDINATOR: "world",
    SEAM_EXECUTE: "shard",
    SEAM_CALLABLE: "callable",
    SEAM_CACHE: "cache",
    SEAM_JOURNAL: "journal",
}


class ServiceFaultError(RuntimeError):
    """An injected service-plane fault.

    Carries the taxonomy ``category`` attribute that
    ``repro.resilience.classify_failure`` honours, so injected faults
    classify themselves no matter which containment boundary catches them.
    """

    def __init__(self, seam: str, detail: str) -> None:
        super().__init__(detail)
        self.seam = seam
        self.category = SEAM_CATEGORIES[seam]


@dataclass(frozen=True, slots=True)
class ServiceFaultProfile:
    """Per-seam injection rates; probabilities are per-decision in [0, 1]."""

    name: str
    coordinator_rate: float = 0.0
    execute_rate: float = 0.0
    callable_rate: float = 0.0
    cache_rate: float = 0.0
    journal_rate: float = 0.0

    def rate(self, seam: str) -> float:
        """The injection probability for one seam."""
        try:
            return getattr(self, f"{seam}_rate")
        except AttributeError:
            raise ValueError(f"unknown service seam: {seam!r}") from None

    @property
    def is_zero(self) -> bool:
        """Whether this profile can never inject anything."""
        return not any(
            (
                self.coordinator_rate,
                self.execute_rate,
                self.callable_rate,
                self.cache_rate,
                self.journal_rate,
            )
        )


#: The shipped service fault profiles, by name.  ``chaos`` is tuned so a
#: small CI queue exercises every seam: shard-level execute faults mostly
#: resolve into degraded studies via engine retry, while coordinator/
#: cache/journal hits exercise study retry and, for persistent keys, the
#: dead-letter path.
SERVICE_PROFILES: dict[str, ServiceFaultProfile] = {
    "none": ServiceFaultProfile(name="none"),
    "mild": ServiceFaultProfile(
        name="mild",
        coordinator_rate=0.01,
        execute_rate=0.02,
        callable_rate=0.02,
        cache_rate=0.01,
        journal_rate=0.005,
    ),
    "chaos": ServiceFaultProfile(
        name="chaos",
        coordinator_rate=0.08,
        execute_rate=0.2,
        callable_rate=0.15,
        cache_rate=0.06,
        journal_rate=0.04,
    ),
}


def get_service_profile(name: str) -> ServiceFaultProfile:
    """Look up a shipped profile; raises ``ValueError`` for unknown names."""
    try:
        return SERVICE_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(SERVICE_PROFILES))
        raise ValueError(
            f"unknown service fault profile {name!r} (known: {known})"
        ) from None


@dataclass(frozen=True, slots=True)
class ServiceFaultPlan:
    """Deterministic service-seam fault draws, scoped to a study attempt.

    Frozen and built from primitives so it pickles into
    :class:`~repro.engine.runner.ShardTask` objects unchanged.  The
    service derives one base plan per run and narrows it with
    :meth:`scoped` per ``(tenant, study, occurrence, attempt)``; the scope
    participates in every draw, so retry attempt N draws fresh faults
    instead of replaying attempt N-1's.
    """

    seed: str
    profile: ServiceFaultProfile
    scope: Tuple[object, ...] = ()

    @classmethod
    def for_service(
        cls, seed: int, fault_seed: int, profile: ServiceFaultProfile
    ) -> "ServiceFaultPlan":
        """The base plan for one service run, folding both seeds."""
        return cls(
            seed=f"service-faults:{seed}:{fault_seed}:{profile.name}",
            profile=profile,
        )

    @property
    def is_zero(self) -> bool:
        return self.profile.is_zero

    def scoped(self, *parts: object) -> "ServiceFaultPlan":
        """A copy whose draws additionally key on ``parts``."""
        return replace(self, scope=self.scope + parts)

    def fires(self, seam: str, *key: object) -> bool:
        """Whether the fault at ``(seam, scope, key)`` fires."""
        rate = self.profile.rate(seam)
        if rate <= 0.0:
            return False
        return FaultPlan(self.seed).happens(rate, seam, *self.scope, *key)

    def check(self, seam: str, *key: object) -> None:
        """Raise :class:`ServiceFaultError` when the keyed fault fires."""
        if self.fires(seam, *key):
            where = "/".join(str(part) for part in (*self.scope, *key))
            raise ServiceFaultError(seam, f"injected {seam} fault [{where}]")
