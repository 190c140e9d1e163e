"""``repro.resilience`` — failure containment for the service plane.

The paper's result rests on a 5-day crawl over >1.2M churning exit nodes;
long-running measurement infrastructure survives only if individual
failures are *contained*, never fatal.  PR 4's fault plane hardened the
protocol seams (a flaky node costs one measurement); this package hardens
the layer above them, where one poison study — a crashing callable, a bad
spec, a shard whose worker dies — must cost one ledger line, not the
daemon:

* :mod:`~repro.resilience.taxonomy` — the service-plane failure taxonomy
  (``spec``/``world``/``shard``/``callable``/``cache``/``journal``) and the
  classifier every containment boundary routes exceptions through;
* :mod:`~repro.resilience.retry` — deterministic study retry with
  keyed-hash backoff on the simulated clock;
* :mod:`~repro.resilience.dlq` — the persisted, inspectable dead-letter
  queue where studies land after exhausting their retry budget
  (``repro serve dlq list|retry|purge``);
* :mod:`~repro.resilience.ledger` — the one append rule and read rule
  the DLQ and the service journal share: an append first cuts a torn
  final line, so a crash mid-append costs that line and nothing after it;
* :mod:`~repro.resilience.breaker` — per-tenant closed/open/half-open
  circuit breakers with simulated-time cooldown.

Everything here follows the repo's determinism contract: state transitions
are pure functions of (simulated time, keyed hashes, explicit policy), so
a faulted service run replays bit-for-bit across worker counts and
crash/``--resume`` histories.  See ``docs/service.md`` ("Failure
handling") and ``docs/faults.md`` ("Service seams").
"""

from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.resilience.dlq import DeadLetterEntry, DeadLetterQueue, DLQError
from repro.resilience.retry import StudyRetryPolicy
from repro.resilience.taxonomy import (
    FAILURE_CACHE,
    FAILURE_CALLABLE,
    FAILURE_CATEGORIES,
    FAILURE_JOURNAL,
    FAILURE_SHARD,
    FAILURE_SPEC,
    FAILURE_WORLD,
    STAGE_CATEGORIES,
    ContainedFailure,
    FailureRecord,
    classify_failure,
    describe_failure,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerPolicy",
    "CircuitBreaker",
    "ContainedFailure",
    "DLQError",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "FAILURE_CACHE",
    "FAILURE_CALLABLE",
    "FAILURE_CATEGORIES",
    "FAILURE_JOURNAL",
    "FAILURE_SHARD",
    "FAILURE_SPEC",
    "FAILURE_WORLD",
    "FailureRecord",
    "STAGE_CATEGORIES",
    "StudyRetryPolicy",
    "classify_failure",
    "describe_failure",
]
