"""The service-plane failure taxonomy and its exception classifier.

PR 4's fault taxonomy (``timeout``/``truncated``/``reset``/``refused``/
``stale``) names the ways one *measurement* dies; this module names the
ways one *study* dies inside the ``repro serve`` daemon.  Every containment
boundary — the service's execute loop, the engine's shard wrapper — routes
the exception it caught through :func:`classify_failure`, so failures are
counted, journalled, retried, and dead-lettered by category rather than
swallowed anonymously (lint rule SRV002 enforces the routing mechanically).

Categories:

* ``spec``     — the submission itself is malformed: an unknown request
  type, a StudySpec that fails validation;
* ``world``    — the coordinator world could not be built for the spec;
* ``shard``    — shard execution failed (a worker crash, an injected
  execute fault) and the shard retry budget ran out;
* ``callable`` — a callable job's runner raised;
* ``cache``    — the shard cache failed to serve or store a result;
* ``journal``  — the service ledger could not be appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.records import slot_init

FAILURE_SPEC = "spec"
FAILURE_WORLD = "world"
FAILURE_SHARD = "shard"
FAILURE_CALLABLE = "callable"
FAILURE_CACHE = "cache"
FAILURE_JOURNAL = "journal"

#: Every study-level failure category, in canonical order.
FAILURE_CATEGORIES = (
    FAILURE_CACHE,
    FAILURE_CALLABLE,
    FAILURE_JOURNAL,
    FAILURE_SHARD,
    FAILURE_SPEC,
    FAILURE_WORLD,
)

#: Execution stages a containment boundary can be in, mapped to the
#: category an *unclassified* exception raised there falls into.  A
#: :class:`ContainedFailure` (or any exception carrying a ``category``
#: attribute naming a known category) overrides the stage default.
STAGE_CATEGORIES = {
    "spec": FAILURE_SPEC,
    "coordinator": FAILURE_WORLD,
    "engine": FAILURE_SHARD,
    "callable": FAILURE_CALLABLE,
    "cache": FAILURE_CACHE,
    "journal": FAILURE_JOURNAL,
}


class ContainedFailure(RuntimeError):
    """An exception pre-tagged with its taxonomy category.

    The fault plane raises these (see
    :class:`~repro.faults.service.ServiceFaultError`) and service code may
    raise them directly when the category is known at the raise site;
    :func:`classify_failure` honours the tag over the stage default.
    """

    def __init__(self, category: str, detail: str = "") -> None:
        if category not in FAILURE_CATEGORIES:
            raise ValueError(f"unknown failure category: {category!r}")
        super().__init__(detail or f"contained {category} failure")
        self.category = category


def classify_failure(exc: BaseException, stage: str = "engine") -> str:
    """The taxonomy category for an exception caught at a containment seam.

    A ``category`` attribute naming a known category wins (typed failures
    classify themselves); otherwise the ``stage`` the boundary was in
    supplies the category.  Unknown stages fall back to ``spec`` — the
    conservative reading that the request, not the infrastructure, was bad.
    """
    tagged = getattr(exc, "category", None)
    if isinstance(tagged, str) and tagged in FAILURE_CATEGORIES:
        return tagged
    return STAGE_CATEGORIES.get(stage, FAILURE_SPEC)


def describe_failure(exc: BaseException, limit: int = 200) -> str:
    """A bounded, single-line ``Type: message`` rendering for ledger lines.

    Journal and DLQ records are canonical JSON compared byte-for-byte
    across runs, so the description must be deterministic: no memory
    addresses, no tracebacks, newlines collapsed, length bounded.
    """
    message = " ".join(str(exc).split())
    text = f"{type(exc).__name__}: {message}" if message else type(exc).__name__
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


@slot_init
@dataclass(frozen=True, slots=True)
class FailureRecord:
    """One classified failure: the currency of ledgers and DLQ entries."""

    category: str
    error: str
    stage: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-able form."""
        record: dict = {"category": self.category, "error": self.error}
        if self.stage is not None:
            record["stage"] = self.stage
        return record

    @classmethod
    def from_exception(cls, exc: BaseException, stage: str = "engine") -> "FailureRecord":
        """Classify and describe in one step."""
        return cls(
            category=classify_failure(exc, stage),
            error=describe_failure(exc),
            stage=stage,
        )
