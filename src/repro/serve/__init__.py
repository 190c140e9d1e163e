"""``repro.serve`` — the multi-tenant continuous-measurement service.

A deployed violation monitor is not one study but a *queue* of them:
tenants submit re-crawls on recurring schedules, and the service drains
the queue through the ordinary sharded engine.  This package adds the
daemon around the engine without touching its determinism contract:

* :class:`StudyQueue` — fair multi-tenant queueing with priorities and
  per-tenant quotas;
* :class:`Recurrence` — cron-like recurring schedules on the simulated
  clock, jittered by keyed hashes;
* :class:`DiskShardCache` / :class:`MemoryShardCache` — digest-keyed shard
  result caches: verbatim re-crawls are served from cache, and crash
  recovery (for the service and for ``repro study --checkpoint``) is free;
* :class:`Service` — the loop: pump fires, pop fairly, execute, publish
  metrics, journal;
* :mod:`~repro.serve.specfile` — JSON queue specs for ``repro serve``;
* :mod:`~repro.serve.fsck` — state-dir validation and safe repair.

Every engine study the service completes is byte-identical to the same
spec run standalone.  Nothing in this package may read the wall clock or
ambient randomness (lint rule SRV001 enforces this), and every failure a
study raises must be contained into the ``repro.resilience`` taxonomy
(lint rule SRV002 enforces that).  See ``docs/service.md``.
"""

from repro.serve.cache import (
    SHARD_CACHE_DIR,
    CacheEntryError,
    DiskShardCache,
    MemoryShardCache,
    decode_entry,
    encode_entry,
)
from repro.serve.fsck import Finding, FsckReport, fsck_state_dir
from repro.serve.journal import SERVICE_JOURNAL_VERSION, ServiceJournal, ServiceJournalError
from repro.serve.queue import (
    QueueStats,
    QuotaExceeded,
    StudyQueue,
    Submission,
    TenantPolicy,
)
from repro.serve.schedule import Recurrence, jitter_fraction, parse_interval
from repro.serve.service import (
    CallableRequest,
    CompletedStudy,
    EngineStudyRequest,
    FailedStudy,
    Service,
)
from repro.serve.specfile import SpecfileError, build_service, load_specfile, study_spec

__all__ = [
    "CacheEntryError",
    "CallableRequest",
    "CompletedStudy",
    "DiskShardCache",
    "EngineStudyRequest",
    "FailedStudy",
    "Finding",
    "FsckReport",
    "MemoryShardCache",
    "QueueStats",
    "QuotaExceeded",
    "Recurrence",
    "SERVICE_JOURNAL_VERSION",
    "SHARD_CACHE_DIR",
    "Service",
    "ServiceJournal",
    "ServiceJournalError",
    "SpecfileError",
    "StudyQueue",
    "Submission",
    "TenantPolicy",
    "build_service",
    "decode_entry",
    "encode_entry",
    "fsck_state_dir",
    "jitter_fraction",
    "load_specfile",
    "parse_interval",
    "study_spec",
]
