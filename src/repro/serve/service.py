"""The continuous-measurement service: queue in, byte-identical studies out.

:class:`Service` is the daemon loop behind ``repro serve``.  It owns a
simulated clock, a multi-tenant :class:`~repro.serve.queue.StudyQueue`, a
schedule heap of recurring re-crawls, and a digest-keyed shard cache, and it
drains the queue through the ordinary engine executors.  Three invariants
make it a *deterministic* daemon rather than a mere job runner:

* **Studies are pure.**  Every engine study the service completes is
  byte-identical — datasets, run digest, run metrics — to the same
  :class:`~repro.engine.StudySpec` run standalone via ``repro study``.  The
  service adds scheduling around the engine, never inside it.
* **Time is simulated.**  Fires, queue waits, and study latencies all live
  on the service's :class:`~repro.net.clock.SimClock`; executing a study
  advances the clock by the study's own simulated duration.  Jitter comes
  from keyed hashes.  Nothing in this package may read the wall clock
  (enforced by lint rule SRV001).
* **Re-crawls are incremental.**  Shard results are cached under
  :func:`~repro.engine.study.shard_cache_key`; a verbatim re-submission is
  served 100% from cache with identical merged output, and after a crash,
  re-running the same queue against the same cache directory re-executes
  only the shards that never completed.

Service health — queue depth, per-tenant throughput, cache hit rate, study
latency — is published through a :class:`~repro.obs.MetricsRegistry` and
the existing Prometheus text exporter.

A fourth invariant arrived with ``repro.resilience``: **failures are
contained**.  One poison study — a crashing callable, a bad spec, a shard
whose worker dies — costs one classified ledger line, never the daemon.
Failed studies retry with keyed-hash backoff on the simulated clock, land
in the dead-letter queue after exhausting their budget, trip per-tenant
circuit breakers when they cluster, and (because retry timing, breaker
cooldowns, and injected faults are all pure functions of simulated time
and keyed hashes) the whole failure story replays bit-for-bit across
worker counts and crash/restart histories.  See ``docs/service.md``
("Failure handling").
"""

from __future__ import annotations

import hashlib
import heapq
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Union

from repro.engine.executor import Executor, make_executor
from repro.engine.sharding import stable_digest
from repro.engine.study import EngineRun, StudySpec, run_study
from repro.faults.service import ServiceFaultPlan
from repro.net.clock import SimClock
from repro.obs import SERVICE_BUCKETS, MetricsRegistry
from repro.records import slot_init
from repro.resilience import (
    BREAKER_OPEN,
    FAILURE_CATEGORIES,
    STAGE_CATEGORIES,
    BreakerPolicy,
    CircuitBreaker,
    ContainedFailure,
    DeadLetterEntry,
    DeadLetterQueue,
    StudyRetryPolicy,
    classify_failure,
    describe_failure,
)
from repro.resilience.breaker import BREAKER_STATE_VALUES
from repro.serve.cache import SHARD_CACHE_DIR, DiskShardCache, MemoryShardCache
from repro.serve.journal import ServiceJournal
from repro.serve.queue import QuotaExceeded, StudyQueue, Submission, TenantPolicy
from repro.serve.schedule import Recurrence
from repro.sim import World, build_world


@slot_init
@dataclass(frozen=True, slots=True)
class EngineStudyRequest:
    """A request to run one engine study (the cacheable, digestable kind)."""

    spec: StudySpec


@dataclass(frozen=True)
class CallableRequest:
    """A custom job: the service schedules it, the callable does the work.

    ``runner(service, submission)`` returns an optional JSON-able summary.
    Callable jobs share the queue, fairness, and scheduler with engine
    studies but bypass the shard cache — they have no digest to key on.
    ``sim_duration`` is the simulated seconds the service clock advances
    when the job completes (callables typically drive their own world's
    clock; this charges the *service* timeline).
    """

    runner: Callable[["Service", Submission], Optional[Mapping]]
    sim_duration: float = 0.0


@slot_init
@dataclass(frozen=True, slots=True)
class CompletedStudy:
    """One study's ledger entry: identity, timing, and result fingerprints."""

    sid: int
    tenant: str
    name: str
    occurrence: int
    #: Simulated instants: when the submission fired, started, finished.
    submitted_at: float
    started_at: float
    completed_at: float
    #: Engine studies only; ``None`` for callable jobs.
    digest: Optional[str] = None
    #: SHA-256 of the run's canonical dataset summary (engine studies only).
    summary_sha: Optional[str] = None
    shard_count: int = 0
    cached_shards: int = 0
    #: The callable job's returned summary, if any.
    payload: Optional[dict] = None
    #: Whether the engine quarantined shards and completed the study
    #: partially (see ``EngineRun.degraded``).  Degraded studies never feed
    #: §5 findings; they exist so the service can keep its schedule.
    degraded: bool = False
    #: Indices of the shards excluded from a degraded study.
    excluded_shards: tuple[int, ...] = ()

    @property
    def latency(self) -> float:
        """Submission-to-completion, in simulated seconds (queueing included)."""
        return self.completed_at - self.submitted_at

    @property
    def sim_duration(self) -> float:
        """Execution time alone, in simulated seconds."""
        return self.completed_at - self.started_at

    def to_dict(self) -> dict:
        """JSON-able ledger form (journal line payload)."""
        record = {
            "sid": self.sid,
            "tenant": self.tenant,
            "name": self.name,
            "occurrence": self.occurrence,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "digest": self.digest,
            "summary_sha": self.summary_sha,
            "shard_count": self.shard_count,
            "cached_shards": self.cached_shards,
        }
        if self.payload is not None:
            record["payload"] = self.payload
        if self.degraded:
            record["degraded"] = True
            record["excluded_shards"] = list(self.excluded_shards)
        return record


@slot_init
@dataclass(frozen=True, slots=True)
class FailedStudy:
    """One failed study attempt's ledger entry: identity, classification, fate.

    ``attempt`` is the overall 0-based attempt number, prior dead-letter
    cycles included; ``dead`` marks the attempt that exhausted the retry
    budget and parked the study in the dead-letter queue.
    """

    sid: int
    tenant: str
    name: str
    occurrence: int
    submitted_at: float
    started_at: float
    failed_at: float
    attempt: int
    category: str
    error: str
    dead: bool = False

    def to_dict(self) -> dict:
        """JSON-able ledger form (``failed-study`` journal line payload)."""
        return {
            "sid": self.sid,
            "tenant": self.tenant,
            "name": self.name,
            "occurrence": self.occurrence,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "failed_at": self.failed_at,
            "attempt": self.attempt,
            "category": self.category,
            "error": self.error,
            "dead": self.dead,
        }


class _FaultyCache:
    """Shard-cache wrapper that injects the ``cache`` seam before delegating.

    Wraps the service's real cache for the duration of one study attempt;
    the plan's scope already pins (tenant, study, occurrence, attempt), so
    whether a given ``get``/``put`` dies is a pure function of the study's
    identity — never of what other studies did to the cache first.
    """

    def __init__(self, inner: object, plan: ServiceFaultPlan) -> None:
        self._inner = inner
        self._plan = plan

    def get(self, key: str) -> Optional[dict]:
        self._plan.check("cache", "get", key)
        return self._inner.get(key)  # type: ignore[attr-defined]

    def put(self, key: str, result: dict) -> None:
        self._plan.check("cache", "put", key)
        self._inner.put(key, result)  # type: ignore[attr-defined]


@slot_init
@dataclass(frozen=True, slots=True)
class _Registration:
    """One recurring study registered with the scheduler."""

    key: int
    tenant: str
    name: str
    priority: int
    request: object
    recurrence: Recurrence


class Service:
    """A long-running, multi-tenant measurement service on simulated time.

    ``state_dir`` turns on persistence: shard results cache to
    ``<state_dir>/shard-cache/`` and completed studies append to
    ``<state_dir>/service.jsonl``.  Re-running the same queue with the same
    state dir after a crash is the resume path — completed shards hit the
    cache, so the re-run converges on byte-identical results while only the
    unfinished work executes.

    ``workers`` sizes the service's own executor (shared by every study it
    drains); a submission's ``spec.workers`` is ignored here, exactly as
    worker count is everywhere unobservable in results.
    """

    #: Coordinator worlds kept alive for plan computation, newest-first
    #: eviction.  Tenants sharing a world config share the coordinator —
    #: one build amortizes across every study on that config.
    MAX_WORLDS = 4

    def __init__(
        self,
        *,
        seed: int = 0,
        workers: int = 1,
        queue: Optional[StudyQueue] = None,
        cache: Optional[object] = None,
        state_dir: Optional[Union[str, Path]] = None,
        keep_runs: bool = False,
        retry: Optional[StudyRetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        faults: Optional[ServiceFaultPlan] = None,
        shard_attempts: Optional[int] = None,
        queue_bound: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self.clock = SimClock()
        self.queue = queue if queue is not None else StudyQueue()
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if cache is None:
            cache = (
                DiskShardCache(self.state_dir / SHARD_CACHE_DIR)
                if self.state_dir is not None
                else MemoryShardCache()
            )
        self.cache = cache
        self.journal = (
            ServiceJournal(self.state_dir / "service.jsonl")
            if self.state_dir is not None
            else None
        )
        self.metrics = MetricsRegistry()
        self.workers = workers
        self.keep_runs = keep_runs
        self.completed: list[CompletedStudy] = []
        self.runs: dict[int, EngineRun] = {}
        self._executor: Executor = make_executor(workers)
        self._registrations: list[_Registration] = []
        #: Min-heap of pending fires: ``(fire_time, registration_key, occurrence)``.
        self._fires: list[tuple[float, int, int]] = []
        self._worlds: dict[str, World] = {}
        self._world_order: list[str] = []
        self._journal_open = False
        # -- resilience state ------------------------------------------------
        self.retry_policy = retry if retry is not None else StudyRetryPolicy()
        self.breaker_policy = breaker if breaker is not None else BreakerPolicy()
        #: The base service fault plan; ``None`` (or an all-zero profile)
        #: disables injection and keeps every hot path byte-identical to the
        #: pre-resilience service.
        self.faults = None if faults is None or faults.is_zero else faults
        #: Per-shard attempt budget for contained engine execution; defaults
        #: to 2 under an active fault plan, else 1 (the historic fail-fast
        #: path, bit-compatible with pre-resilience runs).
        self.shard_attempts = (
            shard_attempts
            if shard_attempts is not None
            else (2 if self.faults is not None else 1)
        )
        #: Global queue bound for deterministic load shedding; ``None`` keeps
        #: the queue bounded only by per-tenant quotas.
        self.queue_bound = queue_bound
        self.dlq = DeadLetterQueue(
            self.state_dir / "dlq.jsonl" if self.state_dir is not None else None
        )
        self.failed: list[FailedStudy] = []
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Pending study retries: ``(due_time, sid, attempt, submission)``.
        self._retry_queue: list[tuple[float, int, int, Submission]] = []

    # -- tenants and submissions --------------------------------------------

    def register_tenant(self, tenant: str, policy: TenantPolicy) -> None:
        """Set one tenant's quota/weight policy."""
        self.queue.set_policy(tenant, policy)

    def submit(
        self, tenant: str, name: str, spec: StudySpec, *, priority: int = 0
    ) -> Submission:
        """Queue one engine study now; raises :class:`QuotaExceeded` over quota."""
        submission = self.queue.submit(
            tenant, name, EngineStudyRequest(spec),
            at=self.clock.now, priority=priority,
        )
        self._count_submission(tenant)
        return submission

    def submit_callable(
        self,
        tenant: str,
        name: str,
        runner: Callable[["Service", Submission], Optional[Mapping]],
        *,
        priority: int = 0,
        sim_duration: float = 0.0,
    ) -> Submission:
        """Queue one callable job now."""
        submission = self.queue.submit(
            tenant, name, CallableRequest(runner, sim_duration),
            at=self.clock.now, priority=priority,
        )
        self._count_submission(tenant)
        return submission

    # -- recurring schedules ------------------------------------------------

    def schedule(
        self,
        tenant: str,
        name: str,
        spec: StudySpec,
        recurrence: Recurrence,
        *,
        priority: int = 0,
    ) -> None:
        """Register a recurring engine re-crawl."""
        self._register(tenant, name, EngineStudyRequest(spec), recurrence, priority)

    def schedule_callable(
        self,
        tenant: str,
        name: str,
        runner: Callable[["Service", Submission], Optional[Mapping]],
        recurrence: Recurrence,
        *,
        priority: int = 0,
        sim_duration: float = 0.0,
    ) -> None:
        """Register a recurring callable job."""
        self._register(
            tenant, name, CallableRequest(runner, sim_duration), recurrence, priority
        )

    def _register(
        self,
        tenant: str,
        name: str,
        request: object,
        recurrence: Recurrence,
        priority: int,
    ) -> None:
        registration = _Registration(
            key=len(self._registrations),
            tenant=tenant,
            name=name,
            priority=priority,
            request=request,
            recurrence=recurrence,
        )
        self._registrations.append(registration)
        self._push_fire(registration, 0)

    def _push_fire(self, registration: _Registration, occurrence: int) -> None:
        recurrence = registration.recurrence
        if recurrence.count and occurrence >= recurrence.count:
            return
        when = recurrence.fire_time(
            occurrence, seed=self.seed, key=(registration.tenant, registration.name)
        )
        heapq.heappush(self._fires, (when, registration.key, occurrence))

    def _pump(self, horizon: float) -> None:
        """Turn every fire due by now (and within the horizon) into a submission."""
        while (
            self._fires
            and self._fires[0][0] <= self.clock.now
            and self._fires[0][0] <= horizon
        ):
            when, key, occurrence = heapq.heappop(self._fires)
            registration = self._registrations[key]
            self._push_fire(registration, occurrence + 1)
            try:
                self.queue.submit(
                    registration.tenant, registration.name, registration.request,
                    at=when, priority=registration.priority, occurrence=occurrence,
                )
            except QuotaExceeded:
                # The queue counted the rejection; surface it in metrics and
                # move on — a saturated tenant sheds load, never stalls the
                # service.
                self.metrics.counter(
                    "serve_rejected_total", 1,
                    help="scheduler fires dropped by tenant quota",
                    tenant=registration.tenant,
                )
                continue
            self._count_submission(registration.tenant)

    def _count_submission(self, tenant: str) -> None:
        self.metrics.counter(
            "serve_submitted_total", 1,
            help="studies entering the queue, by tenant",
            tenant=tenant,
        )

    # -- the daemon loop ----------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_studies: Optional[int] = None,
    ) -> list[CompletedStudy]:
        """Drain the queue (and every scheduled fire) up to simulated ``until``.

        With ``until`` omitted the service processes only what is already
        due at the current clock reading.  ``max_studies`` stops early after
        that many completions — the knob crash tests use to kill a run
        mid-queue.  Returns the studies completed by *this* call; the
        lifetime ledgers are :attr:`completed` and :attr:`failed`.

        Failures never end the loop: a study that raises is contained into
        a :class:`FailedStudy`, retried on the keyed-hash backoff schedule
        (retry due times and breaker cooldowns are exempt from the horizon
        — containment work in flight always resolves), and dead-lettered
        after exhausting its budget.  Tenants behind an open circuit
        breaker keep their submissions queued until the cooldown admits a
        probe.
        """
        horizon = until if until is not None else self.clock.now
        self._open_journal()
        completed_now: list[CompletedStudy] = []
        while True:
            self._pump(horizon)
            self._shed()
            picked = self._next_ready()
            if picked is None:
                wake = self._next_wake(horizon)
                if wake is None:
                    break
                self.clock.advance_to(wake)
                continue
            submission, attempt = picked
            outcome = self._execute(submission, attempt)
            if isinstance(outcome, CompletedStudy):
                completed_now.append(outcome)
                if max_studies is not None and len(completed_now) >= max_studies:
                    break
        self.metrics.gauge(
            "serve_queue_depth", self.queue.depth(),
            help="submissions waiting in the study queue",
        )
        return completed_now

    def _shed(self) -> None:
        """Deterministically drop queue overflow past the global bound."""
        if self.queue_bound is None or self.queue.depth() <= self.queue_bound:
            return
        for victim in self.queue.shed(self.queue_bound):
            self.metrics.counter(
                "serve_shed_total", 1,
                help="submissions dropped by global load shedding",
                tenant=victim.tenant,
            )

    def _blocked_tenants(self) -> frozenset[str]:
        """Tenants currently quarantined by an open circuit breaker."""
        now = self.clock.now
        return frozenset(
            tenant
            for tenant, breaker in self._breakers.items()
            if breaker.state(now) == BREAKER_OPEN
        )

    def _next_ready(self) -> Optional[tuple[Submission, int]]:
        """The next study to run: due retries first, then the fair queue."""
        blocked = self._blocked_tenants()
        now = self.clock.now
        due = [
            entry
            for entry in self._retry_queue
            if entry[0] <= now and entry[3].tenant not in blocked
        ]
        if due:
            # (due, sid, ...) — sids are unique, so min() never compares
            # further and the pick is deterministic.
            entry = min(due, key=lambda e: (e[0], e[1]))
            self._retry_queue.remove(entry)
            return entry[3], entry[2]
        while True:
            submission = self.queue.pop(blocked=blocked)
            if submission is None:
                return None
            if self._parked(submission):
                # The same (tenant, study, occurrence) is already parked in
                # the dead-letter queue — a restarted run routes around the
                # poison instead of replaying its failures.
                self.metrics.counter(
                    "serve_parked_skips_total", 1,
                    help="submissions skipped because their study is dead-lettered",
                    tenant=submission.tenant,
                )
                continue
            return submission, 0

    def _parked(self, submission: Submission) -> bool:
        key = (submission.tenant, submission.name, submission.occurrence)
        return key in self.dlq.parked_keys()

    def _next_wake(self, horizon: float) -> Optional[float]:
        """The next simulated instant at which work can proceed, or ``None``.

        Scheduled fires are horizon-bounded; retry due times and breaker
        cooldowns are not, so containment work already in flight always
        resolves before the loop ends.
        """
        now = self.clock.now
        candidates: list[float] = []
        if self._fires and now < self._fires[0][0] <= horizon:
            candidates.append(self._fires[0][0])
        for due, _sid, _attempt, _submission in self._retry_queue:
            if due > now:
                candidates.append(due)
        for tenant, breaker in self._breakers.items():
            reopens = breaker.reopens_at()
            if reopens is not None and reopens > now and self._tenant_has_work(tenant):
                candidates.append(reopens)
        if not candidates:
            return None
        return min(candidates)

    def _tenant_has_work(self, tenant: str) -> bool:
        return self.queue.depth(tenant) > 0 or any(
            submission.tenant == tenant
            for _due, _sid, _attempt, submission in self._retry_queue
        )

    def _open_journal(self) -> None:
        if self.journal is None or self._journal_open:
            return
        self.journal.begin_run(
            {"seed": self.seed, "sim_now": self.clock.now, "workers": self.workers}
        )
        self._journal_open = True

    # -- execution ----------------------------------------------------------

    @contextmanager
    def _stage(self, stage: str) -> Iterator[None]:
        """Classify exceptions escaping one execution stage, then re-raise.

        Pre-classified failures (anything carrying a known ``category``
        attribute, like :class:`~repro.faults.service.ServiceFaultError`)
        pass through untouched; anything else is wrapped into a
        :class:`ContainedFailure` tagged with the stage's default category.
        """
        try:
            yield
        except Exception as exc:
            if getattr(exc, "category", None) in FAILURE_CATEGORIES:
                raise
            raise ContainedFailure(
                STAGE_CATEGORIES[stage], describe_failure(exc)
            ) from exc

    def _study_faults(
        self, submission: Submission, total_attempt: int
    ) -> Optional[ServiceFaultPlan]:
        """The fault plan scoped to one study attempt, or ``None``."""
        if self.faults is None:
            return None
        return self.faults.scoped(
            submission.tenant, submission.name, submission.occurrence, total_attempt
        )

    def _execute(
        self, submission: Submission, attempt: int = 0
    ) -> Union[CompletedStudy, FailedStudy]:
        started = self.clock.now
        request = submission.request
        # Attempts consumed by prior dead-letter cycles shift the keyed
        # draws (faults, backoff) so a released study does not replay the
        # exact failures that parked it.
        base = self.dlq.base_attempts(
            submission.tenant, submission.name, submission.occurrence
        )
        total_attempt = base + attempt
        plan = self._study_faults(submission, total_attempt)
        try:
            if isinstance(request, EngineStudyRequest):
                study = self._execute_engine(submission, request.spec, started, plan)
            elif isinstance(request, CallableRequest):
                study = self._execute_callable(submission, request, started, plan)
            else:
                raise ContainedFailure(
                    "spec", f"unknown request type: {type(request).__name__}"
                )
            with self._stage("journal"):
                if plan is not None:
                    plan.check("journal")
                if self.journal is not None:
                    self.journal.append_study(study.to_dict())
        except Exception as exc:
            # The containment boundary: one poison study costs one
            # classified ledger line, never the daemon.
            category = classify_failure(exc, "spec")
            return self._contain_failure(
                submission, attempt, total_attempt, started, category, exc
            )
        self.completed.append(study)
        self._record_success(submission.tenant)
        self.metrics.counter(
            "serve_studies_total", 1,
            help="studies completed, by tenant", tenant=study.tenant,
        )
        self.metrics.histogram(
            "serve_study_latency_seconds", study.latency,
            help="submission-to-completion latency in simulated seconds",
            buckets=SERVICE_BUCKETS, tenant=study.tenant,
        )
        self.metrics.gauge(
            "serve_queue_depth", self.queue.depth(),
            help="submissions waiting in the study queue",
        )
        self.metrics.gauge(
            "serve_sim_seconds", self.clock.now,
            help="the service's simulated clock reading",
        )
        return study

    def _contain_failure(
        self,
        submission: Submission,
        attempt: int,
        total_attempt: int,
        started: float,
        category: str,
        exc: BaseException,
    ) -> FailedStudy:
        """Record one failed attempt: retry it, or dead-letter the study."""
        now = self.clock.now
        error = describe_failure(exc)
        will_retry = total_attempt + 1 < self.retry_policy.max_attempts
        failed = FailedStudy(
            sid=submission.sid,
            tenant=submission.tenant,
            name=submission.name,
            occurrence=submission.occurrence,
            submitted_at=submission.submitted_at,
            started_at=started,
            failed_at=now,
            attempt=total_attempt,
            category=category,
            error=error,
            dead=not will_retry,
        )
        self.failed.append(failed)
        self.metrics.counter(
            "serve_failures_total", 1,
            help="contained study failures, by taxonomy category",
            tenant=submission.tenant, category=category,
        )
        breaker = self._breakers.setdefault(
            submission.tenant, CircuitBreaker(self.breaker_policy)
        )
        if breaker.record_failure(now):
            self.metrics.counter(
                "serve_breaker_opens_total", 1,
                help="circuit-breaker open transitions", tenant=submission.tenant,
            )
        self._breaker_gauge(submission.tenant, breaker)
        if will_retry:
            retry_key = f"{submission.tenant}/{submission.name}#{submission.occurrence}"
            delay = self.retry_policy.delay(self.seed, retry_key, total_attempt + 1)
            self._retry_queue.append(
                (now + delay, submission.sid, attempt + 1, submission)
            )
            self.metrics.counter(
                "serve_retries_total", 1,
                help="failed studies requeued for keyed-hash backoff retry",
                tenant=submission.tenant,
            )
        else:
            self.dlq.add(
                DeadLetterEntry(
                    tenant=submission.tenant,
                    name=submission.name,
                    occurrence=submission.occurrence,
                    category=category,
                    error=error,
                    attempts=attempt + 1,
                    dead_at=now,
                )
            )
            self.metrics.counter(
                "serve_dlq_total", 1,
                help="studies dead-lettered after exhausting their retry budget",
                tenant=submission.tenant,
            )
        self.metrics.gauge(
            "serve_dlq_depth", float(len(self.dlq)),
            help="parked dead-letter entries",
        )
        self.metrics.gauge(
            "serve_sim_seconds", self.clock.now,
            help="the service's simulated clock reading",
        )
        if self.journal is not None:
            try:
                self.journal.append_failure(failed.to_dict())
            except Exception as journal_exc:
                # A failing ledger must not take the containment path down
                # with it: classify, count, keep draining the queue.
                self.metrics.counter(
                    "serve_journal_errors_total", 1,
                    help="ledger appends that themselves failed",
                    category=classify_failure(journal_exc, "journal"),
                )
        return failed

    def _record_success(self, tenant: str) -> None:
        breaker = self._breakers.get(tenant)
        if breaker is not None:
            breaker.record_success()
            self._breaker_gauge(tenant, breaker)

    def _breaker_gauge(self, tenant: str, breaker: CircuitBreaker) -> None:
        self.metrics.gauge(
            "serve_breaker_state",
            BREAKER_STATE_VALUES[breaker.state(self.clock.now)],
            help="per-tenant breaker state (0 closed, 1 half-open, 2 open)",
            tenant=tenant,
        )

    def _execute_engine(
        self,
        submission: Submission,
        spec: StudySpec,
        started: float,
        plan: Optional[ServiceFaultPlan] = None,
    ) -> CompletedStudy:
        with self._stage("coordinator"):
            if plan is not None:
                plan.check("coordinator")
            world = self._coordinator(spec)
        cache = self.cache
        if plan is not None and plan.profile.cache_rate > 0:
            cache = _FaultyCache(self.cache, plan)
        with self._stage("engine"):
            run = run_study(
                spec,
                executor=self._executor,
                world=world,
                analyses=False,
                shard_cache=cache,
                faults=plan,
                shard_attempts=self.shard_attempts,
            )
        # Shards execute concurrently, so the study occupies the service
        # timeline for as long as its slowest shard ran in simulated time.
        self.clock.advance(
            max((metrics.sim_seconds for metrics in run.report.shards), default=0.0)
        )
        summary_sha = hashlib.sha256(run.dataset_summary().encode("utf-8")).hexdigest()
        executed = run.report.completed_shards - run.cached_shards
        self.metrics.counter(
            "serve_shard_cache_total", run.cached_shards,
            help="shard executions avoided (hit) or performed (miss)",
            result="hit",
        )
        self.metrics.counter(
            "serve_shard_cache_total", executed,
            help="shard executions avoided (hit) or performed (miss)",
            result="miss",
        )
        if run.degraded:
            self.metrics.counter(
                "serve_degraded_total", 1,
                help="studies completed partially with quarantined shards",
                tenant=submission.tenant,
            )
        if self.keep_runs:
            self.runs[submission.sid] = run
        return CompletedStudy(
            sid=submission.sid,
            tenant=submission.tenant,
            name=submission.name,
            occurrence=submission.occurrence,
            submitted_at=submission.submitted_at,
            started_at=started,
            completed_at=self.clock.now,
            digest=run.digest,
            summary_sha=summary_sha,
            shard_count=run.report.completed_shards,
            cached_shards=run.cached_shards,
            degraded=run.degraded,
            excluded_shards=tuple(sorted(run.excluded_shards)),
        )

    def _execute_callable(
        self,
        submission: Submission,
        request: CallableRequest,
        started: float,
        plan: Optional[ServiceFaultPlan] = None,
    ) -> CompletedStudy:
        with self._stage("callable"):
            if plan is not None:
                plan.check("callable")
            payload = request.runner(self, submission)
        self.clock.advance(request.sim_duration)
        return CompletedStudy(
            sid=submission.sid,
            tenant=submission.tenant,
            name=submission.name,
            occurrence=submission.occurrence,
            submitted_at=submission.submitted_at,
            started_at=started,
            completed_at=self.clock.now,
            payload=dict(payload) if payload is not None else None,
        )

    def _coordinator(self, spec: StudySpec) -> World:
        """The (cached) coordinator world for a spec's config."""
        key = stable_digest(
            "coordinator", sorted(asdict(spec.config).items()), spec.countries
        )
        world = self._worlds.get(key)
        if world is None:
            if len(self._world_order) >= self.MAX_WORLDS:
                evicted = self._world_order.pop(0)
                del self._worlds[evicted]
            world = build_world(spec.config, spec.countries)
            self._worlds[key] = world
            self._world_order.append(key)
        return world

    # -- introspection ------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of shard lookups served from cache (0.0 if untracked)."""
        stats = getattr(self.cache, "stats", None)
        if stats is None:
            return 0.0
        return stats.hit_rate

    def prometheus_text(self) -> str:
        """The service metrics as a Prometheus text exposition."""
        return self.metrics.prometheus_text()
