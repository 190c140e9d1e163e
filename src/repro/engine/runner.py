"""Shard execution: a private world replay per shard.

The determinism contract — results bit-identical regardless of worker count
or interleaving — holds because a shard never shares mutable state with its
siblings.  Each shard rebuilds the *entire* world from the same
``(WorldConfig, countries)`` pair (deterministic by construction), then
measures only the plan slice it owns, pinning each planned node via a
Luminati session before every attempt.  The one thing a replay takes from
its coordinator is the §5.1 content corpus: immutable bytes that are a pure
function of the world seed, so serving them instead of regenerating them
changes nothing a shard can observe.  A shard's result is therefore a pure
function of its task, and the executor that ran it is unobservable.

Executors get one of two module-level entry points over one shard body,
each taking a picklable :class:`ShardTask` and returning a dict, the common
currency of process transport, the shard cache, and merging.
:func:`execute_shard` returns the datasets in line form, each record
encoded once at shard end, because a shard cache stores JSON;
:func:`execute_shard_live` leaves them as objects because nothing will
store them.  A task marked ``contain`` comes back as a classified
``SHARD_FAILED`` record instead of raising when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.experiments.dataset import Dataset
from repro.core.export import dataset_to_lines
from repro.core.validity import NodeHealth, ValidityPolicy
from repro.engine.experiments import (
    ATTEMPT_INVALID,
    ATTEMPT_OK,
    ATTEMPT_RETRY,
    ATTEMPT_SKIP,
    PlanAdapter,
    make_adapter,
)
from repro.engine.metrics import ExperimentTally, ShardMetrics
from repro.engine.retry import RetryPolicy
from repro.engine.sharding import ShardSpec, derive_seed
from repro.faults import KIND_STALE
from repro.obs import OBS_OFF, OBS_TRACE, MetricsRegistry, TraceRecorder, fold_rows
from repro.resilience.taxonomy import classify_failure, describe_failure
from repro.sim import World, WorldConfig, build_world
from repro.sim.profiles import CountrySpec
from repro.web.content import ContentCorpus

if TYPE_CHECKING:
    from repro.faults.service import ServiceFaultPlan

#: Outcome label for a node that exhausted its retry budget.
NODE_FAILED = "failed"

#: Result ``kind`` of a contained shard attempt that failed.
SHARD_FAILED = "shard-failure"


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to execute one shard, picklable.

    ``plans`` is an ordered tuple of ``(experiment, zids)`` pairs, the zid
    tuples :func:`~repro.engine.sharding.partition_plans` returns; their
    order is the shard's execution order and part of the determinism
    contract.
    """

    config: WorldConfig
    countries: Optional[tuple[CountrySpec, ...]]
    spec: ShardSpec
    plans: tuple[tuple[str, tuple[str, ...]], ...]
    retry: RetryPolicy
    validity: ValidityPolicy = ValidityPolicy()
    #: Observability level (``off``/``metrics``/``trace``); never part of the
    #: run digest — tracing must not change what a run measures.
    obs: str = OBS_OFF
    #: Containment, set only by :func:`~repro.engine.study.run_study` and
    #: never part of :func:`~repro.engine.study.shard_cache_key`: ``attempt``
    #: keys the ``execute`` fault seam of ``faults`` (retry N draws fresh
    #: faults), and a ``contain`` task returns a failure record, not raises.
    attempt: int = 0
    faults: Optional["ServiceFaultPlan"] = None
    contain: bool = False
    #: The coordinator's content corpus, which the replay serves instead of
    #: regenerating it (``None`` generates it).  It is determined by
    #: ``config``, so it is left out of eq, repr and the cache key.
    corpus: Optional[ContentCorpus] = field(default=None, compare=False, repr=False)


def measure_planned_node(
    world: World,
    adapter: PlanAdapter,
    zid: str,
    country: str,
    retry: RetryPolicy,
    health: Optional[NodeHealth] = None,
) -> tuple[str, int, Optional[str]]:
    """Drive one planned node to a terminal outcome.

    Before every attempt a fresh session is pinned to the target, because
    backoff can outlive the super proxy's session window and an unpinned
    retry would land on an arbitrary node.  Waits between attempts advance
    the shard's simulated clock, never the wall clock.

    ``health`` (when provided) is the shard's circuit breaker: a node
    already quarantined is skipped outright, and a node that crosses the
    quarantine threshold mid-loop stops being retried.

    Returns ``(outcome, attempts, failure_kind)`` with outcome one of
    ``ATTEMPT_OK``, ``ATTEMPT_SKIP``, ``ATTEMPT_INVALID``, or
    ``NODE_FAILED``; ``failure_kind`` is a taxonomy kind for the last two,
    ``None`` otherwise.
    """
    if health is not None and health.quarantined(zid):
        return NODE_FAILED, 0, health.dominant_kind(zid)
    delays = retry.delays()
    attempts = 0
    while True:
        attempts += 1
        session = adapter.next_session()
        world.superproxy.pin_session(session, zid)
        verdict = adapter.attempt(zid, country, session)
        if verdict == ATTEMPT_OK:
            if health is not None:
                health.record_success(zid)
            return verdict, attempts, None
        if verdict == ATTEMPT_SKIP:
            return verdict, attempts, None
        kind = adapter.last_failure_kind or KIND_STALE
        if verdict == ATTEMPT_INVALID:
            return verdict, attempts, kind
        if health is not None:
            health.record_failure(zid, kind)
            if health.quarantined(zid):
                return NODE_FAILED, attempts, kind
        delay = next(delays, None)
        if delay is None:
            return NODE_FAILED, attempts, kind
        obs = world.internet.obs
        if obs.enabled:
            obs.event(
                "retry.backoff", actor=zid,
                attrs={"attempt": attempts, "delay": delay, "kind": kind},
            )
        world.internet.advance(delay)


def run_shard(task: ShardTask) -> tuple[dict[str, Dataset], ShardMetrics, Optional[dict]]:
    """Execute one shard against its private world replay.

    Returns ``(datasets, metrics, obs_payload)``; the observability payload
    is ``None`` when ``task.obs`` is ``off``, otherwise a JSON-able dict
    with the shard's merged metrics registry (and, at the ``trace`` level,
    its canonical JSONL chunk).  Because the recorder is clocked on the
    shard's private simulated clock, the payload is a pure function of the
    task — the same determinism contract the datasets honour.
    """
    world = build_world(task.config, task.countries, task.corpus)
    recorder: Optional[TraceRecorder] = None
    if task.obs != OBS_OFF:
        recorder = TraceRecorder(world.internet.clock)
        world.internet.obs = recorder
    obs = world.internet.obs
    # Country lookups go through the registry (O(1) on the columnar
    # registry) instead of materializing a zid->country dict over the whole
    # world, which at paper scale is ~1M strings per shard replay.
    registry = world.registry

    datasets: dict[str, Dataset] = {}
    metrics = ShardMetrics(index=task.spec.index)
    # One health ledger per shard: reliability accumulates across the
    # shard's experiments (the same flaky node fails everywhere), but never
    # across shards — the determinism contract forbids shared mutable state.
    health = NodeHealth(task.validity)
    with obs.span("shard.run", attrs={"shard": task.spec.index}):
        for name, plan in task.plans:
            adapter = make_adapter(
                name, world, derive_seed(task.spec.seed, name), validity=task.validity
            )
            tally = ExperimentTally(planned=len(plan))
            with obs.span("experiment.run", detail=name, attrs={"planned": len(plan)}):
                for zid in plan:
                    country = registry.country_of(zid)
                    if country is None:
                        # The plan references a node this world replay does not
                        # know — only possible with a corrupted plan; count it
                        # as a failure rather than crash the shard.
                        tally.failed += 1
                        continue
                    if obs.enabled:
                        with obs.span("node.measure", actor=zid, detail=name):
                            outcome, attempts, kind = measure_planned_node(
                                world, adapter, zid, country, task.retry, health
                            )
                        obs.event(
                            "node.outcome", actor=zid, detail=name,
                            attrs={
                                "outcome": outcome,
                                "attempts": attempts,
                                "kind": kind or "",
                            },
                        )
                    else:
                        outcome, attempts, kind = measure_planned_node(
                            world, adapter, zid, country, task.retry, health
                        )
                    tally.probes += attempts
                    tally.retries += max(0, attempts - 1)
                    if outcome == ATTEMPT_OK:
                        tally.measured += 1
                    elif outcome == ATTEMPT_SKIP:
                        tally.skipped += 1
                    elif outcome == ATTEMPT_INVALID:
                        tally.invalid += 1
                    else:
                        tally.failed += 1
                    if kind is not None:
                        tally.failure_kinds[kind] = tally.failure_kinds.get(kind, 0) + 1
            datasets[name] = adapter.finish()
            metrics.experiments[name] = tally

    metrics.quarantine = health.report()
    metrics.sim_seconds = world.internet.clock.now
    metrics.traffic_gb = world.client.ledger.total_gb
    obs_payload = None
    if recorder is not None:
        registry = shard_registry(task, metrics)
        trace_shard = task.spec.index if task.obs == OBS_TRACE else None
        chunk = fold_rows(recorder.rows, registry, trace_shard)
        obs_payload = {"metrics": registry.to_dict()}
        if chunk is not None:
            obs_payload["trace"] = chunk
    return datasets, metrics, obs_payload


def shard_registry(task: ShardTask, metrics: ShardMetrics) -> MetricsRegistry:
    """One shard's metrics registry from its engine tallies.

    :func:`~repro.obs.trace.fold_rows` adds the event-derived series.
    Per-shard series carry a ``shard`` label so the run-level merge (sum for
    counters, max for gauges, bucket-add for histograms) never collides two
    shards' point samples.
    """
    registry = MetricsRegistry()
    for name, tally in sorted(metrics.experiments.items()):
        for outcome in ("measured", "skipped", "failed", "invalid"):
            registry.counter(
                "engine_nodes_total", getattr(tally, outcome),
                help="planned nodes by terminal outcome",
                experiment=name, outcome=outcome,
            )
        registry.counter(
            "engine_probes_total", tally.probes,
            help="measurement attempts including retries", experiment=name,
        )
        registry.counter(
            "engine_retries_total", tally.retries,
            help="re-attempts beyond each node's first try", experiment=name,
        )
        for kind in sorted(tally.failure_kinds):
            registry.counter(
                "engine_failures_total", tally.failure_kinds[kind],
                help="terminal failures by taxonomy kind",
                experiment=name, kind=kind,
            )
    registry.counter(
        "engine_quarantined_nodes_total", len(metrics.quarantine),
        help="nodes quarantined by the shard circuit breaker",
        shard=task.spec.index,
    )
    registry.gauge(
        "engine_shard_sim_seconds", metrics.sim_seconds,
        help="simulated seconds the shard ran", shard=task.spec.index,
    )
    registry.gauge(
        "engine_shard_traffic_gb", metrics.traffic_gb,
        help="simulated GB the shard's client moved", shard=task.spec.index,
    )
    return registry


def execute_shard(task: ShardTask) -> dict:
    """Executor entry point for cache-backed runs: a JSON-able shard result.

    The returned dict is exactly what a shard cache stores, so a shard
    served from the cache and a freshly executed one are indistinguishable.
    Each dataset is in line form
    (:func:`~repro.core.export.dataset_to_lines`): every record is encoded
    once, here, as its canonical JSON line in execution order with its zID
    beside it, and nothing downstream re-encodes it — the merge concatenates
    lines and the run summary splices them.
    """
    return _execute(task, lines=True)


def execute_shard_live(task: ShardTask) -> dict:
    """Executor entry point for cache-free runs: live ``Dataset`` objects.

    Cache-free runs never store shard results, so encoding every record
    into a line at shard end would be pure overhead — at paper scale,
    millions of encodes.  The result has :func:`execute_shard`'s shape with
    the datasets left as objects; process workers pickle the dataclasses
    directly.
    """
    return _execute(task, lines=False)


def _execute(task: ShardTask, lines: bool) -> dict:
    """The shard body behind both entry points.

    An uncontained task returns its result or raises.  A contained task
    first draws its ``execute`` fault, and any failure — that injected
    fault or a genuine exception — comes back as a ``kind=SHARD_FAILED``
    dict carrying its taxonomy classification instead of poisoning the
    pool run, so the engine can retry or quarantine the shard and the study
    survives degraded.  The failure payload is deterministic (classified
    category plus a bounded single-line description), keeping contained
    execution inside the replay contract.
    """
    if not task.contain:
        return _shard_result(task, lines)
    try:
        if task.faults is not None:
            task.faults.check("execute", task.spec.index, task.attempt)
        return _shard_result(task, lines)
    except Exception as exc:  # containment boundary: classified, never raised
        return {
            "kind": SHARD_FAILED,
            "index": task.spec.index,
            "attempt": task.attempt,
            "category": classify_failure(exc, "engine"),
            "error": describe_failure(exc),
        }


def _shard_result(task: ShardTask, lines: bool) -> dict:
    """Run the shard; the ``obs`` key exists only when observability is on."""
    datasets, metrics, obs_payload = run_shard(task)
    result = {
        "kind": "shard",
        "index": task.spec.index,
        "datasets": (
            {name: dataset_to_lines(dataset) for name, dataset in datasets.items()}
            if lines
            else datasets
        ),
        "metrics": metrics.to_dict(),
    }
    if obs_payload is not None:
        result["obs"] = obs_payload
    return result
