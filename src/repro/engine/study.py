"""The engine's front door: plan, shard, execute, merge, analyse.

A study run is four deterministic stages:

1. **Plan** — a coordinator world (never measured, only consulted) yields
   the pool layout; :meth:`CrawlController.iteration_plan` replays the
   paper's crawl schedule as a pure function, giving each experiment an
   ordered zID list.
2. **Shard** — the plans are split by stable zID hash
   (:mod:`repro.engine.sharding`); each shard gets a derived seed.
3. **Execute** — shards run on an :class:`~repro.engine.executor.Executor`
   (serial or process pool), each against a private world replay
   (:mod:`repro.engine.runner`), in rounds: a contained run re-queues its
   failed shards as the next round, in shard-index order.  With a
   :class:`ShardCache`, shards already stored under their
   :func:`shard_cache_key` are served instead of executed and each
   executed shard is stored as it completes — the one mechanism behind
   both crash resume and incremental re-crawls.
4. **Merge + analyse** — shard datasets concatenate in shard-index order
   (never completion order), then flow into the same analysis stage the
   legacy path uses.  Cache-backed shards deliver each record as its
   canonical JSON line, encoded once at shard end; the merge concatenates
   lines without decoding them, :attr:`EngineRun.datasets` decodes them
   only when first read, and :func:`dataset_summary` splices them.  So a
   fully cached study costs its plans, its cache keys and one splice.

Because stages 1, 2, and each shard of 3 are pure functions of the spec,
the merged output is bit-identical for any worker count, interleaving, or
crash/resume history — the property :func:`dataset_summary` lets tests (and
users) assert cheaply.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Optional, Protocol, Union

from repro.core.crawler import DEFAULT_STOP_THRESHOLD, DEFAULT_WINDOW, CrawlController
from repro.core.experiments.dataset import Dataset
from repro.core.experiments.dns_hijack import DnsDataset
from repro.core.experiments.http_mod import HttpDataset
from repro.core.export import (
    LINE_ENCODER,
    dataset_from_header,
    dataset_from_lines,
    dataset_to_lines,
    empty_dataset,
)
from repro.core.study import StudyResults, assemble_results
from repro.core.validity import ValidityPolicy
from repro.engine.executor import Executor, make_executor, resolve_workers
from repro.engine.experiments import EXPERIMENT_ORDER
from repro.engine.metrics import RunReport, ShardMetrics
from repro.engine.retry import RetryPolicy
from repro.engine.runner import SHARD_FAILED, ShardTask, execute_shard, execute_shard_live
from repro.engine.sharding import (
    derive_seed,
    make_shard_specs,
    partition_plans,
    stable_digest,
)
from repro.obs import (
    OBS_LEVELS,
    OBS_OFF,
    OBS_TRACE,
    MetricsRegistry,
    ProfilingChannel,
    TraceLog,
)
from repro.resilience.taxonomy import ContainedFailure
from repro.sim import World, WorldConfig, build_world
from repro.sim.profiles import CountrySpec
from repro.worldbuilder.manifest import manifest_sha256

if TYPE_CHECKING:
    from repro.faults.service import ServiceFaultPlan


@dataclass(frozen=True)
class StudySpec:
    """Everything that determines a study run's output.

    Two specs that differ only in ``workers`` produce byte-identical
    results; every other field participates in the run digest.
    """

    config: WorldConfig
    countries: Optional[tuple[CountrySpec, ...]] = None
    seed: int = 1000
    shards: int = 4
    #: Worker processes (``0`` = auto-detect, capped); digest-excluded.
    workers: int = 1
    retry: RetryPolicy = RetryPolicy()
    #: Crawl-plan stopping rule (see :meth:`CrawlController.iteration_plan`).
    window: int = DEFAULT_WINDOW
    stop_threshold: float = DEFAULT_STOP_THRESHOLD
    max_probes: Optional[int] = None
    #: Measurement-validity defenses; ``None`` derives the policy from the
    #: world's fault profile (inert without one, hardened with one), so
    #: chaos runs defend themselves by default and fault-free runs stay
    #: byte-identical to pre-validity builds.
    validity: Optional[ValidityPolicy] = None
    #: Observability level: ``off`` (default), ``metrics`` (per-shard
    #: registries merged into a run snapshot), or ``trace`` (full event log
    #: plus metrics).  Like ``workers``, this field is excluded from the run
    #: digest — observability must never change what a run measures.
    obs: str = OBS_OFF

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1: {self.shards}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 = auto): {self.workers}")
        if self.obs not in OBS_LEVELS:
            raise ValueError(f"obs must be one of {OBS_LEVELS}: {self.obs!r}")
        if self.validity is None:
            object.__setattr__(
                self, "validity", ValidityPolicy.for_profile(self.config.fault_profile)
            )


#: A merged dataset as a run holds it: a live object (cache-free runs) or
#: line form (cache-backed runs; see :func:`~repro.core.export.dataset_to_lines`).
MergedDataset = Union[Dataset, dict]


@dataclass
class EngineRun:
    """One engine run's full output."""

    spec: StudySpec
    digest: str
    plans: dict[str, tuple[str, ...]]
    #: The output of :func:`merge_shard_results`, read through
    #: :attr:`datasets` and :meth:`dataset_summary`.
    merged: dict[str, MergedDataset]
    report: RunReport
    results: Optional[StudyResults] = None
    #: Shards served from a :class:`ShardCache` (a resumed checkpoint or a
    #: warm re-crawl) instead of executing.  Like ``workers``, reuse is
    #: unobservable in the run's outputs — the report and datasets are
    #: byte-identical either way — so this count lives on the run object
    #: only, never in :meth:`RunReport.to_dict`.
    cached_shards: int = 0
    #: Deterministic run trace, assembled in shard-index order
    #: (``spec.obs == "trace"`` only).
    trace: Optional[TraceLog] = None
    #: Merged per-shard metrics registry (``spec.obs != "off"`` only).
    obs_metrics: Optional[MetricsRegistry] = None
    #: Wall-clock profiling channel — digest-excluded by construction; its
    #: contents depend on scheduling and may differ between identical runs.
    profile: Optional[ProfilingChannel] = None
    #: Whether some shards were quarantined after exhausting their attempts
    #: (containment mode only).  A degraded run's datasets cover only the
    #: surviving shards; ``results`` stays ``None`` so a partial crawl can
    #: never masquerade as a §5 finding.
    degraded: bool = False
    #: Quarantined shards: index -> ``{"attempts", "category", "error"}``.
    excluded_shards: dict[int, dict] = field(default_factory=dict)
    _datasets: Optional[dict[str, Dataset]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def datasets(self) -> dict[str, Dataset]:
        """The run's datasets as objects, decoded on first read.

        Records are in shard-index order, then each shard's execution
        order, whether the run was cache-backed or not.  A cache-backed
        run's line-form datasets are decoded here, once, when something
        first reads them (analyses, exports, tests); a run that is only
        summarised never decodes a record.
        """
        if self._datasets is None:
            self._datasets = {
                name: dataset_from_lines(part) if isinstance(part, dict) else part
                for name, part in self.merged.items()
            }
        return self._datasets

    def dataset_summary(self) -> str:
        """Canonical summary of this run's datasets (see module function),
        spliced from the merged lines without decoding them."""
        return dataset_summary(self.merged)

    def metrics_json(self) -> str:
        """The run-level metrics as stable JSON."""
        return self.report.to_json()


def compute_plans(world: World, spec: StudySpec) -> dict[str, tuple[str, ...]]:
    """Each experiment's ordered zID plan, derived from the coordinator world.

    The HTTPS plan is restricted to countries with Alexa rankings (§6.2),
    mirroring the legacy experiment's country filter.
    """
    pools = world.registry.zids_by_country()
    plans: dict[str, tuple[str, ...]] = {}
    for name in EXPERIMENT_ORDER:
        country_filter = sorted(world.popular_sites) if name == "https" else None
        plans[name] = CrawlController.iteration_plan(
            pools,
            derive_seed(spec.seed, "plan", name),
            country_filter=country_filter,
            window=spec.window,
            stop_threshold=spec.stop_threshold,
            max_probes=spec.max_probes,
        )
    return plans


def run_digest(spec: StudySpec, plans: Mapping[str, tuple[str, ...]]) -> str:
    """The identity of a run: every parameter that shapes its output.

    ``workers`` is deliberately excluded — two runs that differ only in
    worker count are the same run.
    """
    validity = spec.validity if spec.validity is not None else ValidityPolicy()
    return stable_digest(
        "engine-run-v2",
        sorted(asdict(spec.config).items()),
        spec.countries,
        spec.seed,
        spec.shards,
        sorted(spec.retry.to_dict().items()),
        sorted(validity.to_dict().items()),
        spec.window,
        spec.stop_threshold,
        spec.max_probes,
        tuple((name, plans[name]) for name in EXPERIMENT_ORDER),
    )


class ShardCache(Protocol):
    """Anything that can remember a shard's JSON-able result by cache key.

    The engine consults it before executing a shard and stores every result
    it did execute; implementations decide retention (in-memory, on-disk,
    shared between runs).  A ``get`` hit is trusted bit-for-bit — the key
    (see :func:`shard_cache_key`) covers everything that shapes the shard's
    output, so serving a hit is indistinguishable from re-execution.
    """

    def get(self, key: str) -> Optional[dict]:
        """The cached shard result for ``key``, or ``None``."""
        ...

    def put(self, key: str, result: dict) -> None:
        """Remember a freshly executed shard result under ``key``."""
        ...


def shard_cache_key(task: ShardTask) -> str:
    """The cache identity of one shard's result.

    Unlike :func:`run_digest` — which fingerprints the *whole* run — this
    hashes only what the single shard's output depends on: the world config
    (fault profile and seed included) and countries, the shard spec with
    its derived seed and the shard count, the shard's own plan slices, and
    the retry/validity policies.  ``obs`` participates because the stored
    payload differs by observability level, and the ``shard-cache-v3`` tag
    names the payload format.  So an entry written under different inputs
    or in an older format can only miss; it is never mixed into a run.

    The granularity is the whole shard *task*: a change to the world
    config, countries, fault seed, study seed or shard count dirties every
    shard of a study.  Only a change confined to some plan slices (a longer
    ``max_probes`` or ``window`` that extends a few shards' slices) is
    served in part — the shards whose slices are unchanged still hit.
    """
    return stable_digest(
        "shard-cache-v3",  # v3: datasets in line form, one canonical line per record
        sorted(asdict(task.config).items()),
        task.countries,
        (task.spec.index, task.spec.count, task.spec.seed),
        tuple((name, tuple(plan)) for name, plan in task.plans),
        sorted(task.retry.to_dict().items()),
        sorted(task.validity.to_dict().items()),
        task.obs,
    )


def merge_shard_results(results_by_index: Mapping[int, dict]) -> dict[str, MergedDataset]:
    """Concatenate shard datasets in shard-index order, decoding nothing.

    Cache-free runs deliver live ``Dataset`` objects, which merge as
    objects.  Cache-backed runs deliver line form
    (:func:`~repro.core.export.dataset_to_lines`), which merges as line
    form: the zID and line lists concatenate in shard-index order and only
    the headers are combined, so no record is parsed or re-encoded.
    :attr:`EngineRun.datasets` decodes line form when it is first read.

    Cross-shard header fields that cannot be summed (the §4 unique-resolver
    count) are recomputed over the merged records — in line form, from the
    sorted resolver list each DNS part carries.
    """
    shards = [results_by_index[index]["datasets"] for index in sorted(results_by_index)]
    datasets: dict[str, MergedDataset] = {}
    for name in EXPERIMENT_ORDER:
        parts = [shard[name] for shard in shards if name in shard]
        if any(isinstance(part, dict) for part in parts):
            datasets[name] = _merge_lines(name, parts)
        else:
            datasets[name] = _merge_live(name, parts)
    return datasets


def _add_header(merged: Dataset, part: Dataset) -> None:
    """Fold one shard's summable header fields into ``merged``."""
    merged.probes += part.probes
    if isinstance(merged, DnsDataset) and isinstance(part, DnsDataset):
        merged.filtered_google_overlap += part.filtered_google_overlap
    elif isinstance(merged, HttpDataset) and isinstance(part, HttpDataset):
        merged.flagged_ases |= part.flagged_ases


def _merge_live(name: str, parts: list[Dataset]) -> Dataset:
    merged = empty_dataset(name)
    for part in parts:
        merged.records.extend(part.records)
        _add_header(merged, part)
    if isinstance(merged, DnsDataset):
        merged.unique_dns_servers = len({r.dns_server_ip for r in merged.records})
    return merged


def _merge_lines(name: str, parts: list[dict]) -> dict:
    merged = empty_dataset(name)
    zids: list[str] = []
    lines: list[str] = []
    resolvers: set[int] = set()
    for part in parts:
        zids += part["zids"]
        lines += part["lines"]
        resolvers.update(part.get("resolvers", ()))
        _add_header(merged, dataset_from_header(part["header"]))
    if isinstance(merged, DnsDataset):
        merged.unique_dns_servers = len(resolvers)
    payload = dataset_to_lines(merged)
    payload["zids"] = zids
    payload["lines"] = lines
    if "resolvers" in payload:
        payload["resolvers"] = sorted(resolvers)
    return payload


def dataset_summary(datasets: Mapping[str, MergedDataset]) -> str:
    """Canonical JSON over a run's datasets, for byte-level comparison.

    Records are sorted by zID within each experiment: shard-index merge
    order and plan order both reach the same sorted form, so two runs are
    equivalent iff their summaries are byte-identical.

    The summary is one splice: each dataset's header fields are encoded and
    its canonical record lines are joined in zID order (a stable sort, so
    equal zIDs keep merge order); live datasets encode their lines first.
    The bytes are those of ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` over every dataset's header fields plus a
    ``records`` list of its rows sorted by zID.
    """
    encode = LINE_ENCODER.encode
    experiments = []
    for name in sorted(datasets):
        part = datasets[name]
        if not isinstance(part, dict):
            part = dataset_to_lines(part)
        lines = part["lines"]
        order = sorted(range(len(lines)), key=part["zids"].__getitem__)
        values = {key: encode(value) for key, value in part["header"].items()}
        values["records"] = "[" + ",".join([lines[i] for i in order]) + "]"
        body = ",".join(f"{encode(key)}:{values[key]}" for key in sorted(values))
        experiments.append(f"{encode(name)}:{{{body}}}")
    return "{" + ",".join(experiments) + "}"


def run_study(
    spec: StudySpec,
    *,
    executor: Optional[Executor] = None,
    world: Optional[World] = None,
    analyses: bool = True,
    shard_cache: Optional[ShardCache] = None,
    faults: Optional["ServiceFaultPlan"] = None,
    shard_attempts: int = 1,
    plans: Optional[Mapping[str, tuple[str, ...]]] = None,
) -> EngineRun:
    """Execute one study run end to end.

    ``world`` optionally supplies the coordinator world (tests reuse one to
    avoid rebuilding; it must match ``spec.config``/``spec.countries``).
    Its content corpus rides on every shard task, so shard replays serve it
    instead of regenerating it.  ``plans`` optionally supplies what
    :func:`compute_plans` returns for ``spec`` on that world (a service
    re-crawling the same spec keeps them); the run holds its own copy.
    ``analyses=False`` skips the analysis stage and leaves
    :attr:`EngineRun.results` as ``None`` — raw-dataset comparisons don't
    need tables.  ``shard_cache`` is the engine's one store for completed
    shards: shards whose :func:`shard_cache_key` is already cached are
    served bit-for-bit from the cache, only the remainder executes, and
    every executed shard is stored as it completes.  That single mechanism
    is both ``repro serve``'s re-crawl reuse and crash recovery — resuming
    an interrupted run is re-running it against the same
    :class:`~repro.serve.cache.DiskShardCache` (``repro study
    --checkpoint DIR``).

    ``faults`` and ``shard_attempts`` enable **contained execution**: with
    a fault plan or more than one attempt, every :class:`ShardTask` is
    marked ``contain``, an injected or genuine failure comes back as a
    failure record and is retried up to ``shard_attempts`` times with
    fresh keyed fault draws, and a shard that exhausts its budget is
    quarantined — the run completes ``degraded`` with an explicit
    excluded-shard list instead of aborting (only if *every* shard dies
    does the run raise :class:`ContainedFailure`).  With both at their
    defaults a failing shard's own exception fails the run.
    """
    if shard_attempts < 1:
        raise ValueError(f"shard_attempts must be >= 1: {shard_attempts}")
    profile = ProfilingChannel(enabled=spec.obs != OBS_OFF)
    with profile.section("plan"):
        coordinator = (
            world if world is not None else build_world(spec.config, spec.countries)
        )
        plans = compute_plans(coordinator, spec) if plans is None else dict(plans)
    digest = run_digest(spec, plans)
    # The world's own fingerprint, alongside the run digest: two runs agree
    # on it exactly when they measured the same topology, however it was
    # declared (profiles or a compiled worldbuilder spec).
    world_sha = manifest_sha256(spec.config, spec.countries)
    shard_specs = make_shard_specs(spec.seed, spec.shards)
    shard_plans = partition_plans(plans, spec.shards)

    tasks = [
        ShardTask(
            config=spec.config,
            countries=spec.countries,
            spec=shard_spec,
            plans=tuple(
                (name, shard_plans[shard_spec.index][name])
                for name in EXPERIMENT_ORDER
            ),
            retry=spec.retry,
            validity=spec.validity if spec.validity is not None else ValidityPolicy(),
            obs=spec.obs,
            faults=faults,
            contain=faults is not None or shard_attempts > 1,
            corpus=coordinator.corpus,
        )
        for shard_spec in shard_specs
    ]

    report = RunReport(
        shard_count=spec.shards,
        worker_count=resolve_workers(spec.workers),
        world_manifest=world_sha,
    )
    completed: dict[int, dict] = {}
    cache_keys: dict[int, str] = {}
    if shard_cache is not None:
        remaining = []
        for task in tasks:
            key = shard_cache_key(task)
            hit = shard_cache.get(key)
            if hit is None:
                cache_keys[task.spec.index] = key
                remaining.append(task)
            else:
                completed[task.spec.index] = hit
        tasks = remaining
        profile.note("cache.lookup", hits=len(completed), misses=len(tasks))
    cached_count = len(completed)
    pool = executor if executor is not None else make_executor(spec.workers)
    excluded: dict[int, dict] = {}

    def store(result: dict) -> None:
        completed[result["index"]] = result
        if shard_cache is not None:
            shard_cache.put(cache_keys[result["index"]], result)

    with profile.section("execute"):
        pending = tasks
        while pending:
            # Only a cache needs the JSON-able line form; everything else
            # merges the shard's live datasets and skips encoding lines.
            results = (
                pool.run(pending, execute_shard)
                if shard_cache is not None
                else pool.run(pending, execute_shard_live)
            )
            retries: list[ShardTask] = []
            for result in results:
                if result["kind"] != SHARD_FAILED:
                    store(result)
                    continue
                index = result["index"]
                tries = result["attempt"] + 1
                if tries < shard_attempts:
                    prior = next(task for task in pending if task.spec.index == index)
                    retries.append(replace(prior, attempt=tries))
                else:
                    excluded[index] = {
                        "attempts": tries,
                        "category": result["category"],
                        "error": result["error"],
                    }
                    profile.note("shard.quarantined", shard=index)
            # Round barrier in shard-index order: the retry wave is a pure
            # function of which shards failed, never of completion
            # interleaving.
            pending = sorted(retries, key=lambda task: task.spec.index)

    if excluded and not completed:
        raise ContainedFailure(
            "shard",
            f"all {spec.shards} shards exhausted {shard_attempts} attempts",
        )

    report.shards = [
        ShardMetrics.from_dict(completed[index]["metrics"]) for index in sorted(completed)
    ]
    with profile.section("merge"):
        merged = merge_shard_results(completed)

    run = EngineRun(
        spec=spec, digest=digest, plans=plans, merged=merged, report=report,
        cached_shards=cached_count,
    )
    if excluded:
        run.degraded = True
        run.excluded_shards = {index: excluded[index] for index in sorted(excluded)}
        report.degraded = True
        report.excluded_shards = [
            {"index": index, **excluded[index]} for index in sorted(excluded)
        ]
    if spec.obs != OBS_OFF:
        run.profile = profile
        run.obs_metrics = MetricsRegistry.merge_all(
            MetricsRegistry.from_dict(completed[index]["obs"]["metrics"])
            for index in sorted(completed)
        )
        if spec.obs == OBS_TRACE:
            run.trace = TraceLog.from_shard_payloads(
                {index: completed[index]["obs"]["trace"] for index in sorted(completed)}
            )
            report.trace_digest = run.trace.digest()
    # A degraded run's datasets are partial: §5 analyses over them would be
    # silently wrong, so degraded runs never produce results tables.
    if analyses and not excluded:
        datasets = run.datasets
        run.results = assemble_results(
            coordinator,
            datasets["dns"],  # type: ignore[arg-type]
            datasets["http"],  # type: ignore[arg-type]
            datasets["https"],  # type: ignore[arg-type]
            datasets["monitoring"],  # type: ignore[arg-type]
        )
        run.results.engine_report = report.to_dict()
    return run

