"""Sharded, resumable, fault-tolerant measurement execution engine.

The legacy experiments crawl one world serially.  This package turns a
study into deterministic *shards* — stable-hash partitions of the iteration
plan, each executed against its own world replay with a derived seed — and
schedules them onto serial or process-backed workers.  Completed shards
live in one store, a digest-keyed :class:`ShardCache`: an interrupted run
resumes by re-running against the same cache, and only the shards that
never completed execute.  Merged results are bit-identical regardless of
worker count, interleaving, or resume history.

Entry points: :func:`run_study` (library), ``repro study`` (CLI), and
:func:`repro.core.study.run_full_study` with engine keywords.
"""

from repro.engine.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    resolve_workers,
)
from repro.engine.metrics import ExperimentTally, RunReport, ShardMetrics
from repro.engine.retry import RetryPolicy
from repro.engine.runner import (
    ShardTask,
    execute_shard,
    measure_planned_node,
    run_shard,
    shard_registry,
)
from repro.engine.sharding import (
    ShardSpec,
    derive_seed,
    make_shard_specs,
    partition_plans,
    shard_of,
    stable_digest,
)
from repro.engine.study import (
    EngineRun,
    ShardCache,
    StudySpec,
    compute_plans,
    dataset_summary,
    merge_shard_results,
    run_digest,
    run_study,
    shard_cache_key,
)

__all__ = [
    "EngineRun",
    "Executor",
    "ExperimentTally",
    "ProcessExecutor",
    "RetryPolicy",
    "RunReport",
    "SerialExecutor",
    "ShardCache",
    "ShardMetrics",
    "ShardSpec",
    "ShardTask",
    "StudySpec",
    "compute_plans",
    "dataset_summary",
    "derive_seed",
    "execute_shard",
    "make_executor",
    "resolve_workers",
    "make_shard_specs",
    "measure_planned_node",
    "merge_shard_results",
    "partition_plans",
    "run_digest",
    "run_shard",
    "run_study",
    "shard_cache_key",
    "shard_of",
    "shard_registry",
    "stable_digest",
]
