"""Run-level metrics: per-shard throughput, retries, failures, progress.

Every number here is either a count or derived from *simulated* time (the
shard world's :class:`~repro.net.clock.SimClock` reading when the shard
finished) — never the wall clock — so metrics are as reproducible as the
datasets themselves.  :meth:`RunReport.to_json` emits canonical JSON (sorted
keys, fixed separators): byte-identical across runs, worker counts, and
resumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class ExperimentTally:
    """One experiment's outcome counts within one shard."""

    planned: int = 0
    measured: int = 0
    skipped: int = 0
    failed: int = 0
    #: Measurements rejected by consensus confirmation (validity pipeline).
    invalid: int = 0
    retries: int = 0
    probes: int = 0
    #: Terminal failure taxonomy: kind -> nodes that ended with that kind.
    failure_kinds: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-able form."""
        return {
            "planned": self.planned,
            "measured": self.measured,
            "skipped": self.skipped,
            "failed": self.failed,
            "invalid": self.invalid,
            "retries": self.retries,
            "probes": self.probes,
            "failure_kinds": {
                kind: self.failure_kinds[kind] for kind in sorted(self.failure_kinds)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentTally":
        """Inverse of :meth:`to_dict`."""
        data = dict(payload)
        data["failure_kinds"] = dict(data["failure_kinds"])
        return cls(**data)


@dataclass
class ShardMetrics:
    """Everything one shard reports about its own execution."""

    index: int
    sim_seconds: float = 0.0
    #: Simulated GB the shard's Luminati client moved (ethics-cap context).
    traffic_gb: float = 0.0
    experiments: dict[str, ExperimentTally] = field(default_factory=dict)
    #: zID -> reason for every node quarantined by the shard's circuit
    #: breaker (e.g. ``"6x timeout"``).
    quarantine: dict[str, str] = field(default_factory=dict)

    @property
    def planned(self) -> int:
        """Planned measurements across the shard's experiments."""
        return sum(t.planned for t in self.experiments.values())

    @property
    def measured(self) -> int:
        """Successfully measured nodes."""
        return sum(t.measured for t in self.experiments.values())

    @property
    def skipped(self) -> int:
        """Terminal per-node skips (e.g. §4 footnote-8 filtering)."""
        return sum(t.skipped for t in self.experiments.values())

    @property
    def failed(self) -> int:
        """Nodes that exhausted their retry budget."""
        return sum(t.failed for t in self.experiments.values())

    @property
    def invalid(self) -> int:
        """Measurements rejected by consensus confirmation."""
        return sum(t.invalid for t in self.experiments.values())

    @property
    def retries(self) -> int:
        """Re-attempts beyond each node's first try."""
        return sum(t.retries for t in self.experiments.values())

    def failure_kinds(self) -> dict[str, int]:
        """Terminal failure taxonomy summed over experiments, sorted by kind."""
        totals: dict[str, int] = {}
        for tally in self.experiments.values():
            for kind, count in tally.failure_kinds.items():
                totals[kind] = totals.get(kind, 0) + count
        return {kind: totals[kind] for kind in sorted(totals)}

    @property
    def throughput_per_hour(self) -> float:
        """Measured nodes per simulated hour."""
        if self.sim_seconds <= 0:
            return 0.0
        return round(self.measured / (self.sim_seconds / 3600.0), 6)

    def to_dict(self) -> dict:
        """JSON-able form (stored in shard-cache entries)."""
        return {
            "index": self.index,
            "sim_seconds": self.sim_seconds,
            "traffic_gb": self.traffic_gb,
            "planned": self.planned,
            "measured": self.measured,
            "skipped": self.skipped,
            "failed": self.failed,
            "invalid": self.invalid,
            "retries": self.retries,
            "failure_kinds": self.failure_kinds(),
            "quarantine": {zid: self.quarantine[zid] for zid in sorted(self.quarantine)},
            "throughput_per_hour": self.throughput_per_hour,
            "experiments": {
                name: tally.to_dict() for name, tally in sorted(self.experiments.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardMetrics":
        """Inverse of :meth:`to_dict` (derived fields are recomputed)."""
        return cls(
            index=payload["index"],
            sim_seconds=payload["sim_seconds"],
            traffic_gb=payload["traffic_gb"],
            experiments={
                name: ExperimentTally.from_dict(tally)
                for name, tally in payload["experiments"].items()
            },
            quarantine=dict(payload["quarantine"]),
        )


@dataclass
class RunReport:
    """The whole run's execution story, shard by shard."""

    shard_count: int
    worker_count: int
    shards: list[ShardMetrics] = field(default_factory=list)
    #: SHA-256 of the run's deterministic trace (obs ``trace`` level only);
    #: the same spec must yield the same digest for any worker count or
    #: crash/resume history.  ``None`` — and absent from :meth:`to_dict` —
    #: when tracing was off, keeping untraced reports byte-identical to
    #: pre-obs builds.
    trace_digest: "str | None" = None
    #: SHA-256 of the world manifest the run measured (see
    #: :mod:`repro.worldbuilder.manifest`).  Empty — and absent from
    #: :meth:`to_dict` — for hand-built reports, keeping pre-worldbuilder
    #: report fixtures byte-identical.
    world_manifest: str = ""
    #: Whether the run completed without some shards (service-plane
    #: containment quarantined them after exhausting their attempts).  A
    #: degraded run's datasets cover only the surviving shards and never
    #: feed §5 findings.  Both fields are absent from :meth:`to_dict` when
    #: the run is whole, keeping healthy reports byte-identical to
    #: pre-resilience builds.
    degraded: bool = False
    #: Quarantined shards in index order:
    #: ``[{"index", "attempts", "category", "error"}, ...]``.
    excluded_shards: list[dict] = field(default_factory=list)

    @property
    def completed_shards(self) -> int:
        """Shards with results (executed or served from a shard cache)."""
        return len(self.shards)

    @property
    def progress(self) -> float:
        """Completed fraction of the run, 0.0-1.0."""
        if self.shard_count <= 0:
            return 0.0
        return round(self.completed_shards / self.shard_count, 6)

    def to_dict(self) -> dict:
        """JSON-able form; shards listed in index order regardless of
        completion order, so the report is scheduling-independent."""
        ordered = sorted(self.shards, key=lambda m: m.index)
        payload = {
            "shard_count": self.shard_count,
            "worker_count": self.worker_count,
            "completed_shards": self.completed_shards,
            "progress": self.progress,
            "planned": sum(m.planned for m in ordered),
            "measured": sum(m.measured for m in ordered),
            "skipped": sum(m.skipped for m in ordered),
            "failed": sum(m.failed for m in ordered),
            "invalid": sum(m.invalid for m in ordered),
            "retries": sum(m.retries for m in ordered),
            "failure_kinds": self._merged_failure_kinds(ordered),
            "quarantined_nodes": sum(len(m.quarantine) for m in ordered),
            "traffic_gb": round(sum(m.traffic_gb for m in ordered), 9),
            "shards": [m.to_dict() for m in ordered],
        }
        if self.trace_digest is not None:
            payload["trace_digest"] = self.trace_digest
        if self.world_manifest:
            payload["world_manifest"] = self.world_manifest
        if self.degraded:
            payload["degraded"] = True
            payload["excluded_shards"] = [dict(entry) for entry in self.excluded_shards]
        return payload

    @staticmethod
    def _merged_failure_kinds(shards: list[ShardMetrics]) -> dict[str, int]:
        totals: dict[str, int] = {}
        for shard in shards:
            for kind, count in shard.failure_kinds().items():
                totals[kind] = totals.get(kind, 0) + count
        return {kind: totals[kind] for kind in sorted(totals)}

    def to_json(self) -> str:
        """Canonical JSON: stable across runs, workers, and resumes.

        ``worker_count`` is the one field that legitimately varies between
        otherwise-identical runs; callers comparing reports for equality
        should compare :meth:`to_dict` minus that key.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
