"""The benchmark's workloads: seeded inputs, set-up, timed loop and checks.

The load is a closed loop: one caller, the next request starts when the
previous one returns, on one process (``workers=1``).

* ``serial`` — ``run_study`` with observability off, as ``repro study``
  runs it: plan, per-shard world replay, per-node measurement through all
  four experiments, merge.
* ``chaos`` — the same under the ``chaos`` fault profile with full tracing,
  as ``repro study --faults chaos --trace`` runs it: injected faults,
  retries, consensus confirmation and trace encoding on top of the study
  path.
* ``serve`` — one wave of ``TENANTS`` tenants, each with ``ROUNDS`` daily
  re-crawls, drained by a fresh :class:`repro.serve.Service` per call.  The
  first round of every tenant executes; the later rounds are verbatim
  re-submissions served from the shard cache, so queueing and cache hits
  are on the path and two studies in three skip measurement.

``serial`` and ``chaos`` run on worlds small enough that a run times a dozen
or more whole studies, with the default world knobs (sites per country,
rare tails, crawl window), sized so that each layer's share of a study's
time matches the study ``repro study`` runs by default (paper world at
scale 0.02, four shards; with ``--faults chaos --trace`` for ``chaos``).
Self-time shares from one ``--trace 1`` run, against one study at the
default configuration under the same spans (request, plan, shard, replay,
dns, http, https, monitoring, in percent):

* ``serial``  1 / 2 / 10 / 7 / 25 / 32 / 15 / 9, default 1 / 2 / 8 / 7 / 24 / 39 / 13 / 7;
* ``chaos``  32 / 0 / 19 / 3 / 12 / 26 / 8 / 2, default 30 / 0 / 17 / 1 / 13 / 27 / 10 / 2.

``serve`` runs the per-tenant world and study spec of
``benchmarks/bench_serve.py``.

A run cycles through a few inputs the seed generates (study specs, or one
wave of them), so every input runs several times.  Outputs are checked
three ways: each set-up serves a reference request whose outputs are
pinned below; every rerun of an input reproduces its first run byte for
byte; and each report's node accounting adds up.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional

from bench_serve import BENCH_CONFIG, BENCH_COUNTRIES, ledger_sha, tenant_spec
from repro.engine import EngineRun, StudySpec, run_study
from repro.obs import OBS_OFF, OBS_TRACE
from repro.serve import CompletedStudy, Recurrence, Service
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec


def engine_countries(factor: float) -> tuple[CountrySpec, ...]:
    """``bench_serve``'s two countries with ``factor`` times their population."""
    return tuple(
        replace(country, population=round(country.population * factor))
        for country in BENCH_COUNTRIES
    )


#: A serial study that plans about 7,000 nodes splits its time between
#: per-node measurement and per-shard replay as the default study does.  A
#: traced chaos study spends most of its time per trace event, so a world
#: an eighth that size keeps its mix and is timed more often.
SERIAL_COUNTRIES = engine_countries(4)
CHAOS_COUNTRIES = engine_countries(0.5)
ENGINE_CONFIG = WorldConfig(
    scale=1.0, seed=BENCH_CONFIG.seed, alexa_countries=len(BENCH_COUNTRIES)
)
CHAOS_CONFIG = replace(ENGINE_CONFIG, fault_profile="chaos")
ENGINE_SHARDS = 2

SERVE_SHARDS = 2
DAY = 86_400.0

#: Study seed of the reference request every set-up serves; its plans are
#: capped so that set-up time stays mostly world construction.
REFERENCE_SEED = 1000
REFERENCE_MAX_PROBES = 40
#: Distinct study specs a ``serial`` or ``chaos`` run cycles through.
SPECS_PER_RUN = 3
TENANTS = 4
ROUNDS = 3
SERVICE_SEED = 7

# Outputs of the reference requests; a change that moves them changes what
# the program measures.  The ledger SHA is what
# ``benchmarks/bench_serve.py --tenants 1`` prints for this source tree.
PINNED_SERIAL = {
    "digest": "b94e8f5614b8fa8bfff950aefda81ed0c7848e18ddeb88f6d2b5cb5d66228312",
    "summary_sha256": "56c0a821d81d6b518f54bf2f40b296aa35166ccf5337840a630c2ff944899d1e",
}
PINNED_CHAOS = {
    "digest": "8cdc874da28cd91bafb121bc192e0704ae8aacca3da1c2a171320c32934f8a06",
    "summary_sha256": "c753b7d32d3ead983ba087946fd5046a3fb7fb3f31748813bcbd971d8919d7ab",
    "trace_digest": "245fd8168811a73f3151783a9da9666e01a6dbf3c2310bf269c74a0e4c8273be",
}
PINNED_LEDGER = "698e4c2b268b937f989b4e02dbe2312555fac55083d1a45c45ca2d0415cf5960"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(run: EngineRun, trace: bool = True) -> dict[str, str]:
    """The identities of a run's outputs: digest, datasets and (if
    ``trace``) the trace, hashed here rather than read from the report."""
    prints = {"digest": run.digest, "summary_sha256": _sha256(run.dataset_summary())}
    if trace and run.trace is not None:
        prints["trace_digest"] = run.trace.digest()
    return prints


def report_problems(run: EngineRun, report: dict, trace: bool = True) -> list[str]:
    """Ways a finished study's report is not whole or does not add up;
    with ``trace``, also whether its trace digest is the trace's."""
    problems = []
    if run.degraded or report["completed_shards"] != report["shard_count"]:
        problems.append(f"{report['completed_shards']}/{report['shard_count']} shards completed")
    outcomes = sum(report[key] for key in ("measured", "skipped", "failed", "invalid"))
    if outcomes != report["planned"]:
        problems.append(f"{outcomes} node outcomes for {report['planned']} planned nodes")
    if trace and run.trace is not None and report.get("trace_digest") != run.trace.digest():
        problems.append("report trace digest differs from the trace")
    return problems


@dataclass
class Tally:
    """What a run timed, and what its checks found."""

    #: Wall seconds per completed study, one sample per timed call (a
    #: ``serve`` call completes a whole wave of studies).
    seconds: list[float] = field(default_factory=list)
    #: Studies completed inside timed calls.
    studies: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    cache_hits: int = 0
    trace_events: int = 0

    def record(self, seconds: float, studies: int = 1) -> None:
        if studies:
            self.seconds.append(seconds / studies)
        self.studies += studies

    def fail(self, message: str, studies: int = 1) -> None:
        self.failed += studies
        self.errors.append(message)


class NoTrace:
    """Stands in for :class:`spans.LayerTrace` when tracing is off."""

    @staticmethod
    def request() -> nullcontext:
        return nullcontext()


def _seeds(rng: random.Random, count: int) -> list[int]:
    return rng.sample(range(1, 2**31), count)


class StudyLoop:
    """``serial`` and ``chaos``: engine studies against one coordinator world."""

    def __init__(
        self,
        seed: int,
        config: WorldConfig,
        countries: tuple[CountrySpec, ...],
        pinned: dict,
        obs: str,
    ) -> None:
        self.config = config
        self.countries = countries
        self.pinned = pinned
        self.obs = obs
        self.specs = [
            self.spec(study_seed) for study_seed in _seeds(random.Random(seed), SPECS_PER_RUN)
        ]
        self.world = None
        self.first: dict[int, tuple[dict, str]] = {}
        self.faults = 0

    def spec(self, seed: int, **fields) -> StudySpec:
        return StudySpec(
            config=self.config, countries=self.countries, seed=seed,
            shards=ENGINE_SHARDS, obs=self.obs, **fields,
        )

    def setup(self, tally: Tally) -> None:
        self.world = build_world(self.config, self.countries)
        reference = self.spec(REFERENCE_SEED, max_probes=REFERENCE_MAX_PROBES)
        got = fingerprint(run_study(reference, world=self.world, analyses=False))
        if got != self.pinned:
            tally.errors.append(f"reference study drifted from its pinned outputs: {got}")

    def step(self, index: int, tally: Tally, trace) -> None:
        key = index % len(self.specs)
        spec = self.specs[key]
        tally.attempted += 1
        started = time.perf_counter()
        with trace.request():
            run = run_study(spec, world=self.world, analyses=False)
        tally.record(time.perf_counter() - started)

        # Hashing a trace costs a quarter of a traced study, so only an
        # input's first run rehashes it; a rerun must reproduce the report,
        # which carries the trace digest the program computed.
        first = key not in self.first
        report = run.report.to_dict()
        problems = report_problems(run, report, trace=first)
        report.pop("worker_count")
        outputs = (fingerprint(run, trace=False), _sha256(json.dumps(report, sort_keys=True)))
        if self.first.setdefault(key, outputs) != outputs:
            problems.append("rerun differs from the first run of the same spec")
        if problems:
            tally.fail(f"study seed {spec.seed}: " + "; ".join(problems))
        self.faults += report["retries"] + report["failed"] + report["invalid"]
        if run.trace is not None:
            tally.trace_events += len(run.trace)

    def finish(self, tally: Tally) -> None:
        if self.config.fault_profile != "none" and self.faults == 0:
            tally.errors.append("the chaos profile injected no faults")


class ServeLoop:
    """``serve``: one wave of multi-tenant re-crawls, a fresh service per call.

    A fresh service per call keeps the shard cache, and with it the heap,
    the same size in every call, so late calls cost what early ones do.
    """

    def __init__(self, seed: int) -> None:
        reference = tenant_spec(0, SERVE_SHARDS)
        self.specs = {
            f"tenant-{slot:02d}": replace(reference, seed=study_seed)
            for slot, study_seed in enumerate(_seeds(random.Random(seed), TENANTS))
        }
        self.ledger: Optional[str] = None
        #: One executed study to replay standalone at the end of the run.
        self.sample: Optional[tuple[StudySpec, Optional[str]]] = None

    @staticmethod
    def service(specs: dict[str, StudySpec]) -> Service:
        service = Service(seed=SERVICE_SEED, workers=1)
        for tenant, spec in specs.items():
            service.schedule(
                tenant, "daily-recrawl", spec, Recurrence(interval=DAY, count=ROUNDS)
            )
        return service

    def setup(self, tally: Tally) -> None:
        reference = self.service({"tenant-00": tenant_spec(0, SERVE_SHARDS)})
        got = ledger_sha(reference.run(until=ROUNDS * 10 * DAY))
        if got != PINNED_LEDGER:
            tally.errors.append(f"reference ledger drifted from its pinned SHA: {got}")

    def step(self, index: int, tally: Tally, trace) -> None:
        service = self.service(self.specs)
        expected = TENANTS * ROUNDS
        tally.attempted += expected
        started = time.perf_counter()
        with trace.request():
            completed = service.run(until=ROUNDS * 10 * DAY)
        tally.record(time.perf_counter() - started, len(completed))

        problems = []
        if service.failed:
            problems.append(f"{len(service.failed)} contained failures")
        ledger = ledger_sha(completed)
        if self.ledger is None:
            self.ledger = ledger
        elif ledger != self.ledger:
            problems.append("rerun differs from the first run of the wave")
        rounds: dict[str, list[CompletedStudy]] = {}
        for study in completed:
            rounds.setdefault(study.tenant, []).append(study)
            tally.cache_hits += study.cached_shards
        for tenant, studies in sorted(rounds.items()):
            cached = [s.cached_shards for s in sorted(studies, key=lambda s: s.occurrence)]
            if cached != [0] + [SERVE_SHARDS] * (ROUNDS - 1):
                problems.append(f"{tenant}: cached shards per round {cached}")
            if len({(s.digest, s.summary_sha) for s in studies}) != 1:
                problems.append(f"{tenant}: rounds disagree on their outputs")
            if any(s.degraded for s in studies):
                problems.append(f"{tenant}: degraded study")
        if problems or len(completed) != expected:
            tally.fail(
                f"wave {index}: {len(completed)}/{expected} studies; " + "; ".join(problems),
                studies=max(1, expected - len(completed)),
            )
        if self.sample is None and completed:
            first = completed[0]
            self.sample = (self.specs[first.tenant], first.summary_sha)

    def finish(self, tally: Tally) -> None:
        # A served study must equal the same spec run standalone.
        if self.sample is None:
            return
        spec, summary = self.sample
        run = run_study(spec, world=build_world(BENCH_CONFIG, BENCH_COUNTRIES), analyses=False)
        if fingerprint(run)["summary_sha256"] != summary:
            tally.errors.append(f"served study seed {spec.seed} differs from a standalone run")


def make(workload: str, seed: int):
    """The workload object for a ``--workload`` name."""
    if workload == "serial":
        return StudyLoop(seed, ENGINE_CONFIG, SERIAL_COUNTRIES, PINNED_SERIAL, OBS_OFF)
    if workload == "chaos":
        return StudyLoop(seed, CHAOS_CONFIG, CHAOS_COUNTRIES, PINNED_CHAOS, OBS_TRACE)
    if workload == "serve":
        return ServeLoop(seed)
    raise ValueError(f"unknown workload: {workload!r}")
