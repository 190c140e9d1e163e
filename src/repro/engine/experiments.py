"""Plan-driven adapters around the four experiment implementations.

The legacy experiments crawl adaptively: they ask Luminati for *some* node in
a country and decide afterwards whether to keep it.  The engine inverts
control — it already knows exactly which nodes a shard must measure — so each
adapter here drives the same ``measure_once``-style primitives at one
*specific* node (via session pinning) and classifies every attempt as

* ``ATTEMPT_OK`` — the planned node was measured and its record kept;
* ``ATTEMPT_RETRY`` — transient churn (no node answered, a session failover
  landed elsewhere, or the node disappeared mid-scan); worth retrying;
* ``ATTEMPT_SKIP`` — a terminal, per-node methodology verdict (the §4
  footnote-8 Google-resolver overlap); retrying cannot change it.
* ``ATTEMPT_INVALID`` — the measurement completed but failed consensus
  confirmation (see :class:`~repro.core.validity.ValidityPolicy`); the
  record is discarded and the node is terminal for this plan entry.

Adapters accumulate kept records in a dataset of their kind;
:meth:`finish` returns it for the shard's slice of the plan.

When the run's :class:`ValidityPolicy` demands confirmations, a successful
measurement is repeated through fresh pinned sessions and its *violation
signature* — the violation-relevant projection of the record, e.g. the set
of modified object kinds for §5 — must agree before the record is kept.
Signatures deliberately exclude per-probe artefacts (minted probe domains,
randomly sampled site batteries), so honest repeat measurements agree and
only genuinely unstable observations are rejected.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.core.experiments.dataset import Dataset
from repro.core.experiments.dns_hijack import DnsDataset, DnsHijackExperiment
from repro.core.experiments.http_mod import HttpDataset, HttpModExperiment
from repro.core.experiments.https_mitm import HttpsMitmExperiment
from repro.core.experiments.monitoring import MonitoringExperiment
from repro.core.export import empty_dataset
from repro.core.validity import ValidityPolicy
from repro.faults import KIND_STALE
from repro.sim.world import World

ATTEMPT_OK = "ok"
ATTEMPT_RETRY = "retry"
ATTEMPT_SKIP = "skip"
ATTEMPT_INVALID = "invalid"

#: Bounded re-pins when a confirmation probe keeps landing on the wrong
#: node; exhausting them retries the whole plan entry via the normal path.
CONFIRM_LANDING_TRIES = 4

#: Canonical execution order within a shard — part of the run's determinism
#: contract, so it is fixed here rather than left to dict ordering.
EXPERIMENT_ORDER = ("dns", "http", "https", "monitoring")


class PlanAdapter(Protocol):
    """One experiment, driven node-by-node from a precomputed plan."""

    name: str
    #: Taxonomy kind of the most recent non-OK attempt (``None`` otherwise).
    last_failure_kind: Optional[str]

    def next_session(self) -> str:
        """A fresh session label (pinned to the target before each attempt)."""
        ...

    def attempt(self, zid: str, country: str, session: str) -> str:
        """One measurement attempt at the planned node; an ``ATTEMPT_*`` verdict."""
        ...

    def finish(self) -> Dataset:
        """Close out the shard's slice and return its dataset."""
        ...


class _AdapterBase:
    """Session minting, probe accounting, consensus confirmation, and the
    dataset kept records go to.

    Subclasses set ``name`` and ``experiment_type`` and implement
    ``_measure`` (one raw measurement, returning a verdict and the would-be
    record *without* keeping it) and ``_signature`` (the violation-relevant
    projection confirmations must agree on).
    """

    name: str
    experiment_type: type

    def __init__(self, world: World, seed: int, validity: ValidityPolicy) -> None:
        self._experiment = self.experiment_type(world, seed=seed)
        self._world = world
        self._validity = validity
        self._probes = 0
        self._dataset: Dataset = empty_dataset(self.name)
        self.last_failure_kind: Optional[str] = None

    def next_session(self) -> str:
        return self._experiment.controller.next_session()

    def _count_probe(self) -> None:
        self._probes += 1

    # -- subclass hooks -----------------------------------------------------

    def _measure(self, zid: str, country: str, session: str):
        raise NotImplementedError

    def _signature(self, record):
        raise NotImplementedError

    # -- the drive loop's entry point ---------------------------------------

    def attempt(self, zid: str, country: str, session: str) -> str:
        self.last_failure_kind = None
        verdict, record = self._measure(zid, country, session)
        if verdict != ATTEMPT_OK:
            if verdict == ATTEMPT_RETRY:
                self.last_failure_kind = (
                    getattr(self._experiment, "last_failure_kind", None) or KIND_STALE
                )
            return verdict
        if self._validity.confirmations > 0 and record is not None:
            confirmed = self._confirm(zid, country, record)
            if confirmed != ATTEMPT_OK:
                return confirmed
        if record is not None:
            self._dataset.records.append(record)
        return ATTEMPT_OK

    def finish(self) -> Dataset:
        """Close out the shard's slice and return its dataset."""
        self._dataset.probes = self._probes
        return self._dataset

    def _confirm(self, zid: str, country: str, reference) -> str:
        """Repeat the measurement until the policy's consensus is met.

        Disagreement on the violation signature is ``ATTEMPT_INVALID`` — the
        defining defense: a violation is only flagged when independent
        measurements of the same node agree on it.
        """
        want = self._signature(reference)
        for _ in range(self._validity.confirmations):
            verdict, record = self._confirm_measure(zid, country)
            if verdict != ATTEMPT_OK:
                return verdict
            if self._signature(record) != want:
                self.last_failure_kind = KIND_STALE
                return ATTEMPT_INVALID
        return ATTEMPT_OK

    def _confirm_measure(self, zid: str, country: str):
        """One confirmation probe, re-pinning through churn a bounded number
        of times before giving up on this whole attempt."""
        for _ in range(CONFIRM_LANDING_TRIES):
            session = self.next_session()
            self._world.superproxy.pin_session(session, zid)
            verdict, record = self._measure(zid, country, session)
            if verdict == ATTEMPT_RETRY:
                continue
            return verdict, record
        self.last_failure_kind = (
            getattr(self._experiment, "last_failure_kind", None) or KIND_STALE
        )
        return ATTEMPT_RETRY, None


class DnsPlanAdapter(_AdapterBase):
    """§4 NXDOMAIN hijacking, plan-driven."""

    name = "dns"
    experiment_type = DnsHijackExperiment

    _dataset: DnsDataset

    def _measure(self, zid: str, country: str, session: str):
        self._count_probe()
        got, record, filtered = self._experiment.measure_once(country, session)
        if got != zid:
            return ATTEMPT_RETRY, None
        if filtered:
            self._dataset.filtered_google_overlap += 1
            return ATTEMPT_SKIP, None
        if record is None:
            return ATTEMPT_RETRY, None
        return ATTEMPT_OK, record

    def _signature(self, record):
        # Probe domains are minted fresh per measurement, so the hijack
        # landing page may embed different names; the hijack verdict itself
        # is the stable observation.
        return record.hijacked

    def finish(self) -> DnsDataset:
        super().finish()
        self._dataset.unique_dns_servers = len(
            {r.dns_server_ip for r in self._dataset.records}
        )
        return self._dataset


class HttpPlanAdapter(_AdapterBase):
    """§5 content modification, plan-driven.

    The 3-per-AS sampling economics are disabled
    (``apply_sampling_policy=False``): the plan already fixes coverage, and a
    shard-local AS tally would depend on how the pool was split.
    """

    name = "http"
    experiment_type = HttpModExperiment

    _dataset: HttpDataset

    def _measure(self, zid: str, country: str, session: str):
        self._count_probe()
        got, record = self._experiment.measure_once(
            country, session, apply_sampling_policy=False
        )
        if got != zid or record is None:
            return ATTEMPT_RETRY, None
        return ATTEMPT_OK, record

    def _signature(self, record):
        return (
            tuple(sorted(kind.name for kind in record.modified_bodies)),
            record.via_token,
            record.cached_dynamic,
        )

    def finish(self) -> HttpDataset:
        super().finish()
        self._dataset.flagged_ases = self._experiment.flagged_ases
        return self._dataset


class HttpsPlanAdapter(_AdapterBase):
    """§6 certificate replacement, plan-driven."""

    name = "https"
    experiment_type = HttpsMitmExperiment

    def _measure(self, zid: str, country: str, session: str):
        self._count_probe()
        got, record = self._experiment.measure_once(country, session)
        if got != zid or record is None:
            return ATTEMPT_RETRY, None
        return ATTEMPT_OK, record

    def _signature(self, record):
        # The initial three-site sample is drawn randomly per measurement, so
        # honest scans of the same node cover different sites; what must
        # agree is whether interception was seen and by which issuers.
        return (
            record.any_replaced,
            tuple(sorted({site.issuer_cn for site in record.replaced_sites()})),
        )


class MonitoringPlanAdapter(_AdapterBase):
    """§7 content monitoring, plan-driven.

    Probes accumulate in the experiment's pending set; :meth:`finish` waits
    out the 24-hour watch window once for the whole shard and resolves every
    probe's access log.  Consensus confirmation does not apply: the
    observation is asynchronous (whatever re-fetches the probe URL within 24
    hours), so there is no per-attempt record to confirm.
    """

    name = "monitoring"
    experiment_type = MonitoringExperiment

    def attempt(self, zid: str, country: str, session: str) -> str:
        self.last_failure_kind = None
        self._count_probe()
        got = self._experiment.probe_once(country, session, only_zid=zid)
        if got != zid:
            self.last_failure_kind = (
                getattr(self._experiment, "last_failure_kind", None) or KIND_STALE
            )
            return ATTEMPT_RETRY
        return ATTEMPT_OK

    def finish(self) -> Dataset:
        self._dataset.records.extend(self._experiment.resolve_pending())
        return super().finish()


_ADAPTERS = {
    "dns": DnsPlanAdapter,
    "http": HttpPlanAdapter,
    "https": HttpsPlanAdapter,
    "monitoring": MonitoringPlanAdapter,
}


def make_adapter(
    name: str,
    world: World,
    seed: int,
    validity: Optional[ValidityPolicy] = None,
) -> PlanAdapter:
    """The plan adapter for one experiment name."""
    try:
        factory = _ADAPTERS[name]
    except KeyError:
        raise ValueError(f"unknown experiment: {name!r}") from None
    return factory(world, seed, validity if validity is not None else ValidityPolicy())
