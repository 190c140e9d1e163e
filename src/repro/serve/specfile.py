"""Queue spec files: the declarative input to ``repro serve``.

A queue spec is a JSON document describing everything a service run needs —
seed, horizon, tenant policies, and the studies each tenant submits or
schedules::

    {
      "seed": 5,
      "horizon": "3d",
      "tenants": {
        "acme":  {"max_queued": 8, "weight": 2.0},
        "umich": {"max_queued": 4}
      },
      "studies": [
        {
          "tenant": "acme",
          "name": "daily-sweep",
          "priority": 0,
          "world": {"scale": 0.002, "seed": 11, "fault_profile": "mild"},
          "study_seed": 9,
          "shards": 4,
          "schedule": {"interval": "@daily", "count": 3, "jitter": 0.1}
        },
        {
          "tenant": "umich",
          "name": "one-off",
          "world": {"scale": 0.002, "seed": 11}
        }
      ]
    }

``world`` maps straight onto :class:`~repro.sim.WorldConfig` fields;
``schedule`` onto :meth:`~repro.serve.schedule.Recurrence.from_dict`
(intervals accept the ``"1d"`` / ``"@daily"`` shorthand); omitting
``schedule`` submits the study immediately, once.  Because the spec file
fully determines the queue and the service is deterministic, a spec file
*is* a reproducible service run — same file, same bytes out.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Optional, Union

from repro.engine.study import StudySpec
from repro.faults.service import ServiceFaultPlan, get_service_profile
from repro.resilience import BreakerPolicy, StudyRetryPolicy
from repro.serve.queue import TenantPolicy
from repro.serve.schedule import Recurrence, parse_interval
from repro.serve.service import Service
from repro.sim import WorldConfig

#: Per-study keys the spec file maps onto :class:`StudySpec` fields.
_STUDY_KEYS = {
    "study_seed": "seed",
    "shards": "shards",
    "window": "window",
    "stop_threshold": "stop_threshold",
    "max_probes": "max_probes",
    "obs": "obs",
}

_WORLD_FIELDS = {field.name for field in fields(WorldConfig)}

#: Recognized top-level queue-spec keys.
_TOP_LEVEL_KEYS = {
    "seed",
    "horizon",
    "tenants",
    "studies",
    "service_faults",
    "retry",
    "breaker",
    "queue_bound",
    "shard_attempts",
}


class SpecfileError(ValueError):
    """The queue spec file is malformed."""


def load_specfile(path: Union[str, Path]) -> dict:
    """Read and structurally validate a queue spec file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecfileError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SpecfileError(f"{path}: top level must be an object")
    unknown = sorted(set(payload) - _TOP_LEVEL_KEYS)
    if unknown:
        raise SpecfileError(f"{path}: unknown top-level keys: {unknown}")
    return payload


def study_spec(entry: dict) -> StudySpec:
    """The :class:`StudySpec` for one ``studies`` entry."""
    world = entry.get("world", {})
    unknown = sorted(set(world) - _WORLD_FIELDS)
    if unknown:
        raise SpecfileError(f"study {entry.get('name')!r}: unknown world keys: {unknown}")
    kwargs: dict = {"config": WorldConfig(**world)}
    for key, field in sorted(_STUDY_KEYS.items()):
        if key in entry:
            kwargs[field] = entry[key]
    return StudySpec(**kwargs)


def _fault_plan(
    payload: dict,
    seed: int,
    override_profile: Optional[str],
    override_seed: Optional[int],
) -> Optional[ServiceFaultPlan]:
    """The service fault plan a spec (plus CLI overrides) asks for."""
    section = payload.get("service_faults", {})
    if not isinstance(section, dict):
        raise SpecfileError("service_faults must be an object")
    unknown = sorted(set(section) - {"profile", "seed"})
    if unknown:
        raise SpecfileError(f"service_faults: unknown keys: {unknown}")
    profile_name = (
        override_profile
        if override_profile is not None
        else section.get("profile", "none")
    )
    fault_seed = (
        override_seed if override_seed is not None else int(section.get("seed", 0))
    )
    try:
        profile = get_service_profile(profile_name)
    except ValueError as exc:
        raise SpecfileError(f"service_faults: {exc}") from None
    if profile.is_zero:
        return None
    return ServiceFaultPlan.for_service(seed, fault_seed, profile)


def build_service(
    payload: dict,
    *,
    workers: int = 1,
    state_dir: Optional[Union[str, Path]] = None,
    service_faults: Optional[str] = None,
    service_fault_seed: Optional[int] = None,
) -> tuple[Service, float]:
    """A ready-to-run :class:`Service` (plus its horizon) from a queue spec.

    Tenant policies are registered, scheduled studies get their recurrences,
    and unscheduled studies are submitted immediately.  Returns
    ``(service, horizon_seconds)`` — call ``service.run(until=horizon)``.

    The resilience knobs — ``service_faults``, ``retry``, ``breaker``,
    ``queue_bound``, ``shard_attempts`` — ride in the spec file so a chaos
    run is as declarative (and as reproducible) as a clean one;
    ``service_faults``/``service_fault_seed`` arguments override the spec's
    fault section (the ``repro serve --service-faults`` flag).
    """
    seed = int(payload.get("seed", 0))
    horizon = parse_interval(payload.get("horizon", 0.0))
    retry = (
        StudyRetryPolicy.from_dict(payload["retry"]) if "retry" in payload else None
    )
    breaker = (
        BreakerPolicy.from_dict(payload["breaker"]) if "breaker" in payload else None
    )
    queue_bound = (
        int(payload["queue_bound"]) if payload.get("queue_bound") is not None else None
    )
    shard_attempts = (
        int(payload["shard_attempts"])
        if payload.get("shard_attempts") is not None
        else None
    )
    service = Service(
        seed=seed,
        workers=workers,
        state_dir=state_dir,
        retry=retry,
        breaker=breaker,
        faults=_fault_plan(payload, seed, service_faults, service_fault_seed),
        shard_attempts=shard_attempts,
        queue_bound=queue_bound,
    )
    tenants = payload.get("tenants", {})
    for tenant in sorted(tenants):
        policy = tenants[tenant]
        service.register_tenant(
            tenant,
            TenantPolicy(
                max_queued=int(policy.get("max_queued", 8)),
                weight=float(policy.get("weight", 1.0)),
            ),
        )
    for entry in payload.get("studies", []):
        for key in ("tenant", "name"):
            if key not in entry:
                raise SpecfileError(f"study entry missing {key!r}: {sorted(entry)}")
        spec = study_spec(entry)
        priority = int(entry.get("priority", 0))
        schedule = entry.get("schedule")
        if schedule is None:
            service.submit(entry["tenant"], entry["name"], spec, priority=priority)
        else:
            service.schedule(
                entry["tenant"], entry["name"], spec,
                Recurrence.from_dict(schedule), priority=priority,
            )
    return service, horizon
