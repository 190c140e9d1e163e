"""Recurring re-crawl schedules on the simulated clock.

A deployed violation monitor re-measures on a cadence — daily NXDOMAIN
sweeps, weekly certificate scans — and real schedulers jitter their fire
times so a thousand tenants don't thunder in the same second.  Both live
here, deterministically: fire times are pure functions of the schedule and
the occurrence index, and jitter comes from a keyed hash of
``(service seed, schedule key, occurrence)`` — never an RNG stream, never
the wall clock — so a service run replays bit-for-bit.

``parse_interval`` accepts the cron-flavoured shorthand used by queue spec
files (``"45s"``, ``"90m"``, ``"6h"``, ``"1d"``, ``"@hourly"``,
``"@daily"``, ``"@weekly"``) alongside plain numbers of seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.engine.sharding import derive_seed
from repro.records import slot_init

#: Resolution of the keyed-hash jitter fraction.
_JITTER_RESOLUTION = 2**32

#: Named cron-style presets accepted by :func:`parse_interval`.
_PRESETS = {
    "@minutely": 60.0,
    "@hourly": 3_600.0,
    "@daily": 86_400.0,
    "@weekly": 604_800.0,
}

#: Unit suffixes accepted by :func:`parse_interval`.
_UNITS = {"s": 1.0, "m": 60.0, "h": 3_600.0, "d": 86_400.0, "w": 604_800.0}


def jitter_fraction(seed: object, *parts: object) -> float:
    """A deterministic fraction in ``[0, 1)`` from a keyed hash.

    Position-independent by construction: the fraction depends only on the
    key path, not on how many schedules fired before this one — the same
    property the fault plane relies on (see :mod:`repro.faults.plan`).
    """
    return (derive_seed(seed, "jitter", *parts) % _JITTER_RESOLUTION) / _JITTER_RESOLUTION


def parse_interval(value: Union[str, int, float]) -> float:
    """Seconds for an interval spec: number, ``"<n><unit>"``, or preset."""
    if isinstance(value, (int, float)):
        return float(value)
    text = value.strip().lower()
    if text in _PRESETS:
        return _PRESETS[text]
    unit = _UNITS.get(text[-1:])
    if unit is not None:
        try:
            return float(text[:-1]) * unit
        except ValueError:
            raise ValueError(f"bad interval spec: {value!r}") from None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad interval spec: {value!r}") from None


@slot_init
@dataclass(frozen=True, slots=True)
class Recurrence:
    """A recurring fire pattern: ``start + n * interval``, plus keyed jitter.

    ``count`` bounds the number of fires (``0`` = unbounded; the service
    horizon bounds it instead).  ``jitter`` is the fraction of the interval
    a fire may be pushed *late*; the exact shift for occurrence ``n`` is
    ``jitter * interval * jitter_fraction(seed, key, n)``.
    """

    interval: float
    count: int = 0
    start: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive: {self.interval}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0: {self.count}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0: {self.start}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    @classmethod
    def once(cls, at: float) -> "Recurrence":
        """A single fire at simulated time ``at``."""
        return cls(interval=1.0, count=1, start=at)

    @classmethod
    def from_dict(cls, payload: dict) -> "Recurrence":
        """Build from a queue-spec dict (``interval`` accepts shorthand)."""
        if "at" in payload:
            return cls.once(parse_interval(payload["at"]))
        return cls(
            interval=parse_interval(payload["interval"]),
            count=int(payload.get("count", 0)),
            start=parse_interval(payload.get("start", 0.0)),
            jitter=float(payload.get("jitter", 0.0)),
        )

    def fire_time(self, occurrence: int, *, seed: object = 0, key: object = "") -> float:
        """When occurrence ``occurrence`` fires (jitter included)."""
        if occurrence < 0:
            raise ValueError(f"occurrence must be >= 0: {occurrence}")
        base = self.start + occurrence * self.interval
        if self.jitter:
            base += self.jitter * self.interval * jitter_fraction(seed, key, occurrence)
        return base

    def occurrences(
        self, horizon: float, *, seed: object = 0, key: object = ""
    ) -> Iterator[tuple[int, float]]:
        """``(occurrence, fire_time)`` pairs with ``fire_time <= horizon``."""
        occurrence = 0
        while self.count == 0 or occurrence < self.count:
            when = self.fire_time(occurrence, seed=seed, key=key)
            if when > horizon:
                return
            yield occurrence, when
            occurrence += 1
