"""A deterministic metrics registry: counters, gauges, fixed-bucket histograms.

Each shard owns a private registry; the engine merges them in shard-index
order.  Merging must therefore be **associative and commutative** so the
merged snapshot is independent of shard count and completion order:

* counters add,
* gauges take the maximum (the only order-free combine for a point sample),
* histograms add bucket-wise — bucket boundaries are fixed per metric family
  and must agree across shards (enforced at merge time).

Label sets are canonicalized to sorted ``(key, value)`` string tuples, and
:meth:`MetricsRegistry.snapshot_json` emits canonical JSON, so two equal
registries serialize byte-identically.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterable, Mapping, Optional, Sequence

#: Default histogram boundaries, in simulated seconds.  Chosen for the
#: simulation's dynamic range: one pacing tick (0.05 s) up to a monitoring
#: watch window (hours).  The overflow (+Inf) bucket is implicit.
DEFAULT_BUCKETS = (0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0, 3600.0)

#: Histogram boundaries for service-level latencies (``repro serve``), in
#: simulated seconds.  Study latency — submission to completion, queueing
#: included — spans minutes (an idle queue) to simulated weeks (a starved
#: tenant behind heavy re-crawl traffic), a range DEFAULT_BUCKETS cannot
#: resolve.  One minute up to one week; +Inf implicit.
SERVICE_BUCKETS = (60.0, 600.0, 3_600.0, 21_600.0, 86_400.0, 259_200.0, 604_800.0)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical label identity: sorted keys, string values."""
    return tuple((key, str(labels[key])) for key in sorted(labels))


class _Family:
    """One metric family: a type, optional help text, and labelled samples."""

    __slots__ = ("name", "type", "help", "buckets", "samples")

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str = "",
        buckets: Optional[tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.buckets = buckets
        # counter/gauge: label key -> float.
        # histogram: label key -> [per-bucket counts..., overflow, count, sum].
        self.samples: dict[LabelKey, object] = {}


class MetricsRegistry:
    """Mutable registry with a deterministic, associative merge."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def __len__(self) -> int:
        return len(self._families)

    def _family(
        self,
        name: str,
        type_: str,
        help_: str,
        buckets: Optional[tuple[float, ...]] = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, type_, help_, buckets)
            self._families[name] = family
        elif family.type != type_:
            raise ValueError(
                f"metric {name!r} is a {family.type}, not a {type_}"
            )
        elif buckets is not None and family.buckets != buckets:
            raise ValueError(
                f"histogram {name!r} bucket mismatch: {family.buckets} vs {buckets}"
            )
        if help_ and not family.help:
            family.help = help_
        return family

    # -- instruments --------------------------------------------------------

    def counter(
        self, name: str, amount: float = 1.0, /, help: str = "", **labels: object
    ) -> None:
        """Add ``amount`` to a counter sample (merge: sum)."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease by {amount}")
        family = self._family(name, COUNTER, help)
        key = _label_key(labels)
        family.samples[key] = float(family.samples.get(key, 0.0)) + amount  # type: ignore[arg-type]

    def gauge(self, name: str, value: float, /, help: str = "", **labels: object) -> None:
        """Set a gauge sample (merge: max)."""
        family = self._family(name, GAUGE, help)
        family.samples[_label_key(labels)] = float(value)

    def histogram(
        self,
        name: str,
        value: float,
        /,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> None:
        """Observe one value into a fixed-bucket histogram (merge: add)."""
        self.observe_all(name, (value,), help=help, buckets=buckets, **labels)

    def observe_all(
        self,
        name: str,
        values: Sequence[float],
        /,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> None:
        """Observe ``values``, in order, into one histogram sample.

        The buckets are checked once for the whole batch; the sum accumulates
        value by value, so a batch equals the same values observed singly.
        """
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} buckets must strictly increase: {bounds}")
        family = self._family(name, HISTOGRAM, help, bounds)
        key = _label_key(labels)
        sample = family.samples.get(key)
        if sample is None:
            # per-bucket counts + overflow, then count and sum.
            sample = [0] * (len(bounds) + 1) + [0, 0.0]
            family.samples[key] = sample
        assert isinstance(sample, list)
        total = float(sample[-1])
        for value in values:
            # The first bucket whose bound is >= value; len(bounds) = +Inf.
            sample[bisect_left(bounds, value)] += 1
            total += float(value)
        sample[-2] += len(values)
        sample[-1] = total

    # -- merge --------------------------------------------------------------

    def update(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Merge ``other`` into this registry in place; returns ``self``."""
        for name in sorted(other._families):
            theirs = other._families[name]
            family = self._family(name, theirs.type, theirs.help, theirs.buckets)
            for key in sorted(theirs.samples):
                value = theirs.samples[key]
                mine = family.samples.get(key)
                if family.type == COUNTER:
                    family.samples[key] = float(mine or 0.0) + float(value)  # type: ignore[arg-type]
                elif family.type == GAUGE:
                    merged = float(value)  # type: ignore[arg-type]
                    if mine is not None:
                        merged = max(float(mine), merged)  # type: ignore[arg-type]
                    family.samples[key] = merged
                else:
                    assert isinstance(value, list)
                    if mine is None:
                        family.samples[key] = list(value[:-1]) + [float(value[-1])]
                    else:
                        assert isinstance(mine, list)
                        for index in range(len(value) - 1):
                            mine[index] += value[index]
                        mine[-1] = float(mine[-1]) + float(value[-1])
        return self

    @classmethod
    def merge_all(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """Fold registries into a fresh one (associative, order-independent)."""
        merged = cls()
        for registry in registries:
            merged.update(registry)
        return merged

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form: sorted families, sorted label keys."""
        payload: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            entry: dict = {"type": family.type}
            if family.help:
                entry["help"] = family.help
            if family.buckets is not None:
                entry["buckets"] = list(family.buckets)
            entry["samples"] = [
                {"labels": [list(pair) for pair in key], "value": family.samples[key]}
                for key in sorted(family.samples)
            ]
            payload[name] = entry
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict`."""
        registry = cls()
        for name in sorted(payload):
            entry = payload[name]
            buckets = tuple(entry["buckets"]) if "buckets" in entry else None
            family = registry._family(name, entry["type"], entry.get("help", ""), buckets)
            for sample in entry["samples"]:
                key = tuple((str(k), str(v)) for k, v in sample["labels"])
                value = sample["value"]
                family.samples[key] = list(value) if isinstance(value, list) else float(value)
        return registry

    def snapshot_json(self) -> str:
        """Canonical JSON snapshot: byte-identical for equal registries."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def prometheus_text(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.type}")
            for key in sorted(family.samples):
                value = family.samples[key]
                if family.type == HISTOGRAM:
                    assert isinstance(value, list) and family.buckets is not None
                    cumulative = 0
                    for bound, count in zip(family.buckets, value):
                        cumulative += count
                        labels = _render_labels(key + (("le", _format_float(bound)),))
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _render_labels(key + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{labels} {value[-2]}")
                    lines.append(f"{name}_sum{_render_labels(key)} {_format_float(value[-1])}")
                    lines.append(f"{name}_count{_render_labels(key)} {value[-2]}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} {_format_float(float(value))}"  # type: ignore[arg-type]
                    )
        return "\n".join(lines) + "\n" if lines else ""


def _format_float(value: float) -> str:
    """Render a number without a trailing ``.0`` for integral values."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    pairs = []
    for name, value in key:
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        pairs.append(f'{name}="{escaped}"')
    return "{" + ",".join(pairs) + "}"
