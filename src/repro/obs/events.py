"""The observability plane's record shapes: flat event rows and :class:`Event`.

Events are the simulation's flight recorder.  Every timestamp is *simulated*
time (the shard world's :class:`~repro.net.clock.SimClock`), every attribute
value is a string, and attribute sets are stored sorted — so the serialized
form of a trace is a pure function of the run's spec, byte-identical across
worker counts, interleavings, and crash/resume histories.  Wall-clock
annotations never appear here; they live in the digest-excluded profiling
channel (:mod:`repro.obs.profiling`).

A recorder stores each event as one flat **row** of atomic values::

    (ts, name, kind, span, parent, actor, target, detail, key1, value1, ...)

— the first :data:`ROW_FIELDS` positions are fixed, sorted attribute pairs
follow flattened, and the event's ``seq`` is the row's position in its
buffer.  Rows hold no containers, so CPython's cyclic collector untracks
them and a long trace costs the collector nothing.  :class:`Event` is the
readable view a row turns into on demand (figures, tests, interactive use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

#: Event kinds: a point-in-time marker, or the two ends of a span.
KIND_INSTANT = "instant"
KIND_BEGIN = "begin"
KIND_END = "end"

#: The event name the figure machinery (:mod:`repro.tracing`) publishes
#: timeline steps under; the diagram is a filtered view over the bus.
FIGURE_STEP = "figure.step"

#: Fixed leading fields of a row; flattened attribute pairs follow them.
ROW_FIELDS = 8


def freeze_attrs(attrs: Optional[Mapping[str, object]]) -> tuple[str, ...]:
    """Canonicalize an attribute mapping into a row's tail: sorted keys,
    string values, flattened to ``(key1, value1, key2, value2, ...)``."""
    if not attrs:
        return ()
    if len(attrs) == 1:
        ((key, value),) = attrs.items()
        return (key, str(value))
    flat: tuple[str, ...] = ()
    for key in sorted(attrs):
        flat += (key, str(attrs[key]))
    return flat


@dataclass(frozen=True, slots=True)
class Event:
    """One record on the event bus.

    ``span``/``parent`` are recorder-local span ids (0 = none): an ``end``
    event carries the same ``span`` id as its ``begin``, and nested spans
    point at their enclosing span via ``parent``.  ``seq`` is the recorder's
    emission counter — the total order within one shard even when simulated
    time stands still.
    """

    ts: float
    seq: int
    name: str
    kind: str = KIND_INSTANT
    span: int = 0
    parent: int = 0
    actor: str = ""
    target: str = ""
    detail: str = ""
    attrs: tuple[tuple[str, str], ...] = ()

    def attr(self, key: str) -> Optional[str]:
        """The value of one attribute, or ``None``."""
        for name, value in self.attrs:
            if name == key:
                return value
        return None

    @classmethod
    def from_row(cls, seq: int, row: tuple) -> "Event":
        """The view of the row at position ``seq`` of a recorder buffer."""
        ts, name, kind, span, parent, actor, target, detail = row[:ROW_FIELDS]
        flat = row[ROW_FIELDS:]
        return cls(
            ts, seq, name, kind, span, parent, actor, target, detail,
            tuple(zip(flat[::2], flat[1::2])),
        )
