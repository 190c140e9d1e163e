"""The wall-clock profiling channel — the ONLY obs module allowed wall time.

Everything on the event bus is simulated time and participates in trace
digests.  Operators still want to know how long the run *actually* took and
how each stage spent it; those annotations are wall-clock by nature and
scheduling-dependent by nature (a shard finishes when its worker gets to
it, which depends on worker count).  They therefore live here, in a channel that
is never merged into the deterministic trace and never digested.

Lint rule ``OBS001`` enforces the boundary: wall-clock calls anywhere else
under ``src/repro/obs/`` are findings.  (This module also carries a
``DET002`` allow-list entry in ``pyproject.toml``.)
"""

from __future__ import annotations

import time
from typing import Optional


class _ProfileSection:
    """Context manager timing one labelled section of wall-clock work."""

    __slots__ = ("_channel", "_label", "_started")

    def __init__(self, channel: "ProfilingChannel", label: str) -> None:
        self._channel = channel
        self._label = label
        self._started = 0.0

    def __enter__(self) -> "_ProfileSection":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._channel._record(
            self._label, wall_seconds=round(time.perf_counter() - self._started, 6)
        )


class ProfilingChannel:
    """Digest-excluded wall-clock annotations for one run.

    A disabled channel (``ProfilingChannel(enabled=False)``) records nothing,
    so call sites never need their own guards.
    """

    __slots__ = ("enabled", "_notes", "_epoch")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._notes: list[dict] = []
        self._epoch = time.perf_counter() if enabled else 0.0

    @property
    def notes(self) -> tuple[dict, ...]:
        """Everything recorded so far, in wall-clock order."""
        return tuple(self._notes)

    def _record(self, label: str, **fields: object) -> None:
        if not self.enabled:
            return
        note: dict = {
            "label": label,
            "wall_offset_seconds": round(time.perf_counter() - self._epoch, 6),
        }
        note.update(fields)
        self._notes.append(note)

    def note(self, label: str, **fields: object) -> None:
        """Record a point annotation (e.g. ``cache.lookup``)."""
        self._record(label, **fields)

    def section(self, label: str) -> _ProfileSection:
        """Time a section of work: ``with profile.section("merge"): ...``."""
        return _ProfileSection(self, label)

    def to_dict(self) -> dict:
        """JSON-able form.  Wall-clock values — never merge into a trace."""
        return {"channel": "profiling", "clock": "wall", "notes": list(self._notes)}

    def total_seconds(self) -> Optional[float]:
        """Wall seconds since the channel was opened, or ``None`` if disabled."""
        if not self.enabled:
            return None
        return round(time.perf_counter() - self._epoch, 6)
