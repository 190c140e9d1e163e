"""Protocol timeline capture (Figures 1–4), as a view over the obs event bus.

Figures 1–4 of the paper are *timeline diagrams* of who talks to whom during
a request: the Luminati request path (Fig. 1), the NXDOMAIN measurement
(Fig. 2), the HTTPS two-phase scan (Fig. 3), and the monitoring probe
(Fig. 4).  We reproduce them as machine-checkable event traces: components
append steps to a :class:`Timeline`, tests assert the step sequence matches
the paper's diagram, and :meth:`Timeline.render` produces the figure.

Since the observability plane landed, a :class:`Timeline` is a *frozen* view
over a :class:`~repro.obs.recorder.TraceRecorder` bus: each step is an
``figure.step`` event, and :attr:`Timeline.steps` derives the immutable
:class:`TraceStep` records back out of it.  Figures and the obs plane share
one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.net.clock import SimClock
from repro.obs.events import FIGURE_STEP
from repro.obs.recorder import TraceRecorder


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One arrow in a timeline diagram: ``actor`` does ``action`` (to ``target``)."""

    actor: str
    action: str
    target: str = ""
    detail: str = ""

    def label(self) -> str:
        """Compact ``actor -> target: action`` form used in assertions."""
        arrow = f" -> {self.target}" if self.target else ""
        return f"{self.actor}{arrow}: {self.action}"


def _figure_bus() -> TraceRecorder:
    """A standalone event bus for figure capture (private simulated clock)."""
    return TraceRecorder(SimClock())


@dataclass(frozen=True, slots=True)
class Timeline:
    """An ordered protocol trace with a title, renderable as a figure.

    The record itself is frozen; steps accumulate on the underlying ``bus``
    (an obs :class:`~repro.obs.recorder.TraceRecorder`), whose events are
    immutable evidence.
    """

    title: str
    bus: TraceRecorder = field(default_factory=_figure_bus)

    def add(self, actor: str, action: str, target: str = "", detail: str = "") -> None:
        """Append one step (published as a ``figure.step`` event)."""
        self.bus.event(
            FIGURE_STEP,
            actor=actor,
            target=target,
            detail=detail,
            attrs={"action": action},
        )

    @property
    def steps(self) -> list[TraceStep]:
        """The figure's steps, derived from the bus in emission order."""
        return [
            TraceStep(
                actor=event.actor,
                action=event.attr("action") or "",
                target=event.target,
                detail=event.detail,
            )
            for event in self.bus.events
            if event.name == FIGURE_STEP
        ]

    def labels(self) -> list[str]:
        """All step labels in order (what tests compare against the diagrams)."""
        return [step.label() for step in self.steps]

    def actors(self) -> list[str]:
        """Distinct actors in first-appearance order."""
        seen: dict[str, None] = {}
        for step in self.steps:
            seen.setdefault(step.actor)
            if step.target:
                seen.setdefault(step.target)
        return list(seen)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def render(self) -> str:
        """Render as a numbered timeline, one circled step per line."""
        lines = [self.title, "=" * len(self.title)]
        for number, step in enumerate(self.steps, start=1):
            arrow = f" -> {step.target}" if step.target else ""
            detail = f"  [{step.detail}]" if step.detail else ""
            lines.append(f"({number}) {step.actor}{arrow}: {step.action}{detail}")
        return "\n".join(lines)

