"""Event recorders: the live half of the observability plane.

Two implementations share one duck type:

* :class:`TraceRecorder` — appends one flat row per event (see
  :mod:`repro.obs.events`), clocked on the simulated clock it was built with;
* :class:`NullRecorder` — the permanently-off recorder installed on every
  :class:`~repro.fabric.Internet` by default.  Instrumented hot paths guard
  with ``if obs.enabled:`` so a disabled run pays one attribute read and a
  branch per seam — near-zero overhead.

Span ids are recorder-local sequential integers; nesting is tracked with an
explicit stack, so a span's ``end`` event knows its id and every event
emitted inside a span records the innermost open span as its ``parent``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.obs.events import KIND_BEGIN, KIND_END, KIND_INSTANT, Event, freeze_attrs


class _NullSpan:
    """The shared no-op context manager :meth:`NullRecorder.span` returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """A recorder that records nothing; safe to share between worlds."""

    __slots__ = ()

    enabled = False

    @property
    def events(self) -> tuple[Event, ...]:
        """Always empty."""
        return ()

    def event(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Discard the event."""

    def span(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> _NullSpan:
        """A shared no-op context manager."""
        return _NULL_SPAN


#: The process-wide off switch: every Internet starts with this recorder.
NULL_RECORDER = NullRecorder()


class _Span:
    """Context manager that brackets a span with begin/end events."""

    __slots__ = ("_recorder", "_id", "name", "actor", "target", "detail")

    def __init__(
        self, recorder: "TraceRecorder", span_id: int,
        name: str, actor: str, target: str, detail: str,
    ) -> None:
        self._recorder = recorder
        self._id = span_id
        self.name = name
        self.actor = actor
        self.target = target
        self.detail = detail

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # The end event names the exception class when the span is unwound by
        # one — exceptions are normal control flow here (DNS failures, fault
        # injections), and which one fired is part of the deterministic story.
        attrs = {"error": exc_type.__name__} if exc_type is not None else None
        self._recorder._end_span(self._id, self.name, self.actor, self.target, self.detail, attrs)


class TraceRecorder:
    """An in-memory event bus clocked on simulated time.

    ``clock`` is anything with a ``now`` attribute in simulated seconds —
    normally the world's :class:`~repro.net.clock.SimClock`.  Events are
    appended as flat rows (see :mod:`repro.obs.events`); :attr:`events`
    builds the :class:`Event` views only when read.
    """

    __slots__ = ("_clock", "_rows", "_next_span", "_stack")

    enabled = True

    def __init__(self, clock) -> None:
        self._clock = clock
        self._rows: list[tuple] = []
        self._next_span = 0
        self._stack: list[int] = []

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Every row recorded so far; a row's position is its ``seq``."""
        return tuple(self._rows)

    @property
    def events(self) -> tuple[Event, ...]:
        """Everything recorded so far, in emission order."""
        return tuple(Event.from_row(seq, row) for seq, row in enumerate(self._rows))

    def clear(self) -> None:
        """Drop all events and reset counters (open spans are abandoned)."""
        self._rows.clear()
        self._next_span = 0
        self._stack.clear()

    def event(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record an instant event inside the innermost open span (if any)."""
        stack = self._stack
        row = (
            self._clock.now, name, KIND_INSTANT, 0, stack[-1] if stack else 0,
            actor, target, detail,
        )
        self._rows.append(row + freeze_attrs(attrs) if attrs else row)

    def span(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> _Span:
        """Open a span: emits ``begin`` now and ``end`` when the context exits."""
        stack = self._stack
        self._next_span = span_id = self._next_span + 1
        row = (
            self._clock.now, name, KIND_BEGIN, span_id, stack[-1] if stack else 0,
            actor, target, detail,
        )
        self._rows.append(row + freeze_attrs(attrs) if attrs else row)
        stack.append(span_id)
        return _Span(self, span_id, name, actor, target, detail)

    def _end_span(
        self,
        span_id: int,
        name: str,
        actor: str,
        target: str,
        detail: str,
        attrs: Optional[Mapping[str, object]],
    ) -> None:
        # Close any spans opened inside and never exited (an exception can
        # skip inner __exit__ only if the inner span was not a context
        # manager; popping to our id keeps the stack consistent regardless).
        stack = self._stack
        while stack and stack[-1] != span_id:
            stack.pop()
        if stack:
            stack.pop()
        row = (
            self._clock.now, name, KIND_END, span_id, stack[-1] if stack else 0,
            actor, target, detail,
        )
        self._rows.append(row + freeze_attrs(attrs) if attrs else row)
