"""Wall-clock spans the benchmark records around calls into each layer.

A ``--trace 1`` run installs :class:`LayerTrace`, which swaps timing
wrappers in for the module-level names the engine calls through and
restores the originals on exit; the program itself is not edited.  Each
span records its name, start, end, the span that caused it and the request
it belongs to (one timed call the benchmark makes: a study, or one service
step).  Spans stay in memory; a layer's self time is its spans' durations
minus the part their child spans cover.

The layers, outermost first:

* ``request`` — the benchmark's timed call; its self time is orchestration
  (run digest, world manifest, shard bookkeeping, cache lookups, trace
  assembly, and for ``serve`` the service loop itself);
* ``plan`` — :func:`repro.engine.study.compute_plans`;
* ``shard`` — one shard's execution; self time is what the shard does
  outside replay and measurement (session pinning, result encoding, trace
  event serialisation);
* ``replay`` — the shard's private world build;
* ``dns`` / ``http`` / ``https`` / ``monitoring`` — measurement attempts
  through each experiment's plan adapter;
* ``merge`` — :func:`repro.engine.study.merge_shard_results`.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

import repro.engine.runner as runner
import repro.engine.study as study

#: Span names in report order.
LAYERS = (
    "request", "plan", "shard", "replay",
    "dns", "http", "https", "monitoring", "merge",
)

#: ``(module, attribute, span name)`` for each wrapped call.
BOUNDARIES = (
    (study, "compute_plans", "plan"),
    (study, "execute_shard", "shard"),
    (study, "execute_shard_live", "shard"),
    (study, "merge_shard_results", "merge"),
    (runner, "build_world", "replay"),
)

# Span fields: ``[name, start, end, parent index, request id]``.
_NAME, _START, _END, _PARENT = range(4)


class _TimedAdapter:
    """A plan adapter whose measurement calls run inside a span.

    The span is named after the experiment; every other attribute,
    ``last_failure_kind`` included, reads through to the wrapped adapter.
    """

    def __init__(self, inner: object, trace: "LayerTrace") -> None:
        self._inner = inner
        name = inner.name  # type: ignore[attr-defined]
        self.attempt = trace.timed(name, inner.attempt)  # type: ignore[attr-defined]
        self.finish = trace.timed(name, inner.finish)  # type: ignore[attr-defined]

    def __getattr__(self, attr: str) -> object:
        return getattr(self._inner, attr)


class LayerTrace:
    """In-memory span recorder plus node-outcome counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``nodes``, ``attempts`` and one entry per terminal node outcome.
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._request = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        for module, attr, name in BOUNDARIES:
            self._patch(module, attr, self.timed(name, getattr(module, attr)))
        make_adapter = runner.make_adapter
        self._patch(
            runner, "make_adapter",
            lambda *args, **kwargs: _TimedAdapter(make_adapter(*args, **kwargs), self),
        )
        self._patch(
            runner, "measure_planned_node", self._counted(runner.measure_planned_node)
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module: object, attr: str, replacement: object) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call is one span called ``name``."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _counted(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            outcome, attempts, kind = fn(*args, **kwargs)
            self.counts["nodes"] += 1
            self.counts["attempts"] += attempts
            self.counts[outcome] += 1
            return outcome, attempts, kind

        return counted

    @contextmanager
    def request(self) -> Iterator[None]:
        """The root span around one timed call."""
        self._request += 1
        span = self._open("request")
        try:
            yield
        finally:
            self._close(span)

    def self_seconds(self) -> dict[str, float]:
        """Each layer's summed self time, in seconds."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, span in enumerate(self.spans):
            totals[span[_NAME]] += span[_END] - span[_START] - covered[index]
        return totals

    def span_count(self, name: str) -> int:
        """How many spans called ``name`` were recorded."""
        return sum(1 for span in self.spans if span[_NAME] == name)
