"""Interprocedural taint: nondeterminism sources → determinism sinks.

Two cooperating passes over the :class:`~repro.lint.program.callgraph.ProgramIndex`:

1. A demand-driven, memoized *summary solver*: for every function, which
   taint kinds can its return value carry (``return_kinds``) and which of
   its parameters flow to its return (``param_to_return``)?  Call links
   recorded in the per-module summaries are expanded through the index;
   calls that resolve to nothing fold their argument taint conservatively.
2. A worklist *param-to-sink* fixpoint: for every function, which of its
   parameters reach a sink — directly, or by being passed onward to a
   callee whose own parameter reaches one?  Concrete source taint arriving
   at any link of such a chain materializes a finding at the final sink.

Every finding carries the full source→sink hop list as
:class:`~repro.lint.engine.TraceStep` records, so the report reads as a
story: *read the wall clock here, returned it there, passed it as
``config``, digested it at the sink*.

Rules:

* ``DET100`` — wall-clock reads reaching a sink.
* ``DET101`` — unseeded RNG / OS entropy reaching a sink.
* ``DET102`` — process environment (``os.environ``, ``os.getenv``,
  ``id()``, pids) reaching a sink.
* ``DET103`` — unordered ``set`` iteration order reaching a sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.lint.engine import Finding, TraceStep
from repro.lint.program.callgraph import ProgramIndex
from repro.lint.program.symbols import (
    KIND_ENV,
    KIND_RNG,
    KIND_SETORDER,
    KIND_WALLCLOCK,
    CallSite,
    CallTaint,
    FunctionSummary,
    SinkSite,
    Taint,
    Witness,
)
from repro.records import slot_init

KIND_RULES: Mapping[str, str] = {
    KIND_WALLCLOCK: "DET100",
    KIND_RNG: "DET101",
    KIND_ENV: "DET102",
    KIND_SETORDER: "DET103",
}

KIND_LABELS: Mapping[str, str] = {
    KIND_WALLCLOCK: "wall-clock value",
    KIND_RNG: "unseeded-RNG value",
    KIND_ENV: "process-environment value",
    KIND_SETORDER: "set-iteration-order value",
}

FLOW_RULE_DOCS: tuple[tuple[str, str, str], ...] = (
    (
        "DET100",
        "wall-clock value flows into a determinism sink",
        "Run digests, manifests, traces and merged metrics define a run's "
        "identity; a wall-clock read anywhere upstream makes two identical "
        "runs publish different results.",
    ),
    (
        "DET101",
        "unseeded randomness flows into a determinism sink",
        "Only seed-derived randomness may influence published outputs; "
        "os.urandom / the shared random module make reruns unverifiable.",
    ),
    (
        "DET102",
        "process environment flows into a determinism sink",
        "os.environ, pids and id() vary per host and per process; if they "
        "feed a sink, the run's identity silently depends on the machine.",
    ),
    (
        "DET103",
        "set iteration order flows into a determinism sink",
        "Set order depends on PYTHONHASHSEED; ordered artifacts built from "
        "it differ between runs even with identical seeds.",
    ),
)

#: Recursion guard for pathological call-taint nesting.
_MAX_DEPTH = 40


@slot_init
@dataclass(frozen=True, slots=True)
class _SinkRef:
    """The terminal sink of a param→sink chain."""

    path: str
    line: int
    sink: str


@slot_init
@dataclass(frozen=True, slots=True)
class _Chain:
    """Steps from 'parameter p of f' to a concrete sink."""

    ref: _SinkRef
    steps: tuple[TraceStep, ...]


class _FlowSolver:
    """Summary solver + param-to-sink fixpoint over one program index."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        # fid -> (return kind witnesses, param -> steps-to-return)
        self._summaries: dict[
            str, tuple[dict[str, Witness], dict[str, tuple[TraceStep, ...]]]
        ] = {}
        self._visiting: set[str] = set()
        # fid -> param -> chains to sinks
        self.param_sinks: dict[str, dict[str, tuple[_Chain, ...]]] = {}
        self.findings: dict[tuple[str, str, int, str, str], Finding] = {}

    # -- argument mapping ----------------------------------------------------

    def _arg_for_param(
        self, call: CallSite | CallTaint, callee: FunctionSummary, param: str
    ) -> Taint | None:
        """The argument taint a call binds to ``param`` of ``callee``."""
        params = list(callee.params)
        offset = 1 if params and params[0] in ("self", "cls") else 0
        positional = params[offset:]
        candidates: list[Taint] = []
        for position, taint in enumerate(call.args):
            if position < len(positional) and positional[position] == param:
                candidates.append(taint)
        for name, taint in call.kwargs:
            if name == param:
                candidates.append(taint)
            elif name == "**":
                # ``f(**payload)`` may bind any parameter: conservative.
                candidates.append(taint)
        if not candidates:
            return None
        return Taint.merge(candidates)

    # -- summary solver ------------------------------------------------------

    def summary_of(
        self, fid: str
    ) -> tuple[dict[str, Witness], dict[str, tuple[TraceStep, ...]]]:
        """(return-kind witnesses, param→return steps) for one function."""
        cached = self._summaries.get(fid)
        if cached is not None:
            return cached
        if fid in self._visiting:
            # Back-edge in a recursive cycle: the fixpoint converges from
            # bottom; the outer frame will absorb whatever this one finds.
            return ({}, {})
        self._visiting.add(fid)
        function = self.index.functions[fid]
        path = self.index.path_of[fid]
        kinds, params = self._eval(function.returns, path, 0)
        result = (kinds, params)
        self._visiting.discard(fid)
        self._summaries[fid] = result
        return result

    def _eval(
        self, taint: Taint, owner_path: str, depth: int
    ) -> tuple[dict[str, Witness], dict[str, tuple[TraceStep, ...]]]:
        """Expand a taint value: concrete kind witnesses + open param flows."""
        kinds: dict[str, Witness] = {}
        params: dict[str, tuple[TraceStep, ...]] = {}
        for kind, witness in taint.kinds:
            kinds.setdefault(kind, witness)
        for name, steps in taint.params:
            params.setdefault(name, steps)
        if depth >= _MAX_DEPTH:
            return kinds, params
        for link in taint.calls:
            callee_id = (
                self.index.resolve_callee(link.callee) if link.resolved else None
            )
            if callee_id is None:
                # Unknown callee: fold arguments conservatively.
                for part in list(link.args) + [value for _, value in link.kwargs]:
                    sub_kinds, sub_params = self._eval(part, owner_path, depth + 1)
                    for kind, witness in sorted(sub_kinds.items()):
                        kinds.setdefault(kind, witness)
                    for name, steps in sorted(sub_params.items()):
                        params.setdefault(name, steps)
                continue
            callee = self.index.functions[callee_id]
            short = callee.qualname.rpartition(".")[2]
            returned = TraceStep(
                owner_path, link.line, f"value returned from {short}()"
            )
            ret_kinds, ret_params = self.summary_of(callee_id)
            for kind, witness in sorted(ret_kinds.items()):
                kinds.setdefault(
                    kind, Witness(witness.symbol, witness.steps + (returned,))
                )
            for callee_param, inner_steps in sorted(ret_params.items()):
                argument = self._arg_for_param(link, callee, callee_param)
                if argument is None:
                    continue
                handoff = TraceStep(
                    owner_path, link.line,
                    f"passed as argument '{callee_param}' to {short}()",
                )
                arg_kinds, arg_params = self._eval(argument, owner_path, depth + 1)
                bridge = (handoff,) + inner_steps + (returned,)
                for kind, witness in sorted(arg_kinds.items()):
                    kinds.setdefault(
                        kind, Witness(witness.symbol, witness.steps + bridge)
                    )
                for name, steps in sorted(arg_params.items()):
                    params.setdefault(name, steps + bridge)
        return kinds, params

    # -- findings ------------------------------------------------------------

    def _emit(self, kind: str, witness: Witness, ref: _SinkRef) -> None:
        rule = KIND_RULES[kind]
        label = KIND_LABELS[kind]
        trace = witness.steps + (
            TraceStep(ref.path, ref.line, f"flows into sink {ref.sink}(...)"),
        )
        finding = Finding(
            rule=rule,
            path=ref.path,
            line=ref.line,
            col=0,
            symbol=f"{witness.symbol}->{ref.sink}",
            message=(
                f"{label} from {witness.symbol} reaches determinism sink "
                f"{ref.sink}() ({len(trace)} hops; see trace)"
            ),
            trace=trace,
        )
        key = (rule, ref.path, ref.line, witness.symbol, ref.sink)
        existing = self.findings.get(key)
        if existing is None or len(finding.trace) < len(existing.trace):
            self.findings[key] = finding

    def _sink_ref(self, fid: str, sink: SinkSite) -> _SinkRef:
        return _SinkRef(path=self.index.path_of[fid], line=sink.line, sink=sink.sink)

    def solve(self) -> list[Finding]:
        """Run both passes and return the deduplicated findings."""
        # Pass 1: direct + via-return flows into each function's own sinks,
        # and the initial param→sink chains.
        for function in self.index.iter_functions():
            fid = function.qualname
            path = self.index.path_of[fid]
            for sink in function.sinks:
                ref = self._sink_ref(fid, sink)
                kinds, params = self._eval(sink.taint, path, 0)
                for kind, witness in sorted(kinds.items()):
                    self._emit(kind, witness, ref)
                sink_step = TraceStep(
                    ref.path, ref.line, f"flows into sink {ref.sink}(...)"
                )
                for name, steps in sorted(params.items()):
                    chain = _Chain(ref=ref, steps=steps + (sink_step,))
                    existing = self.param_sinks.setdefault(fid, {})
                    existing[name] = existing.get(name, ()) + (chain,)

        # Pass 2: propagate param→sink chains up the call graph to a
        # fixpoint, emitting findings whenever concrete taint meets a chain.
        changed = True
        rounds = 0
        while changed and rounds < len(self.index.functions) + 2:
            changed = False
            rounds += 1
            for function in self.index.iter_functions():
                fid = function.qualname
                path = self.index.path_of[fid]
                for call in function.calls:
                    callee_id = self.index.resolve_callee(call.callee)
                    if callee_id is None:
                        continue
                    callee = self.index.functions[callee_id]
                    short = callee.qualname.rpartition(".")[2]
                    chains = self.param_sinks.get(callee_id, {})
                    for callee_param in sorted(chains):
                        argument = self._arg_for_param(call, callee, callee_param)
                        if argument is None:
                            continue
                        handoff = TraceStep(
                            path, call.line,
                            f"passed as argument '{callee_param}' to {short}()",
                        )
                        arg_kinds, arg_params = self._eval(argument, path, 0)
                        for chain in chains[callee_param]:
                            for kind, witness in sorted(arg_kinds.items()):
                                self._emit(
                                    kind,
                                    Witness(
                                        witness.symbol,
                                        witness.steps + (handoff,) + chain.steps[:-1],
                                    ),
                                    chain.ref,
                                )
                            for name, steps in sorted(arg_params.items()):
                                lifted = _Chain(
                                    ref=chain.ref,
                                    steps=steps + (handoff,) + chain.steps,
                                )
                                existing = self.param_sinks.setdefault(fid, {})
                                current = existing.get(name, ())
                                if not _has_chain(current, lifted):
                                    existing[name] = current + (lifted,)
                                    changed = True

        ordered = sorted(
            self.findings.values(),
            key=lambda f: (f.sort_key, len(f.trace)),
        )
        return ordered


def _has_chain(chains: tuple[_Chain, ...], candidate: _Chain) -> bool:
    """Chain dedup: same terminal sink counts as covered (keeps fixpoint finite)."""
    return any(chain.ref == candidate.ref for chain in chains)


def analyze_flows(index: ProgramIndex) -> list[Finding]:
    """All DET100–DET103 findings for one program index."""
    return _FlowSolver(index).solve()


def iter_flow_rule_docs() -> Iterator[tuple[str, str, str]]:
    yield from FLOW_RULE_DOCS
