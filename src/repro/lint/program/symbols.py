"""Per-module symbol tables and taint summaries.

One parse of one file yields one :class:`ModuleSummary` — a compact,
JSON-able record of everything the whole-program passes need:

* the module's functions (including methods, as ``module.Class.method``)
  with parameter lists;
* every call site, carrying the *taint* of each argument — which
  nondeterminism sources, which project-function return values, and which
  enclosing-function parameters feed it;
* every sink call site (run digests, shard-cache entries, trace assembly,
  merged metrics — see :data:`repro.lint.config.DEFAULT_FLOW_SINKS`);
* module-level mutable state and the functions that mutate it;
* worker-entrypoint evidence: project functions passed by name into
  ``*.run(...)`` / ``*.submit(...)`` / ``*.map(...)`` scheduling calls.

Taint here is *expression-level and flow-insensitive within statements but
ordered across them*: the walker processes statements in source order and
propagates through assignments, augmented assignments, tuple unpacking,
attribute stores on ``self``, loop targets, and ``with`` bindings.  Calls to
functions the resolver cannot pin to a project symbol fold their argument
taint into their result (conservative); calls to project functions are
recorded as links for the interprocedural fixpoint in
:mod:`repro.lint.program.taint`.

The summary is the *only* thing the interprocedural passes consume — ASTs
never outlive the per-file visit, which is what lets the incremental cache
skip parsing entirely for unchanged files.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Mapping, Sequence

from repro.lint.config import LintConfig
from repro.lint.engine import TraceStep
from repro.lint.rules.determinism import is_wall_clock_call
from repro.records import slot_init

# -- taint kinds -------------------------------------------------------------

KIND_WALLCLOCK = "wallclock"
KIND_RNG = "rng"
KIND_ENV = "env"
KIND_SETORDER = "setorder"

ALL_KINDS = (KIND_WALLCLOCK, KIND_RNG, KIND_ENV, KIND_SETORDER)

_RNG_DIRECT_CALLS = frozenset({"os.urandom", "uuid.uuid4"})

_ENV_CALLS = frozenset({"os.getenv", "os.getpid", "os.getppid"})

#: Order-extracting callables: applied to a set expression they surface
#: hash-order into an ordered value.
_ORDER_EXTRACTORS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

#: Order-insensitive reducers: their result does not leak set order (and
#: ``sorted`` actively launders it).
_ORDER_SANITIZERS = frozenset({"sorted", "len", "sum", "min", "max", "any", "all",
                               "set", "frozenset"})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem", "extend",
    "insert", "remove", "discard", "clear", "appendleft", "extendleft",
})

#: Constructor names whose module-level assignment creates shared mutable state.
_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque", "array",
})

#: Scheduling-call attribute names whose function-valued arguments become
#: worker entrypoints (``pool.run(tasks, fn)``, ``pool.submit(fn, t)``, …).
_SCHEDULER_METHODS = frozenset({"run", "submit", "map"})

_CACHE_DECORATORS = frozenset({
    "functools.lru_cache", "lru_cache", "functools.cache", "cache",
})

# value-type tags tracked alongside taint
_TYPE_SET = "set"
_TYPE_RNG_UNSEEDED = "rng-unseeded"
_TYPE_RNG_SEEDED = "rng-seeded"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(relpath: str) -> str:
    """Dotted module name for a posix relpath (``src/`` prefix stripped)."""
    parts = relpath.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or relpath


# -- taint values ------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class Witness:
    """The first observed evidence for one taint kind: symbol + path steps."""

    symbol: str
    steps: tuple[TraceStep, ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "symbol": self.symbol,
            "steps": [s.as_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Witness":
        return cls(
            symbol=str(payload["symbol"]),
            steps=tuple(
                TraceStep(str(s["path"]), int(s["line"]), str(s["note"]))  # type: ignore[index]
                for s in payload["steps"]  # type: ignore[union-attr]
            ),
        )


@slot_init
@dataclass(frozen=True, slots=True)
class CallTaint:
    """A call whose *result* feeds the tainted value."""

    callee: str  # resolved candidate id, or the as-written dotted name
    resolved: bool  # True when ``callee`` is a project-symbol candidate
    line: int
    args: tuple["Taint", ...]
    kwargs: tuple[tuple[str, "Taint"], ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "callee": self.callee,
            "resolved": self.resolved,
            "line": self.line,
            "args": [a.as_dict() for a in self.args],
            "kwargs": [[name, value.as_dict()] for name, value in self.kwargs],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CallTaint":
        return cls(
            callee=str(payload["callee"]),
            resolved=bool(payload["resolved"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            args=tuple(Taint.from_dict(a) for a in payload["args"]),  # type: ignore[union-attr]
            kwargs=tuple(
                (str(name), Taint.from_dict(value))
                for name, value in payload["kwargs"]  # type: ignore[union-attr]
            ),
        )


@slot_init
@dataclass(frozen=True, slots=True)
class Taint:
    """What feeds a value: direct sources, call results, parameters."""

    kinds: tuple[tuple[str, Witness], ...] = ()
    calls: tuple[CallTaint, ...] = ()
    params: tuple[tuple[str, tuple[TraceStep, ...]], ...] = ()

    EMPTY: ClassVar["Taint"]  # the shared no-taint value, set below

    def is_empty(self) -> bool:
        return not (self.kinds or self.calls or self.params)

    def kind_map(self) -> dict[str, Witness]:
        return dict(self.kinds)

    def param_map(self) -> dict[str, tuple[TraceStep, ...]]:
        return dict(self.params)

    @staticmethod
    def merge(values: Sequence["Taint"]) -> "Taint":
        """Union of taints; the first witness per kind/param wins."""
        useful = [v for v in values if v is not None and not v.is_empty()]
        if not useful:
            return Taint.EMPTY
        if len(useful) == 1:
            return useful[0]
        kinds: dict[str, Witness] = {}
        params: dict[str, tuple[TraceStep, ...]] = {}
        calls: list[CallTaint] = []
        for value in useful:
            for kind, witness in value.kinds:
                kinds.setdefault(kind, witness)
            for name, steps in value.params:
                params.setdefault(name, steps)
            calls.extend(value.calls)
        return Taint(
            kinds=tuple(sorted(kinds.items())),
            calls=tuple(calls),
            params=tuple(sorted(params.items())),
        )

    def without_kind(self, kind: str) -> "Taint":
        return Taint(
            kinds=tuple((k, w) for k, w in self.kinds if k != kind),
            calls=self.calls,
            params=self.params,
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "kinds": [[kind, witness.as_dict()] for kind, witness in self.kinds],
            "calls": [c.as_dict() for c in self.calls],
            "params": [
                [name, [s.as_dict() for s in steps]] for name, steps in self.params
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Taint":
        return cls(
            kinds=tuple(
                (str(kind), Witness.from_dict(witness))
                for kind, witness in payload["kinds"]  # type: ignore[union-attr]
            ),
            calls=tuple(CallTaint.from_dict(c) for c in payload["calls"]),  # type: ignore[union-attr]
            params=tuple(
                (
                    str(name),
                    tuple(
                        TraceStep(str(s["path"]), int(s["line"]), str(s["note"]))
                        for s in steps
                    ),
                )
                for name, steps in payload["params"]  # type: ignore[union-attr]
            ),
        )


Taint.EMPTY = Taint()


def source_taint(kind: str, symbol: str, path: str, line: int, note: str) -> Taint:
    """A fresh taint rooted at one nondeterminism source."""
    witness = Witness(symbol=symbol, steps=(TraceStep(path, line, note),))
    return Taint(kinds=((kind, witness),))


# -- summaries ---------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class SinkSite:
    """One call whose arguments must stay deterministic."""

    sink: str  # short, stable symbol (last component of the written name)
    line: int
    taint: Taint

    def as_dict(self) -> dict[str, object]:
        return {"sink": self.sink, "line": self.line, "taint": self.taint.as_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SinkSite":
        return cls(
            sink=str(payload["sink"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            taint=Taint.from_dict(payload["taint"]),  # type: ignore[arg-type]
        )


@slot_init
@dataclass(frozen=True, slots=True)
class CallSite:
    """One call to a project-symbol candidate, with per-argument taint."""

    callee: str
    line: int
    args: tuple[Taint, ...]
    kwargs: tuple[tuple[str, Taint], ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "callee": self.callee,
            "line": self.line,
            "args": [a.as_dict() for a in self.args],
            "kwargs": [[name, value.as_dict()] for name, value in self.kwargs],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CallSite":
        return cls(
            callee=str(payload["callee"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            args=tuple(Taint.from_dict(a) for a in payload["args"]),  # type: ignore[union-attr]
            kwargs=tuple(
                (str(name), Taint.from_dict(value))
                for name, value in payload["kwargs"]  # type: ignore[union-attr]
            ),
        )


@slot_init
@dataclass(frozen=True, slots=True)
class Mutation:
    """A write to module-level state from inside a function."""

    name: str
    line: int
    how: str

    def as_dict(self) -> dict[str, object]:
        return {"name": self.name, "line": self.line, "how": self.how}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Mutation":
        return cls(str(payload["name"]), int(payload["line"]), str(payload["how"]))  # type: ignore[arg-type]


@slot_init
@dataclass(frozen=True, slots=True)
class FunctionSummary:
    """Everything the interprocedural passes know about one function."""

    qualname: str  # full id: module.[Class.]name
    line: int
    params: tuple[str, ...]
    returns: Taint
    sinks: tuple[SinkSite, ...]
    calls: tuple[CallSite, ...]
    mutations: tuple[Mutation, ...]
    cached: bool  # functools.lru_cache / functools.cache decorated

    def as_dict(self) -> dict[str, object]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "params": list(self.params),
            "returns": self.returns.as_dict(),
            "sinks": [s.as_dict() for s in self.sinks],
            "calls": [c.as_dict() for c in self.calls],
            "mutations": [m.as_dict() for m in self.mutations],
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FunctionSummary":
        return cls(
            qualname=str(payload["qualname"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            params=tuple(str(p) for p in payload["params"]),  # type: ignore[union-attr]
            returns=Taint.from_dict(payload["returns"]),  # type: ignore[arg-type]
            sinks=tuple(SinkSite.from_dict(s) for s in payload["sinks"]),  # type: ignore[union-attr]
            calls=tuple(CallSite.from_dict(c) for c in payload["calls"]),  # type: ignore[union-attr]
            mutations=tuple(Mutation.from_dict(m) for m in payload["mutations"]),  # type: ignore[union-attr]
            cached=bool(payload["cached"]),
        )


@slot_init
@dataclass(frozen=True, slots=True)
class ModuleSummary:
    """The whole-program view of one parsed file."""

    module: str
    path: str
    functions: tuple[FunctionSummary, ...]
    mutable_globals: tuple[tuple[str, int], ...]
    worker_entries: tuple[str, ...]
    #: local name → fully-qualified target, for re-export chasing.
    imports: tuple[tuple[str, str], ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "module": self.module,
            "path": self.path,
            "functions": [f.as_dict() for f in self.functions],
            "mutable_globals": [[name, line] for name, line in self.mutable_globals],
            "worker_entries": list(self.worker_entries),
            "imports": [[local, target] for local, target in self.imports],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ModuleSummary":
        return cls(
            module=str(payload["module"]),
            path=str(payload["path"]),
            functions=tuple(
                FunctionSummary.from_dict(f) for f in payload["functions"]  # type: ignore[union-attr]
            ),
            mutable_globals=tuple(
                (str(name), int(line)) for name, line in payload["mutable_globals"]  # type: ignore[union-attr]
            ),
            worker_entries=tuple(str(w) for w in payload["worker_entries"]),  # type: ignore[union-attr]
            imports=tuple(
                (str(local), str(target))
                for local, target in payload.get("imports", ())  # type: ignore[union-attr]
            ),
        )


# -- module context ----------------------------------------------------------


@dataclass(slots=True)
class _ModuleContext:
    """Name-resolution state shared by every function walker in a module."""

    module: str
    path: str
    config: LintConfig
    imports: dict[str, str] = field(default_factory=dict)
    local_functions: dict[str, str] = field(default_factory=dict)  # name -> id
    class_methods: dict[str, dict[str, str]] = field(default_factory=dict)
    mutable_globals: dict[str, int] = field(default_factory=dict)

    def resolve(self, written: str, class_name: str | None = None) -> str | None:
        """Project-symbol candidate for an as-written dotted name."""
        head, _, rest = written.partition(".")
        if written.startswith("self.") and class_name is not None:
            attr = written[len("self."):]
            methods = self.class_methods.get(class_name, {})
            if "." not in attr and attr in methods:
                return methods[attr]
            return None
        if head in self.imports:
            target = self.imports[head]
            return f"{target}.{rest}" if rest else target
        if not rest and written in self.local_functions:
            return self.local_functions[written]
        if not rest and written in self.class_methods:
            # The call graph maps a class to its ``__init__``.
            return f"{self.module}.{written}"
        if rest and head in self.class_methods:
            methods = self.class_methods[head]
            if "." not in rest and rest in methods:
                return methods[rest]
        return None


def _collect_imports(tree: ast.Module, module: str) -> dict[str, str]:
    imports: dict[str, str] = {}
    package_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # ``from .sib import x`` resolved against this module's
                # package: level=1 strips the module's own leaf name.
                base_parts = (
                    package_parts[: -node.level]
                    if node.level <= len(package_parts)
                    else []
                )
                base = ".".join(base_parts)
                prefix = f"{base}.{node.module}" if node.module and base else (
                    node.module or base
                )
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return imports


def _is_mutable_ctor(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


def _iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None]]:
    """Top-level functions and class methods, with their class name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child, node.name


def _is_cache_decorated(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = _dotted(target)
        if name in _CACHE_DECORATORS:
            return True
    return False


# -- the function walker -----------------------------------------------------


class _FunctionWalker:
    """Ordered single-pass taint propagation through one function body."""

    def __init__(
        self,
        ctx: _ModuleContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_name: str | None,
    ) -> None:
        self.ctx = ctx
        self.node = node
        self.qualname = qualname
        self.class_name = class_name
        self.env: dict[str, Taint] = {}
        self.types: dict[str, str] = {}
        self.return_taints: list[Taint] = []
        self.sinks: list[SinkSite] = []
        self.calls: list[CallSite] = []
        self.mutations: list[Mutation] = []
        self.globals_declared: set[str] = set()
        self.locals_assigned: set[str] = set()
        self.params: tuple[str, ...] = ()

    # -- entry ---------------------------------------------------------------

    def run(self) -> FunctionSummary:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        self.params = tuple(names)
        for name in names:
            step = TraceStep(
                self.ctx.path, self.node.lineno,
                f"parameter '{name}' of {self.qualname}()",
            )
            self.env[name] = Taint(params=((name, (step,)),))
        self._walk_body(self.node.body)
        return FunctionSummary(
            qualname=self.qualname,
            line=self.node.lineno,
            params=self.params,
            returns=Taint.merge(self.return_taints),
            sinks=tuple(self.sinks),
            calls=tuple(self.calls),
            mutations=tuple(self.mutations),
            cached=_is_cache_decorated(self.node),
        )

    # -- statements ----------------------------------------------------------

    def _walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.taint_of(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.taint_of(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value = self.taint_of(stmt.value)
            existing = self._load_target(stmt.target)
            self._assign(stmt.target, Taint.merge([existing, value]), None)
            self._note_aug_mutation(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taints.append(self.taint_of(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.taint_of(stmt.value)
        elif isinstance(stmt, ast.For):
            iter_taint = self.taint_of(stmt.iter)
            if self._is_set_expr(stmt.iter):
                iter_taint = Taint.merge([
                    iter_taint,
                    source_taint(
                        KIND_SETORDER, "set-iteration", self.ctx.path,
                        stmt.iter.lineno,
                        "iteration order of a set (PYTHONHASHSEED-dependent)",
                    ),
                ])
            self._assign(stmt.target, iter_taint, None)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.taint_of(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.taint_of(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                item_taint = self.taint_of(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, item_taint, None)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, ast.Global):
            self.globals_declared.update(stmt.names)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.taint_of(child)
        # Nested defs/classes keep their own scope; deliberately skipped.

    def _assign(
        self, target: ast.expr, value: Taint, value_node: ast.expr | None
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            self.locals_assigned.add(target.id)
            if value_node is not None:
                tag = self._type_of_expr(value_node)
                if tag is not None:
                    self.types[target.id] = tag
                else:
                    self.types.pop(target.id, None)
            if target.id in self.globals_declared:
                self.mutations.append(
                    Mutation(target.id, target.lineno, "global rebind")
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, value, None)
        elif isinstance(target, ast.Attribute):
            base = _dotted(target.value)
            if base is not None:
                self.env[f"{base}.{target.attr}"] = value
        elif isinstance(target, ast.Subscript):
            # ``d[k] = tainted`` taints the container variable itself.
            base = _dotted(target.value)
            if base is not None:
                merged = Taint.merge([self.env.get(base, Taint.EMPTY), value])
                self.env[base] = merged
                self._note_subscript_mutation(target)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, None)

    def _load_target(self, target: ast.expr) -> Taint:
        name = _dotted(target)
        if name is not None:
            return self.env.get(name, Taint.EMPTY)
        return Taint.EMPTY

    # -- mutation bookkeeping ------------------------------------------------

    def _is_module_global(self, name: str) -> bool:
        if name in self.globals_declared:
            return True
        return (
            name in self.ctx.mutable_globals
            and name not in self.locals_assigned
            and name not in self.params
        )

    def _note_subscript_mutation(self, target: ast.Subscript) -> None:
        base = _dotted(target.value)
        if base is not None and "." not in base and self._is_module_global(base):
            self.mutations.append(Mutation(base, target.lineno, "item assignment"))

    def _note_mutator_call(self, node: ast.Call) -> None:
        """``GLOBAL.append(x)`` and friends mutate their receiver in place."""
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _MUTATOR_METHODS:
            return
        base = _dotted(node.func.value)
        if base is not None and "." not in base and self._is_module_global(base):
            self.mutations.append(
                Mutation(base, node.lineno, f"in-place .{node.func.attr}()")
            )

    def _note_aug_mutation(self, stmt: ast.AugAssign) -> None:
        if isinstance(stmt.target, ast.Name) and self._is_module_global(
            stmt.target.id
        ):
            self.mutations.append(
                Mutation(stmt.target.id, stmt.lineno, "augmented assignment")
            )
        elif isinstance(stmt.target, ast.Subscript):
            self._note_subscript_mutation(stmt.target)

    # -- expressions ---------------------------------------------------------

    def taint_of(self, node: ast.expr) -> Taint:
        """The taint feeding ``node``, recording calls and sinks on the way."""
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, Taint.EMPTY)
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None and dotted in self.env:
                return self.env[dotted]
            return self.taint_of(node.value)
        if isinstance(node, ast.Subscript):
            if _dotted(node.value) == "os.environ":
                return source_taint(
                    KIND_ENV, "os.environ", self.ctx.path, node.lineno,
                    "read of os.environ[...]",
                )
            return Taint.merge([self.taint_of(node.value), self.taint_of(node.slice)])
        if isinstance(node, ast.Constant):
            return Taint.EMPTY
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return Taint.merge([self.taint_of(e) for e in node.elts])
        if isinstance(node, ast.Dict):
            parts = [self.taint_of(k) for k in node.keys if k is not None]
            parts.extend(self.taint_of(v) for v in node.values)
            return Taint.merge(parts)
        if isinstance(node, ast.BinOp):
            return Taint.merge([self.taint_of(node.left), self.taint_of(node.right)])
        if isinstance(node, ast.BoolOp):
            return Taint.merge([self.taint_of(v) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.Compare):
            return Taint.merge(
                [self.taint_of(node.left)] + [self.taint_of(c) for c in node.comparators]
            )
        if isinstance(node, ast.IfExp):
            return Taint.merge(
                [self.taint_of(node.test), self.taint_of(node.body),
                 self.taint_of(node.orelse)]
            )
        if isinstance(node, ast.JoinedStr):
            return Taint.merge([self.taint_of(v) for v in node.values])
        if isinstance(node, ast.FormattedValue):
            return self.taint_of(node.value)
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.taint_of(node.value)
        if isinstance(node, ast.Yield):
            return self.taint_of(node.value) if node.value is not None else Taint.EMPTY
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension_taint(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comprehension_taint(node, [node.key, node.value])
        if isinstance(node, ast.NamedExpr):
            value = self.taint_of(node.value)
            self._assign(node.target, value, node.value)
            return value
        if isinstance(node, ast.Lambda):
            return Taint.EMPTY
        return Taint.EMPTY

    def _comprehension_taint(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
        elements: Sequence[ast.expr],
    ) -> Taint:
        parts: list[Taint] = []
        for comp in node.generators:
            iter_taint = self.taint_of(comp.iter)
            if self._is_set_expr(comp.iter) and not isinstance(node, ast.SetComp):
                iter_taint = Taint.merge([
                    iter_taint,
                    source_taint(
                        KIND_SETORDER, "set-iteration", self.ctx.path,
                        comp.iter.lineno,
                        "comprehension over a set (PYTHONHASHSEED-dependent order)",
                    ),
                ])
            self._assign(comp.target, iter_taint, None)
            parts.append(iter_taint)
            for condition in comp.ifs:
                self.taint_of(condition)
        parts.extend(self.taint_of(e) for e in elements)
        return Taint.merge(parts)

    # -- set / rng type tracking ---------------------------------------------

    def _type_of_expr(self, node: ast.expr) -> str | None:
        """A value's type tag, or for an instance of a class defined in
        this module, the class's name."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return _TYPE_SET
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in ("set", "frozenset"):
                return _TYPE_SET
            if name in self.ctx.class_methods:
                return name
            resolved = self.ctx.resolve(name, self.class_name) if name else None
            if name == "random.Random" or resolved == "random.Random" or (
                name == "Random" and self.ctx.imports.get("Random") == "random.Random"
            ):
                if node.args or node.keywords:
                    return _TYPE_RNG_SEEDED
                return _TYPE_RNG_UNSEEDED
        if isinstance(node, ast.Name):
            return self.types.get(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            if (
                self._type_of_expr(node.left) == _TYPE_SET
                and self._type_of_expr(node.right) == _TYPE_SET
            ):
                return _TYPE_SET
        return None

    def _is_set_expr(self, node: ast.expr) -> bool:
        return self._type_of_expr(node) == _TYPE_SET

    # -- calls ---------------------------------------------------------------

    def _call_taint(self, node: ast.Call) -> Taint:
        self._note_mutator_call(node)
        written = _dotted(node.func)
        arg_taints = tuple(self.taint_of(a) for a in node.args)
        kwarg_taints = tuple(
            (kw.arg or "**", self.taint_of(kw.value)) for kw in node.keywords
        )
        all_parts = list(arg_taints) + [t for _, t in kwarg_taints]

        if written is None:
            # Computed call target (subscripted table, lambda, ...): the
            # receiver expression itself may carry taint.
            receiver = self.taint_of(node.func)
            return Taint.merge([receiver] + all_parts)

        head, _, method = written.partition(".")
        instance_of = self.types.get(head) if method else None
        if instance_of in self.ctx.class_methods:
            # ``builder.build()`` on a local ``builder = _Builder(...)``.
            resolved = self.ctx.resolve(f"{instance_of}.{method}")
        else:
            resolved = self.ctx.resolve(written, self.class_name)
        short = written.split(".")[-1]

        # -- source detection ------------------------------------------------
        source = self._source_for_call(node, written, resolved, arg_taints)
        if source is not None:
            return source

        # -- sanitizers ------------------------------------------------------
        if written in _ORDER_SANITIZERS:
            merged = Taint.merge(all_parts)
            return merged.without_kind(KIND_SETORDER)
        if written in _ORDER_EXTRACTORS and node.args and self._is_set_expr(
            node.args[0]
        ):
            merged = Taint.merge(all_parts)
            return Taint.merge([
                merged,
                source_taint(
                    KIND_SETORDER, f"{written}(set)", self.ctx.path, node.lineno,
                    f"'{written}()' materializes set iteration order",
                ),
            ])

        # -- sink detection --------------------------------------------------
        if self._matches_sink(written, resolved):
            self.sinks.append(
                SinkSite(sink=short, line=node.lineno, taint=Taint.merge(all_parts))
            )

        # -- call recording --------------------------------------------------
        if resolved is not None:
            self.calls.append(
                CallSite(
                    callee=resolved, line=node.lineno,
                    args=arg_taints, kwargs=kwarg_taints,
                )
            )
            return Taint(
                calls=(
                    CallTaint(
                        callee=resolved, resolved=True, line=node.lineno,
                        args=arg_taints, kwargs=kwarg_taints,
                    ),
                )
            )

        # Unresolvable target: conservatively fold arguments (and, for
        # method calls, the receiver object) into the result.
        parts = list(all_parts)
        if isinstance(node.func, ast.Attribute):
            parts.append(self.taint_of(node.func.value))
        return Taint.merge(parts)

    def _source_for_call(
        self,
        node: ast.Call,
        written: str,
        resolved: str | None,
        arg_taints: tuple[Taint, ...],
    ) -> Taint | None:
        names = {written}
        if resolved is not None:
            names.add(resolved)
        path, line = self.ctx.path, node.lineno

        for name in sorted(names):
            if is_wall_clock_call(name, reads_only=True):
                return source_taint(
                    KIND_WALLCLOCK, name, path, line, f"wall-clock read {name}()"
                )
            parts = name.split(".")
            if name in _RNG_DIRECT_CALLS or parts[0] == "secrets":
                return source_taint(
                    KIND_RNG, name, path, line, f"entropy read {name}()"
                )
            if (
                len(parts) == 2 and parts[0] == "random" and parts[1] != "Random"
            ):
                return source_taint(
                    KIND_RNG, name, path, line,
                    f"draw from the shared unseeded RNG via {name}()",
                )
            if name in _ENV_CALLS:
                return source_taint(
                    KIND_ENV, name, path, line, f"process-environment read {name}()"
                )
            if name.startswith("os.environ."):
                return source_taint(
                    KIND_ENV, "os.environ", path, line, f"read of {name}(...)"
                )
        if written == "id" and node.args:
            return source_taint(
                KIND_ENV, "id", path, line,
                "id() is a process-lifetime object address",
            )
        # Methods on an unseeded Random instance (r = random.Random(); r.random()).
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            base_type = self._type_of_expr(base)
            if base_type == _TYPE_RNG_UNSEEDED:
                symbol = f"Random().{node.func.attr}"
                taint = source_taint(
                    KIND_RNG, symbol, path, line,
                    f"draw from an unseeded random.Random via .{node.func.attr}()",
                )
                return Taint.merge([taint] + list(arg_taints))
            if base_type == _TYPE_RNG_SEEDED:
                # Seeded RNG draws are deterministic: sanitize.
                return Taint.merge(list(arg_taints))
            if base_type == _TYPE_SET and node.func.attr == "pop":
                return source_taint(
                    KIND_SETORDER, "set.pop", path, line,
                    "set.pop() returns an arbitrary (hash-ordered) element",
                )
        return None

    def _matches_sink(self, written: str, resolved: str | None) -> bool:
        short = written.split(".")[-1]
        candidates = {written, short}
        if resolved is not None:
            candidates.add(resolved)
        for pattern in self.ctx.config.flow_sinks:
            for candidate in sorted(candidates):
                if fnmatch.fnmatch(candidate, pattern):
                    return True
        return False


# -- worker-entry detection --------------------------------------------------


def _detect_worker_entries(tree: ast.Module, ctx: _ModuleContext) -> tuple[str, ...]:
    """Project functions passed by name into scheduling calls.

    ``pool.run(tasks, execute_shard)`` / ``pool.submit(fn, task)`` — any
    argument that is a bare name resolving to a project-symbol candidate
    becomes a worker entrypoint for the race analysis.
    """
    entries: dict[str, None] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in _SCHEDULER_METHODS:
            continue
        for arg in node.args:
            written = _dotted(arg)
            if written is None:
                continue
            resolved = ctx.resolve(written)
            if resolved is not None:
                entries.setdefault(resolved)
    return tuple(entries)


# -- entry point -------------------------------------------------------------


def build_module_summary(
    tree: ast.Module, relpath: str, config: LintConfig
) -> ModuleSummary:
    """Summarize one parsed module for the whole-program passes."""
    module = module_name_for(relpath)
    ctx = _ModuleContext(module=module, path=relpath, config=config)
    ctx.imports = _collect_imports(tree, module)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ctx.local_functions[node.name] = f"{module}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            methods = {
                child.name: f"{module}.{node.name}.{child.name}"
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            ctx.class_methods[node.name] = methods
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and _is_mutable_ctor(node.value):
                    ctx.mutable_globals.setdefault(target.id, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.value is not None
                and _is_mutable_ctor(node.value)
            ):
                ctx.mutable_globals.setdefault(node.target.id, node.lineno)

    functions = []
    for func_node, class_name in _iter_functions(tree):
        qualname = (
            f"{module}.{class_name}.{func_node.name}"
            if class_name
            else f"{module}.{func_node.name}"
        )
        walker = _FunctionWalker(ctx, func_node, qualname, class_name)
        functions.append(walker.run())

    return ModuleSummary(
        module=module,
        path=relpath,
        functions=tuple(functions),
        mutable_globals=tuple(sorted(ctx.mutable_globals.items())),
        worker_entries=_detect_worker_entries(tree, ctx),
        imports=tuple(sorted(ctx.imports.items())),
    )
