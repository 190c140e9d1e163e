"""DET001/DET002/DET003 — every run must replay bit-for-bit from its seed.

The paper's tables are statistical claims over 1.2 M vantage points; the
reproduction's tables are statistical claims over a seeded world.  That
equivalence only holds if *all* randomness flows through explicitly seeded
``random.Random`` instances, *all* timestamps through the simulated clock
(:mod:`repro.net.clock`), and no hash-randomized ``set`` ordering ever
reaches sampling or report output.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.rules.base import Rule, call_name

# -- DET001 -----------------------------------------------------------------

#: Names safe to import from the stdlib ``random`` module.
_SAFE_RANDOM_IMPORTS = {"Random"}


class UnseededRandom(Rule):
    """Forbid the process-global RNG and unseeded ``Random()`` instances."""

    rule_id = "DET001"
    title = "unseeded or module-level randomness"
    rationale = (
        "All stochastic choices must flow through an explicitly seeded "
        "random.Random so every table and figure replays bit-for-bit from "
        "the world seed; the module-level RNG is shared, unseeded process "
        "state."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        local_random_ctor = False
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name == "Random":
                        local_random_ctor = True
                    else:
                        yield self.finding(
                            ctx, node, f"random.{alias.name}",
                            f"importing 'random.{alias.name}' binds the "
                            "module-level RNG; construct a seeded "
                            "random.Random instead",
                        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if name == "random.Random" or (local_random_ctor and name == "Random"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node, "random.Random()",
                        "random.Random() without a seed is entropy-seeded; "
                        "pass an explicit seed derived from the world seed",
                    )
            elif name.startswith("random.") and name.count(".") == 1:
                yield self.finding(
                    ctx, node, name,
                    f"module-level '{name}()' uses the shared unseeded RNG; "
                    "use a seeded random.Random instance",
                )
            elif name in ("numpy.random.default_rng", "np.random.default_rng"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node, name,
                        "default_rng() without a seed is entropy-seeded",
                    )
            elif name.startswith(("numpy.random.", "np.random.")):
                yield self.finding(
                    ctx, node, name,
                    f"'{name}()' uses numpy's global RNG; "
                    "use numpy.random.default_rng(seed)",
                )


# -- DET002 -----------------------------------------------------------------

#: ``time.<attr>`` calls that read the wall clock.
_TIME_READS = frozenset({
    "time", "time_ns",
    "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
    "localtime", "gmtime",
})

#: ``time.<attr>`` names DET002 bans: every read, plus ``sleep``, which
#: blocks on the wall clock.
_TIME_ATTRS = _TIME_READS | {"sleep"}

#: ``datetime``/``date`` constructors that read the wall clock.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def is_wall_clock_call(name: str, *, reads_only: bool = False) -> bool:
    """True when the dotted call ``name`` reads or blocks on the wall clock.

    ``reads_only`` leaves out ``time.sleep``, whose value is ``None``: the
    whole-program taint pass wants only the calls whose result carries the
    host's time.
    """
    parts = name.split(".")
    if len(parts) == 2 and parts[0] == "time":
        return parts[1] in (_TIME_READS if reads_only else _TIME_ATTRS)
    return (
        len(parts) >= 2
        and parts[-1] in _DATETIME_ATTRS
        and parts[-2] in ("datetime", "date")
    )


class WallClock(Rule):
    """Forbid wall-clock reads outside the simulated clock module."""

    rule_id = "DET002"
    title = "wall-clock access outside net/clock.py"
    rationale = (
        "All simulation timestamps come from repro.net.clock's SimClock — "
        "the §7 monitoring experiment replays a 24-hour watch window in "
        "milliseconds, which is impossible (and nondeterministic) against "
        "the host's wall clock."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _TIME_ATTRS:
                        yield self.finding(
                            ctx, node, f"time.{alias.name}",
                            f"importing 'time.{alias.name}' reaches the wall "
                            "clock; use the SimClock from repro.net.clock",
                        )
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is not None and is_wall_clock_call(name):
                yield self.finding(
                    ctx, node, name,
                    f"'{name}()' reads the wall clock; simulation time must "
                    "come from repro.net.clock",
                )


# -- DET003 -----------------------------------------------------------------

#: Call targets whose output order mirrors input iteration order.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter"}

#: Method names that sample from / order their argument.
_ORDER_SENSITIVE_METHODS = {"choice", "choices", "sample", "shuffle", "join"}


def _is_set_expr(node: ast.AST) -> bool:
    """True for set displays, set comprehensions, and ``set()``/``frozenset()``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset")
    return False


class UnorderedIteration(Rule):
    """Forbid feeding raw ``set`` iteration order into order-sensitive sinks."""

    rule_id = "DET003"
    title = "unordered set iteration feeding ordered output"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED; looping over a set "
        "into sampling or report output makes two runs with the same world "
        "seed disagree.  Wrap the set in sorted(...) first."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.finding(
                    ctx, node.iter, "for-in-set",
                    "iterating a set directly is hash-order dependent; "
                    "use sorted(...)",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield self.finding(
                            ctx, comp.iter, "comprehension-over-set",
                            "comprehension over a set is hash-order "
                            "dependent; use sorted(...)",
                        )
            elif isinstance(node, ast.Call) and node.args:
                # Attribute calls are matched on the method name alone so
                # `", ".join(...)` (whose base is a constant) still counts.
                if isinstance(node.func, ast.Attribute):
                    simple = node.func.attr
                    ordered = simple in _ORDER_SENSITIVE_METHODS
                elif isinstance(node.func, ast.Name):
                    simple = node.func.id
                    ordered = simple in _ORDER_SENSITIVE_CALLS
                else:
                    continue
                if ordered and _is_set_expr(node.args[0]):
                    yield self.finding(
                        ctx, node, f"{simple}(set)",
                        f"'{simple}()' preserves (or samples) iteration "
                        "order of its set argument; wrap it in sorted(...)",
                    )
