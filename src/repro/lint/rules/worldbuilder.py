"""WLD001 — the world builder composes topologies from keyed hashes only.

A :mod:`repro.worldbuilder` spec is a *fingerprintable artifact*: its
manifest SHA-256 rides run metrics, and CI pins the preset SHAs.  That
contract only holds if compiling the same spec twice — on any host, in any
process — yields the same bytes.  DET001/DET002 police calls repo-wide;
inside the world builder the gate is stricter, in the style of SRV001:
even *importing* ``time``/``datetime`` or any entropy module (``random``,
``secrets``, ``uuid``) is a finding.
Binding tie-breaks come from :func:`~repro.worldbuilder.bindings.stable_rank`
(a keyed hash of the binding key and draft identity); nothing in the
package may consult the host for time or entropy.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.rules.base import Rule, call_name
from repro.lint.rules.determinism import _DATETIME_ATTRS, _TIME_ATTRS

#: The rule only applies inside the world-builder package.
_WORLDBUILDER_PACKAGE = "repro/worldbuilder/"

#: Wall-clock modules: importing one into the compiler implies intent.
_CLOCK_MODULES = {"time", "datetime"}

#: Entropy modules: selection tie-breaks must be keyed hashes instead.
_ENTROPY_MODULES = {"random", "secrets", "uuid", "numpy.random"}


class DeterministicWorldBuilder(Rule):
    """Forbid wall-clock access and ambient randomness in ``repro.worldbuilder``."""

    rule_id = "WLD001"
    title = "wall clock or ambient randomness in the world builder"
    rationale = (
        "A compiled world's manifest SHA-256 is its identity — it rides "
        "run metrics and CI pins.  The same spec must therefore compile "
        "to the same bytes on every host and in "
        "every process, which dies the moment a binding tie-break or a "
        "manifest field comes from the wall clock or an RNG stream.  "
        "Selection order comes from stable_rank (a keyed hash); nothing "
        "else is allowed to break ties."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if _WORLDBUILDER_PACKAGE not in ctx.path:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _CLOCK_MODULES:
                        yield self.finding(
                            ctx, node, alias.name,
                            f"'{alias.name}' must not be imported in the "
                            "world builder; a compiled manifest has no "
                            "business knowing the time",
                        )
                    elif alias.name in _ENTROPY_MODULES or root in (
                        "random", "secrets", "uuid",
                    ):
                        yield self.finding(
                            ctx, node, alias.name,
                            f"'{alias.name}' must not be imported in the "
                            "world builder; break ties with stable_rank "
                            "(a keyed hash)",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                root = module.split(".")[0]
                if root in _CLOCK_MODULES:
                    yield self.finding(
                        ctx, node, module,
                        f"importing from '{module}' brings the wall clock "
                        "into the world builder; manifests must not depend "
                        "on when they were compiled",
                    )
                elif module in _ENTROPY_MODULES or root in (
                    "random", "secrets", "uuid",
                ):
                    yield self.finding(
                        ctx, node, module,
                        f"importing from '{module}' brings ambient "
                        "randomness into the world builder; break ties "
                        "with stable_rank (a keyed hash)",
                    )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name is None:
                    continue
                if name.startswith("time.") and name.split(".", 1)[1] in _TIME_ATTRS:
                    yield self.finding(
                        ctx, node, name,
                        f"'{name}()' reads the wall clock inside the world "
                        "builder; compiling the same spec twice must yield "
                        "the same manifest",
                    )
                    continue
                if name in ("os.urandom", "os.getrandom"):
                    yield self.finding(
                        ctx, node, name,
                        f"'{name}()' is an entropy source inside the world "
                        "builder; break ties with stable_rank",
                    )
                    continue
                parts = name.split(".")
                if (
                    len(parts) >= 2
                    and parts[-1] in _DATETIME_ATTRS
                    and parts[-2] in ("datetime", "date")
                ):
                    yield self.finding(
                        ctx, node, name,
                        f"'{name}()' reads the wall clock inside the world "
                        "builder; compiling the same spec twice must yield "
                        "the same manifest",
                    )
