"""Rule protocol and shared AST helpers for the lint pass."""

from __future__ import annotations

import abc
import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding


class Rule(abc.ABC):
    """One named invariant checked over a parsed module.

    Subclasses set the three attributes (they feed the documentation
    generator and the reporters), on the class or per instance, and
    implement :meth:`check` as a generator of findings.
    """

    rule_id: str
    title: str
    rationale: str

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield a finding for every violation in ``ctx.tree``."""

    def finding(
        self, ctx: FileContext, node: ast.AST, symbol: str, message: str
    ) -> Finding:
        """Shorthand for :meth:`FileContext.finding` with this rule's id."""
        return ctx.finding(self.rule_id, node, symbol, message)


def dotted_name(node: ast.AST) -> str | None:
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


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call target, else ``None`` for computed targets."""
    return dotted_name(node.func)
