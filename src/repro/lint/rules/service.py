"""SRV002 — the service plane contains failures into the resilience taxonomy.

``repro serve`` promises that failures are contained, never swallowed.  A
blanket handler in the service plane must either re-raise or route the
exception into the ``repro.resilience`` failure taxonomy
(``classify_failure`` / ``FailureRecord.from_exception``) so it lands in
the ledger with a category; a bare ``except:`` is never acceptable there.
Its sibling SRV001 (no wall clock or ambient randomness in
:mod:`repro.serve`) is an :class:`~repro.lint.rules.sterility.ImportBan`
row.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.rules.base import Rule, call_name
from repro.lint.rules.safety import _handler_reraises, _overbroad_names

#: The rule only applies inside the service package.
_SERVE_PACKAGE = "repro/serve/"

#: Calls that route an exception into the failure taxonomy.
_CLASSIFIERS = {"classify_failure", "from_exception"}


def _handler_classifies(handler: ast.ExceptHandler) -> bool:
    """True when the handler routes the exception into the taxonomy."""
    for stmt in handler.body:
        for child in ast.walk(stmt):
            if not isinstance(child, ast.Call):
                continue
            name = call_name(child)
            if name is not None and name.split(".")[-1] in _CLASSIFIERS:
                return True
    return False


class ContainedFailures(Rule):
    """Service-plane handlers must re-raise or classify into the taxonomy."""

    rule_id = "SRV002"
    title = "unclassified failure swallowed in the service plane"
    rationale = (
        "The service's containment contract is that every failure lands in "
        "the ledger with a taxonomy category — a handler that swallows an "
        "exception without classify_failure (or re-raising) turns a poison "
        "study into silent data loss, and the DLQ, retry accounting, and "
        "circuit breakers all go blind to it."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if _SERVE_PACKAGE not in ctx.path:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare-except",
                    "bare 'except:' in the service plane swallows failures "
                    "the containment ledger must classify; name the type "
                    "and route it through classify_failure",
                )
                continue
            broad = _overbroad_names(node.type)
            if not broad:
                continue
            if _handler_reraises(node) or _handler_classifies(node):
                continue
            yield self.finding(
                ctx, node, f"except-{broad[0]}",
                f"'except {broad[0]}' in the service plane neither "
                "re-raises nor classifies into the failure taxonomy; "
                "call classify_failure so the failure reaches the ledger",
            )
