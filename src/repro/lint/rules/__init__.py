"""Rule registry: every shipped rule, in rule-id order."""

from __future__ import annotations

from repro.lint.rules.base import Rule
from repro.lint.rules.determinism import UnorderedIteration, UnseededRandom, WallClock
from repro.lint.rules.safety import BroadExcept, MutableDefaults
from repro.lint.rules.service import ContainedFailures
from repro.lint.rules.simulation import FrozenRecords
from repro.lint.rules.sterility import FLT001, OBS001, SRV001, STER001, WLD001, ImportBan

#: Every shipped rule instance; the engine runs these unless configured
#: otherwise with ``LintConfig.select``.
ALL_RULES: tuple[Rule, ...] = (
    STER001,
    UnseededRandom(),   # DET001
    WallClock(),        # DET002
    UnorderedIteration(),  # DET003
    FLT001,
    OBS001,
    MutableDefaults(),  # SAFE001
    BroadExcept(),      # SAFE002
    FrozenRecords(),    # SIM001
    SRV001,
    ContainedFailures(),  # SRV002
    WLD001,
)

_BY_ID = {rule.rule_id: rule for rule in ALL_RULES}


def get_rule(rule_id: str) -> Rule:
    """Look up a shipped rule by its id (``KeyError`` for unknown ids)."""
    return _BY_ID[rule_id]


__all__ = [
    "ALL_RULES",
    "BroadExcept",
    "ContainedFailures",
    "FrozenRecords",
    "ImportBan",
    "MutableDefaults",
    "Rule",
    "UnorderedIteration",
    "UnseededRandom",
    "WallClock",
    "get_rule",
]
