"""Structured compile errors: every problem in a spec, reported at once.

The compiler never raises on the first bad declaration — it walks the whole
composed spec, collects one :class:`SpecIssue` per problem, and raises a
single :class:`WorldSpecError` carrying all of them, so a spec author fixes
a topology in one round trip instead of one error at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.records import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class SpecIssue:
    """One problem found while validating a composed world spec.

    ``code`` is a stable machine-readable identifier (``overlapping-prefix``,
    ``orphan-binding``, ``unclaimed-ground-truth``, ...); ``location`` names
    the layer/country/ISP the problem is anchored to.
    """

    code: str
    location: str
    message: str

    def render(self) -> str:
        return f"[{self.code}] {self.location}: {self.message}"


class WorldSpecError(ValueError):
    """A composed spec failed validation; ``issues`` lists every problem."""

    def __init__(self, issues: list[SpecIssue]) -> None:
        self.issues = list(issues)
        lines = "\n  ".join(issue.render() for issue in self.issues)
        super().__init__(
            f"world spec failed validation ({len(self.issues)} issue"
            f"{'' if len(self.issues) == 1 else 's'}):\n  {lines}"
        )
