"""What the four experiment datasets (paper §4-§7) have in common."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Optional, Protocol, TypeVar


class _Located(Protocol):
    """The fields every record type carries for the node counts."""

    @property
    def asn(self) -> Optional[int]: ...

    @property
    def country(self) -> Optional[str]: ...


R = TypeVar("R", bound=_Located)


@dataclass
class Dataset(Generic[R]):
    """One experiment's measured records and its probe count; each
    subclass adds its experiment's own header fields and counts."""

    records: list[R] = field(default_factory=list)
    probes: int = 0

    @property
    def node_count(self) -> int:
        """Measured exit nodes."""
        return len(self.records)

    def as_count(self) -> int:
        """Distinct ASes of measured nodes."""
        return len({r.asn for r in self.records if r.asn is not None})

    def country_count(self) -> int:
        """Distinct (AS-registration) countries of measured nodes."""
        return len({r.country for r in self.records if r.country is not None})
