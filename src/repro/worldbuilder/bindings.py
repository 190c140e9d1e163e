"""Bindings: attach layer declarations to AS/ISP sets, deterministically.

A binding pairs a *selector* (which ISPs?) with an optional *pick* (how
many of them?).  Selection is pure set logic; when ``limit``/``fraction``
asks for a subset, the tie-break is a keyed CRC-32 hash over
``(binding key, country, ISP name)`` — never ambient RNG, never dict or
set order — so the same spec selects the same ISPs in every process
(SRV001/FLT001-style sterility, enforced in this package by WLD001).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

from repro.records import slot_init


class IspDraftView(Protocol):
    """What a selector may inspect: the draft ISP being composed."""

    country: str
    name: str
    prefix: Optional[str]
    mobile: bool


def stable_rank(*parts: object) -> int:
    """Deterministic 32-bit rank for keyed tie-breaking."""
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return zlib.crc32(payload)


@slot_init
@dataclass(frozen=True, slots=True)
class Selector:
    """Declarative ISP filter: country codes, names, prefixes, or a predicate.

    Criteria combine conjunctively; an empty selector matches everything.
    ``predicate`` must be *named* (the manifest records the name, not the
    function), keeping compiled specs serializable and diffable.
    """

    countries: tuple[str, ...] = ()
    names: tuple[str, ...] = ()
    prefixes: tuple[str, ...] = ()
    predicate_name: str = ""
    predicate: Optional[Callable[[IspDraftView], bool]] = field(
        default=None, compare=False
    )

    def matches(self, draft: IspDraftView) -> bool:
        if self.countries and draft.country not in self.countries:
            return False
        if self.names and draft.name not in self.names:
            return False
        if self.prefixes and draft.prefix not in self.prefixes:
            return False
        if self.predicate is not None and not self.predicate(draft):
            return False
        return True

    def describe(self) -> dict:
        """JSON-able form for manifests and error messages."""
        parts: dict = {}
        if self.countries:
            parts["countries"] = list(self.countries)
        if self.names:
            parts["names"] = list(self.names)
        if self.prefixes:
            parts["prefixes"] = list(self.prefixes)
        if self.predicate_name:
            parts["predicate"] = self.predicate_name
        return parts

    def render(self) -> str:
        described = self.describe()
        if not described:
            return "<all ISPs>"
        return ", ".join(f"{key}={value}" for key, value in sorted(described.items()))


def by_country(*codes: str) -> Selector:
    """ISPs in any of the given countries."""
    return Selector(countries=tuple(codes))


def by_isp(*names: str) -> Selector:
    """ISPs (organizations) with any of the given names."""
    return Selector(names=tuple(names))


def by_prefix(*prefixes: str) -> Selector:
    """ISPs whose declared prefix is one of the given prefixes."""
    return Selector(prefixes=tuple(prefixes))


def where(name: str, predicate: Callable[[IspDraftView], bool]) -> Selector:
    """A named predicate selector (the manifest records ``name``)."""
    if not name:
        raise ValueError("predicate selectors must be named")
    return Selector(predicate_name=name, predicate=predicate)


@slot_init
@dataclass(frozen=True, slots=True)
class Binding:
    """One attachment: a selector plus an optional deterministic pick.

    ``limit`` keeps at most N matches; ``fraction`` keeps roughly that share
    of them.  Both rank matches by :func:`stable_rank` keyed on ``key`` —
    change the key to rotate which ISPs a partial binding lands on without
    touching anything else.
    """

    selector: Selector
    limit: Optional[int] = None
    fraction: Optional[float] = None
    key: str = ""

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"binding limit must be >= 1: {self.limit}")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"binding fraction out of range: {self.fraction}")

    def select(self, drafts: Sequence[IspDraftView]) -> list[IspDraftView]:
        """The drafts this binding attaches to, in draft declaration order."""
        matched = [draft for draft in drafts if self.selector.matches(draft)]
        keep = len(matched)
        if self.fraction is not None:
            keep = min(keep, round(len(matched) * self.fraction))
        if self.limit is not None:
            keep = min(keep, self.limit)
        if keep >= len(matched):
            return matched
        ranked = sorted(
            matched,
            key=lambda draft: (
                stable_rank("bind", self.key, draft.country, draft.name),
                draft.country,
                draft.name,
            ),
        )
        chosen = {(draft.country, draft.name) for draft in ranked[:keep]}
        return [d for d in matched if (d.country, d.name) in chosen]

    def render(self) -> str:
        text = self.selector.render()
        if self.limit is not None:
            text += f" limit={self.limit}"
        if self.fraction is not None:
            text += f" fraction={self.fraction}"
        return text
