"""OBS001 good fixture: trace timestamps come from the simulated clock.

A relative import names a sibling module, never the standard library, so
``.time`` is not the ``time`` module.
"""

from .time import SimTime


class Recorder:
    """Every event reads ``clock.now`` — never the host's wall clock."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._events = []

    def event(self, name: str) -> None:
        self._events.append((SimTime(self._clock.now), name))
