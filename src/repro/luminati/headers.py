"""The ``X-Hola-Timeline-Debug`` response header.

§2.3 ("Logging and debugging"): Luminati's responses include debugging
headers carrying the exit node's persistent ``zID``, and — when the request
was retried through additional exit nodes — the zIDs of every node tried and
why each attempt failed.  The measurement methodology depends on this header
to (a) identify nodes across requests and (b) notice when a pinned session
silently failed over to a different node.

:class:`TimelineDebug` is the structured form; :meth:`TimelineDebug.serialize`
and :meth:`TimelineDebug.parse` round-trip it through the textual header the
way a real client would consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.records import slot_init

HEADER_NAME = "X-Hola-Timeline-Debug"


@slot_init
@dataclass(frozen=True, slots=True)
class AttemptRecord:
    """One attempted exit node: its zID and the outcome ('ok' or a failure reason)."""

    zid: str
    outcome: str

    def __post_init__(self) -> None:
        if not self.zid:
            raise ValueError("attempt record requires a zid")
        if " " in self.outcome or "," in self.outcome:
            raise ValueError(f"outcome must be a single token: {self.outcome!r}")


@slot_init
@dataclass(frozen=True, slots=True)
class TimelineDebug:
    """Structured contents of the debug header.

    ``zid`` / ``exit_ip`` describe the node that ultimately served (or
    terminally failed) the request; ``attempts`` lists every node tried in
    order, including the final one.
    """

    zid: str
    exit_ip: str
    attempts: tuple[AttemptRecord, ...] = field(default_factory=tuple)

    def serialize(self) -> str:
        """Render the header value."""
        parts = [f"zid={self.zid}", f"ip={self.exit_ip}"]
        if self.attempts:
            trail = ",".join(f"{a.zid}:{a.outcome}" for a in self.attempts)
            parts.append(f"attempts={trail}")
        return " ".join(parts)

    @classmethod
    def parse(cls, value: str) -> "TimelineDebug":
        """Parse a header value back into structured form.

        Raises :class:`ValueError` on malformed input — the measurement
        client treats an unparseable debug header as a failed measurement.
        """
        zid = ""
        exit_ip = ""
        attempts: list[AttemptRecord] = []
        for token in value.split():
            key, _, payload = token.partition("=")
            if not payload:
                raise ValueError(f"malformed debug token {token!r}")
            if key == "zid":
                zid = payload
            elif key == "ip":
                exit_ip = payload
            elif key == "attempts":
                for item in payload.split(","):
                    attempt_zid, _, outcome = item.partition(":")
                    if not attempt_zid or not outcome:
                        raise ValueError(f"malformed attempt record {item!r}")
                    attempts.append(AttemptRecord(zid=attempt_zid, outcome=outcome))
            else:
                raise ValueError(f"unknown debug key {key!r}")
        if not zid:
            raise ValueError(f"debug header missing zid: {value!r}")
        return cls(zid=zid, exit_ip=exit_ip, attempts=tuple(attempts))

    @property
    def retried(self) -> bool:
        """Whether more than one exit node was involved."""
        return len(self.attempts) > 1
