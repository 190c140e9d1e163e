"""The seeded fault plan: every chaos decision is a pure hash lookup.

The determinism contract of the execution engine (``docs/engine.md``) says a
shard's result is a pure function of its task.  Fault injection must not
weaken that, so no fault decision may consume a draw from any sequential RNG
stream the simulation already owns (the super proxy's selection RNG, the
world builder's) — doing so would shift every later draw and make a faulted
world diverge from the fault-free one in uncontrolled ways.

Instead, each decision is a *keyed hash*: ``draw(channel, *key)`` maps
``(plan seed, channel, key)`` through SHA-256 to a uniform float in
``[0, 1)``.  Two consequences:

* the same ``(zid, attempt index)`` always suffers the same fault, bit-for-
  bit, regardless of shard layout, worker count, or crash/resume history;
* a world built with a zero-fault profile never calls into the plan at all,
  so its behaviour is byte-identical to a world built before faults existed.
"""

from __future__ import annotations

import hashlib

#: A draw is the first 52 bits of the digest (exact in a float) over 2**52.
_DRAW_SPAN = float(1 << 52)


class FaultPlan:
    """Deterministic fault draws derived from one seed string.

    The seed folds together the world seed and the user-chosen fault seed
    (see :meth:`FaultInjector.from_config`), so re-running the same study
    replays identical chaos while ``--fault-seed`` re-rolls it wholesale.
    """

    def __init__(self, seed: str) -> None:
        self.seed = seed
        #: ``seed + "\x1f" + channel`` by channel: the fixed head of each message.
        self._prefixes: dict[str, str] = {}

    def draw(self, channel: str, *key: object) -> float:
        """A uniform float in ``[0, 1)``, a pure function of the key.

        The hashed message is the seed, the channel and each key part's
        ``repr``, joined by ``"\\x1f"`` and encoded as UTF-8; the draw is the
        digest's first 52 bits over ``2**52``.
        """
        prefix = self._prefixes.get(channel)
        if prefix is None:
            prefix = self._prefixes[channel] = f"{self.seed}\x1f{channel}"
        digest = hashlib.sha256("\x1f".join([prefix, *map(repr, key)]).encode("utf-8")).digest()
        return (int.from_bytes(digest[:7], "big") >> 4) / _DRAW_SPAN

    def happens(self, probability: float, channel: str, *key: object) -> bool:
        """Whether the fault keyed by ``(channel, key)`` fires."""
        if probability <= 0.0:
            return False
        return self.draw(channel, *key) < probability

    def uniform(self, low: float, high: float, channel: str, *key: object) -> float:
        """A deterministic value in ``[low, high)`` keyed by ``(channel, key)``."""
        return low + (high - low) * self.draw(channel, *key)
