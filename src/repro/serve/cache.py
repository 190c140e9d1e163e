"""Digest-keyed result caches for shard results.

Both implementations satisfy the engine's
:class:`~repro.engine.study.ShardCache` protocol: ``get`` a JSON-able shard
result by its :func:`~repro.engine.study.shard_cache_key`, ``put`` freshly
executed ones.  Because the key covers everything the shard's output
depends on, a hit is bit-for-bit equivalent to re-execution — a verbatim
study re-submission is served entirely from cache.  The key is per shard
task, so a change to the world config, fault seed, study seed or shard
count dirties every shard of a study; only a change confined to some plan
slices is served in part.

:class:`DiskShardCache` is the engine's crash-recovery state, both for the
service (``<state-dir>/shard-cache/``) and for ``repro study --checkpoint
DIR`` (``DIR/shard-cache/``): entries are written atomically (temp file +
rename), so a process killed mid-run leaves a valid cache and the re-run
re-executes only what never completed.  No separate resume protocol is
needed — re-running the same study against the same cache directory *is*
the resume, and it converges on byte-identical results because every
completed shard hits.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

#: Bump when the on-disk entry envelope changes incompatibly.
CACHE_ENVELOPE_VERSION = 1

#: Subdirectory of a service state dir or a study checkpoint dir that holds
#: the :class:`DiskShardCache` entries.
SHARD_CACHE_DIR = "shard-cache"


class CacheEntryError(ValueError):
    """A cache file parsed as JSON but is not a valid, intact envelope."""


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_entry(result: dict) -> str:
    """A shard result wrapped in the self-describing on-disk envelope.

    The envelope carries a SHA-256 over the canonical payload, so a
    *semantically* corrupt entry — JSON-valid but bit-flipped, truncated at
    a token boundary, or hand-edited — is detectable, not just one that
    fails to parse.  A poisoned shard entry silently feeding a study would
    violate the hit-equals-re-execution contract.

    The payload is serialised once and spliced into the envelope: the
    envelope's keys are already in sorted order, so the bytes equal the
    canonical encoding of the envelope dict.
    """
    payload = _canonical(result)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f'{{"payload":{payload},"sha256":"{digest}","v":{CACHE_ENVELOPE_VERSION}}}'


def decode_entry(text: str) -> dict:
    """The shard result inside an envelope; raises on any defect.

    ``json.JSONDecodeError`` for torn files, :class:`CacheEntryError` for
    structurally wrong envelopes or a payload whose SHA-256 disagrees with
    the declared one.
    """
    envelope = json.loads(text)
    if (
        not isinstance(envelope, dict)
        or envelope.get("v") != CACHE_ENVELOPE_VERSION
        or not isinstance(envelope.get("payload"), dict)
        or not isinstance(envelope.get("sha256"), str)
    ):
        raise CacheEntryError("not a shard-cache envelope")
    payload = envelope["payload"]
    actual = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    if actual != envelope["sha256"]:
        raise CacheEntryError(
            f"payload SHA mismatch: {actual[:12]} != {envelope['sha256'][:12]}"
        )
    return payload


class _CacheStats:
    """Hit/miss/store counters shared by both cache kinds."""

    __slots__ = ("hits", "misses", "stores", "corrupt")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries evicted because they were torn or failed verification.
        self.corrupt = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never consulted)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class MemoryShardCache:
    """In-process shard cache: a dict with hit-rate accounting."""

    def __init__(self) -> None:
        self._entries: dict[str, dict] = {}
        self.stats = _CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[dict]:
        """The cached result, counting the lookup as hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def put(self, key: str, result: dict) -> None:
        """Remember one shard result."""
        self._entries[key] = result
        self.stats.stores += 1


class DiskShardCache:
    """Persistent shard cache: one canonical-JSON file per key.

    Writes are atomic — serialized to ``<key>.json.tmp`` then renamed — so
    a crash mid-``put`` can never leave a half-entry a later run would
    trust.  Entries are stored in the self-describing envelope of
    :func:`encode_entry`, whose payload SHA-256 catches *semantic*
    corruption that still parses as JSON.  Any defective file — torn,
    unreadable, mis-shaped, or SHA-mismatched — is treated as a miss and
    deleted, because a corrupt cache entry must never be worth more than
    re-executing the shard.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = _CacheStats()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def get(self, key: str) -> Optional[dict]:
        """The cached result, counting the lookup as hit or miss."""
        path = self._path(key)
        try:
            payload = decode_entry(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (json.JSONDecodeError, CacheEntryError, OSError):
            # Torn, unreadable, or verification-failed entry: drop it and
            # re-execute the shard.
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, result: dict) -> None:
        """Persist one shard result atomically."""
        path = self._path(key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(encode_entry(result), encoding="utf-8")
        os.replace(tmp, path)
        self.stats.stores += 1
