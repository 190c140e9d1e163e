"""JSONL checkpoint journal: manifest line + one line per completed shard.

The first line is the run manifest — seed, world-config digest, shard count,
plan sizes — and every subsequent line is one shard's full result (datasets
in their export-codec dict form, plus metrics).  Because shard results are
pure functions of the run parameters, a journal is a *cache*: resuming
replays nothing that already completed, and a resumed run's merged output is
byte-identical to an uninterrupted one.

Resume refuses a journal written in another on-disk shape
(:data:`JOURNAL_VERSION`), and one whose manifest digest disagrees with the
current run parameters — silently mixing shards computed under different
worlds, seeds, or plans is exactly the corruption the digest exists to
catch.  A torn final line (the process died mid-write) is tolerated and
dropped; corruption anywhere else is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]

#: Bump when the journal's on-disk shape changes incompatibly.  Version 2
#: stores a traced shard's events as one canonical JSONL chunk (version 1
#: stored a list of event dicts); resume refuses any other version.
JOURNAL_VERSION = 2


class CheckpointError(RuntimeError):
    """A journal could not be read or written."""


class CheckpointMismatchError(CheckpointError):
    """Resume was asked to continue a journal from a *different* run."""


@dataclass
class RunManifest:
    """The journal's first line: enough to recognise the run it belongs to."""

    digest: str
    seed: int
    shards: int
    config: dict
    plan_sizes: dict[str, int] = field(default_factory=dict)
    retry: dict = field(default_factory=dict)
    validity: dict = field(default_factory=dict)
    #: SHA-256 of the world manifest (see :mod:`repro.worldbuilder.manifest`);
    #: empty in journals written before the field existed.
    world_manifest: str = ""
    version: int = JOURNAL_VERSION

    def to_dict(self) -> dict:
        """JSON-able form (the journal line, minus ordering)."""
        payload = {
            "kind": "manifest",
            "version": self.version,
            "digest": self.digest,
            "seed": self.seed,
            "shards": self.shards,
            "config": self.config,
            "plan_sizes": self.plan_sizes,
            "retry": self.retry,
            "validity": self.validity,
        }
        if self.world_manifest:
            payload["world_manifest"] = self.world_manifest
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            digest=payload["digest"],
            seed=payload["seed"],
            shards=payload["shards"],
            config=payload["config"],
            plan_sizes=payload.get("plan_sizes", {}),
            retry=payload.get("retry", {}),
            validity=payload.get("validity", {}),
            world_manifest=payload.get("world_manifest", ""),
            version=payload.get("version", JOURNAL_VERSION),
        )


class CheckpointJournal:
    """Append-only JSONL journal at a filesystem path."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        """Whether anything was ever journalled at this path."""
        return self.path.exists()

    def start(self, manifest: RunManifest) -> None:
        """Begin a fresh journal (truncating any previous one)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest.to_dict(), sort_keys=True) + "\n")

    def append_shard(self, result: dict) -> None:
        """Journal one completed shard's result dict."""
        if result.get("kind") != "shard" or "index" not in result:
            raise CheckpointError(f"not a shard result: {sorted(result)!r}")
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(result, sort_keys=True) + "\n")
            handle.flush()

    def load(self) -> tuple[Optional[RunManifest], dict[int, dict]]:
        """Read the journal back: ``(manifest, completed shards by index)``.

        Returns ``(None, {})`` when the journal does not exist.  A torn
        final line is dropped (crash mid-append); malformed content anywhere
        else raises :class:`CheckpointError`.
        """
        if not self.path.exists():
            return None, {}
        lines = self.path.read_text(encoding="utf-8").splitlines()
        manifest: Optional[RunManifest] = None
        completed: dict[int, dict] = {}
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    break  # torn final line: the append never completed
                raise CheckpointError(
                    f"{self.path}:{lineno + 1}: corrupt journal line"
                ) from None
            kind = payload.get("kind")
            if lineno == 0:
                if kind != "manifest":
                    raise CheckpointError(
                        f"{self.path}: first line is {kind!r}, expected a manifest"
                    )
                manifest = RunManifest.from_dict(payload)
            elif kind == "shard":
                completed[payload["index"]] = payload
            else:
                raise CheckpointError(
                    f"{self.path}:{lineno + 1}: unexpected record kind {kind!r}"
                )
        if manifest is None and completed:
            raise CheckpointError(f"{self.path}: shard records without a manifest")
        return manifest, completed

    def rewrite(self, manifest: RunManifest, completed: dict[int, dict]) -> None:
        """Compact the journal: manifest plus completed shards, nothing else.

        Run on resume so a torn final line from the crash is dropped from
        disk — otherwise later appends would land *after* the garbage and a
        future load would see corruption mid-file.
        """
        self.start(manifest)
        for index in sorted(completed):
            self.append_shard(completed[index])

    def verify_manifest(self, digest: str) -> tuple[RunManifest, dict[int, dict]]:
        """Load for resume, insisting the journal belongs to *this* run."""
        manifest, completed = self.load()
        if manifest is None:
            raise CheckpointMismatchError(
                f"{self.path}: cannot resume — no checkpoint manifest found"
            )
        if manifest.version != JOURNAL_VERSION:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint journal version {manifest.version} "
                f"cannot be resumed by this build (journal version "
                f"{JOURNAL_VERSION}); restart the checkpoint"
            )
        if manifest.digest != digest:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint belongs to a different run "
                f"(journal digest {manifest.digest[:12]}…, "
                f"current run {digest[:12]}…); refusing to mix shards"
            )
        return manifest, completed
