"""Lint configuration: built-in defaults plus a ``pyproject.toml`` overlay.

The defaults encode the repository's actual containment contract (simulated
clock lives in ``net/clock.py``, the record modules that must stay frozen,
…).  A ``[tool.repro-lint]`` table in ``pyproject.toml`` *extends* the
defaults — it can add allowlist entries, record modules, and exclusions, but
never silently remove the built-in ones.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import pathlib
import tomllib
from dataclasses import dataclass, field
from typing import Mapping

#: Paths (globs against posix relpaths) exempt from a rule by design.
DEFAULT_ALLOW: Mapping[str, tuple[str, ...]] = {
    # The simulated clock is the one module allowed to *define* time;
    # it never reads the wall clock, but exempting it documents the contract.
    "DET002": ("*/net/clock.py",),
}

#: Modules whose dataclasses are measurement records and must be frozen
#: (SIM001).  Mutating a record after capture would let analysis rewrite
#: history — the simulated equivalent of editing a pcap.
DEFAULT_RECORD_MODULES: tuple[str, ...] = (
    "*/dnssim/message.py",
    "*/repro/tracing.py",
    "*/luminati/headers.py",
)

#: Path globs never scanned at all.
DEFAULT_EXCLUDE: tuple[str, ...] = (
    "*.egg-info/*",
    "*/.*/*",
)

#: Call patterns the whole-program taint pass treats as determinism *sinks* —
#: the protocol points whose inputs become part of a run's published identity.
#: Matched (fnmatch) against the as-written dotted name, its last component,
#: and the resolved project symbol.  Deliberately *not* generic hashing:
#: seed-derived hashing is the simulation's core mechanism and is fine.
DEFAULT_FLOW_SINKS: tuple[str, ...] = (
    "stable_digest",
    "run_digest",
    "encode_entry",
    "*.from_shard_payloads",
    "*.merge_all",
)

#: Fully-qualified function patterns treated as ProcessExecutor worker
#: entrypoints for the shard-race pass, in addition to the ones detected
#: syntactically (functions passed by name into ``*.run`` / ``*.submit``).
DEFAULT_WORKER_ENTRYPOINTS: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Immutable configuration consumed by :class:`repro.lint.LintEngine`."""

    allow: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )
    record_modules: tuple[str, ...] = DEFAULT_RECORD_MODULES
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE
    select: tuple[str, ...] | None = None
    flow_sinks: tuple[str, ...] = DEFAULT_FLOW_SINKS
    worker_entrypoints: tuple[str, ...] = DEFAULT_WORKER_ENTRYPOINTS

    @classmethod
    def default(cls) -> "LintConfig":
        """The built-in configuration, with no pyproject overlay."""
        return cls()

    @classmethod
    def from_pyproject(cls, pyproject: str | pathlib.Path) -> "LintConfig":
        """Defaults extended by the ``[tool.repro-lint]`` table, if present."""
        path = pathlib.Path(pyproject)
        with path.open("rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("repro-lint", {})
        allow: dict[str, tuple[str, ...]] = {
            rule: tuple(globs) for rule, globs in DEFAULT_ALLOW.items()
        }
        for rule, globs in table.get("allow", {}).items():
            merged = dict.fromkeys(allow.get(rule, ()) + tuple(globs))
            allow[rule] = tuple(merged)
        record = tuple(
            dict.fromkeys(DEFAULT_RECORD_MODULES + tuple(table.get("record-modules", ())))
        )
        exclude = tuple(
            dict.fromkeys(DEFAULT_EXCLUDE + tuple(table.get("exclude", ())))
        )
        select = tuple(table["select"]) if "select" in table else None
        flow_sinks = tuple(
            dict.fromkeys(DEFAULT_FLOW_SINKS + tuple(table.get("flow-sinks", ())))
        )
        workers = tuple(
            dict.fromkeys(
                DEFAULT_WORKER_ENTRYPOINTS
                + tuple(table.get("worker-entrypoints", ()))
            )
        )
        return cls(
            allow=allow,
            record_modules=record,
            exclude=exclude,
            select=select,
            flow_sinks=flow_sinks,
            worker_entrypoints=workers,
        )

    @classmethod
    def load(cls, root: str | pathlib.Path) -> "LintConfig":
        """Config for a project rooted at ``root`` (walks up to a pyproject)."""
        directory = pathlib.Path(root).resolve()
        for candidate in (directory, *directory.parents):
            pyproject = candidate / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls.default()

    def signature(self) -> str:
        """Stable digest of the configuration, for cache invalidation."""
        payload = {
            "allow": {rule: list(globs) for rule, globs in sorted(self.allow.items())},
            "record_modules": list(self.record_modules),
            "exclude": list(self.exclude),
            "select": list(self.select) if self.select is not None else None,
            "flow_sinks": list(self.flow_sinks),
            "worker_entrypoints": list(self.worker_entrypoints),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def is_allowed(self, rule_id: str, relpath: str) -> bool:
        """True when ``relpath`` is exempt from ``rule_id`` by configuration."""
        return any(
            fnmatch.fnmatch(relpath, pattern)
            for pattern in self.allow.get(rule_id, ())
        )

    def is_record_module(self, relpath: str) -> bool:
        """True when SIM001 applies to ``relpath``."""
        return any(
            fnmatch.fnmatch(relpath, pattern) for pattern in self.record_modules
        )
