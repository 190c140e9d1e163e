"""STER001, FLT001, OBS001, SRV001, WLD001 — modules a file may not import.

The reproduction's whole claim to validity (DESIGN.md) is that the Luminati
ecosystem is simulated end to end: importing ``socket`` or ``requests``
anywhere in ``src/`` would let a "measurement" touch the live Internet,
which is exactly what the paper's ethics discussion (§3.4) engineers around
and what an offline reproduction must make impossible, not just unlikely.
STER001 bans those imports everywhere.

The other four rows hold one package each to a stricter gate than the
repo-wide DET001/DET002: inside it, even *importing* a clock or entropy
module is a finding, because the package's output is a pinned identity
(fault decisions, trace events, service ledgers, world manifests) that must
replay from its seed.  FLT001 bans a *seeded* ``random.Random`` too: a
sequential stream's draws depend on how many came before, so two shard
topologies of the same run would see different faults.

Every row is one :class:`ImportBan`; they differ only in data.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.rules.base import Rule, call_name
from repro.lint.rules.determinism import is_wall_clock_call

#: Calls that read raw OS entropy.
_ENTROPY_CALLS = frozenset({"os.urandom", "os.getrandom"})

#: Modules whose import implies wall-clock intent.
_CLOCK_MODULES = ("datetime", "time")

#: Modules whose import brings in an RNG stream or an entropy source.
_ENTROPY_MODULES = ("numpy.random", "random", "secrets", "uuid")


@dataclass(frozen=True)
class ImportBan(Rule):
    """Forbid importing ``banned`` modules in the files under ``package``.

    A module is banned when it is one of ``banned`` or lies under one;
    ``from X import Y`` is checked as ``X`` and then as ``X.Y`` (so
    ``from http import client`` is caught), and relative imports, which
    name sibling modules, are skipped.  A row can also ban wall-clock and
    raw-entropy *calls*; ``hint`` ends every message with the sanctioned
    alternative.
    """

    rule_id: str
    title: str
    rationale: str
    banned: tuple[str, ...]
    hint: str
    #: Path fragment a file must contain to be checked ("" checks every file).
    package: str = ""
    #: Path suffix of the one module under ``package`` the row skips.
    exempt: str | None = None
    wall_clock_calls: bool = False
    entropy_calls: bool = False

    def _family(self, module: str) -> str | None:
        """The banned name ``module`` is or lies under, else ``None``."""
        for name in self.banned:
            if module == name or module.startswith(name + "."):
                return name
        return None

    def _imported(self, node: ast.AST) -> list[str]:
        """The module names an import statement is checked as."""
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if self._family(node.module) is not None:
                return [node.module]
            return [f"{node.module}.{alias.name}" for alias in node.names]
        return []

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if self.package not in ctx.path or (
            self.exempt is not None and ctx.path.endswith(self.exempt)
        ):
            return
        for node in ast.walk(ctx.tree):
            for module in self._imported(node):
                family = self._family(module)
                if family is not None:
                    yield self.finding(
                        ctx, node, module,
                        f"import of '{module}' (banned family: {family}); {self.hint}",
                    )
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if self.wall_clock_calls and is_wall_clock_call(name):
                yield self.finding(
                    ctx, node, name, f"'{name}()' reads the wall clock; {self.hint}"
                )
            elif self.entropy_calls and name in _ENTROPY_CALLS:
                yield self.finding(
                    ctx, node, name, f"'{name}()' reads raw entropy; {self.hint}"
                )


STER001 = ImportBan(
    rule_id="STER001",
    title="real-I/O import in simulation code",
    rationale=(
        "The simulation must stay sterile: no sockets, TLS, subprocesses, or "
        "HTTP clients — all 'network' behaviour flows through the simulated "
        "fabric so runs are offline, safe, and reproducible."
    ),
    banned=(
        "socket",
        "ssl",
        "http.client",
        "http.server",
        "urllib.request",
        "urllib.error",
        "requests",
        "subprocess",
        "socketserver",
        "ftplib",
        "smtplib",
        "telnetlib",
    ),
    hint="route network behaviour through the simulated fabric",
)

FLT001 = ImportBan(
    rule_id="FLT001",
    title="fault decision outside the keyed-hash FaultPlan",
    rationale=(
        "Fault injection replays bit-for-bit across shards, workers, and "
        "crash/resume only because every decision is a position-independent "
        "hash drawn through FaultPlan.  Any RNG stream (even a seeded "
        "random.Random) or entropy source (secrets, uuid, os.urandom) in "
        "repro.faults reintroduces execution-order dependence."
    ),
    banned=_ENTROPY_MODULES,
    hint="fault decisions must be keyed hashes drawn through FaultPlan",
    package="repro/faults/",
    entropy_calls=True,
)

OBS001 = ImportBan(
    rule_id="OBS001",
    title="wall-clock access in the observability plane",
    rationale=(
        "Trace events are byte-comparable across worker counts and "
        "crash/resume only because every timestamp is the SimClock reading. "
        "Wall-clock reads anywhere in repro.obs except profiling.py (the "
        "digest-excluded channel) would leak scheduling into the trace."
    ),
    banned=_CLOCK_MODULES,
    hint=(
        "trace timestamps must come from the SimClock; wall-clock work "
        "belongs in repro.obs.profiling"
    ),
    package="repro/obs/",
    # The profiling channel is excluded from trace digests by design.
    exempt="repro/obs/profiling.py",
    wall_clock_calls=True,
)

SRV001 = ImportBan(
    rule_id="SRV001",
    title="wall clock or ambient randomness in the service plane",
    rationale=(
        "A service run replays bit-for-bit — fire times, queue order, cache "
        "keys — only because scheduling reads the SimClock and jitter is a "
        "keyed hash of (seed, schedule key, occurrence).  A wall-clock read "
        "or RNG stream anywhere in repro.serve makes the queue's history "
        "depend on the host, and two runs of the same spec stop agreeing."
    ),
    banned=_CLOCK_MODULES + _ENTROPY_MODULES,
    hint=(
        "schedule on the SimClock and derive jitter with jitter_fraction "
        "(a keyed hash)"
    ),
    package="repro/serve/",
    wall_clock_calls=True,
    entropy_calls=True,
)

WLD001 = ImportBan(
    rule_id="WLD001",
    title="wall clock or ambient randomness in the world builder",
    rationale=(
        "A compiled world's manifest SHA-256 is its identity — it rides "
        "run metrics and CI pins.  The same spec must therefore compile "
        "to the same bytes on every host and in "
        "every process, which dies the moment a binding tie-break or a "
        "manifest field comes from the wall clock or an RNG stream.  "
        "Selection order comes from stable_rank (a keyed hash); nothing "
        "else is allowed to break ties."
    ),
    banned=_CLOCK_MODULES + _ENTROPY_MODULES,
    hint=(
        "compiling the same spec twice must yield the same manifest; break "
        "ties with stable_rank (a keyed hash)"
    ),
    package="repro/worldbuilder/",
    wall_clock_calls=True,
    entropy_calls=True,
)
