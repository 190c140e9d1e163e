"""repro.worldbuilder — a declarative, deterministic topology DSL.

Compose a world as a stack of layers (countries/ISPs, resolver policies,
planted middleboxes, node populations), compile it — with whole-spec
validation — to the ``(WorldConfig, countries)`` pair the existing world
builder consumes, and fingerprint it with a canonical-JSON manifest whose
SHA-256 rides run metrics.

See ``docs/worldbuilder.md`` for the guide and ``repro world`` for the
CLI surface (``compile``/``validate``/``diff``/``presets``).
"""

from repro.worldbuilder.bindings import (
    Binding,
    Selector,
    by_country,
    by_isp,
    by_prefix,
    stable_rank,
    where,
)
from repro.worldbuilder.compile import (
    CompiledWorld,
    WorldSpec,
    base_layer_from_profiles,
    compile_spec,
    diff_manifests,
    validate_spec,
)
from repro.worldbuilder.errors import SpecIssue, WorldSpecError
from repro.worldbuilder.layers import (
    BaseLayer,
    CountryDraft,
    ExpectedFinding,
    HttpProxy,
    IspDraft,
    MiddleboxLayer,
    Monitor,
    NodePopulationLayer,
    ResolverHijacker,
    ResolverLayer,
    TlsProxy,
    Transcoder,
    WebFilter,
)
from repro.worldbuilder.manifest import (
    MANIFEST_VERSION,
    canonical_json,
    expand_universe,
    manifest_sha256,
    world_manifest,
)
from repro.worldbuilder.presets import PRESETS, get_preset

__all__ = [
    "MANIFEST_VERSION",
    "PRESETS",
    "BaseLayer",
    "Binding",
    "CompiledWorld",
    "CountryDraft",
    "ExpectedFinding",
    "HttpProxy",
    "IspDraft",
    "MiddleboxLayer",
    "Monitor",
    "NodePopulationLayer",
    "ResolverHijacker",
    "ResolverLayer",
    "Selector",
    "SpecIssue",
    "TlsProxy",
    "Transcoder",
    "WebFilter",
    "WorldSpec",
    "WorldSpecError",
    "base_layer_from_profiles",
    "by_country",
    "by_isp",
    "by_prefix",
    "canonical_json",
    "compile_spec",
    "diff_manifests",
    "expand_universe",
    "get_preset",
    "manifest_sha256",
    "stable_rank",
    "validate_spec",
    "where",
    "world_manifest",
]
