"""The compiler: validate a layered spec, render it, fingerprint it.

``compile_spec`` walks the composed layers, collects *every* problem as a
structured :class:`~repro.worldbuilder.errors.SpecIssue` (overlapping
prefixes, orphan bindings, unclaimed ground truth, ...), and — when the
spec is clean — renders it to the ``(WorldConfig, countries)`` pair the
existing world builder consumes, plus the canonical world manifest and
its SHA-256.

Canonicalization: a composed universe that is *exactly* the default
profile universe renders with ``countries=None``.  The run digest hashes
the ``countries`` value itself, so this is what makes a faithfully
recomposed paper world bit-identical — same digest, same shard cache
keys — to a world nobody ever declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.net.ip import IpError, Prefix
from repro.sim.config import WorldConfig
from repro.sim.profiles import CountrySpec
from repro.sim.world import default_country_universe
from repro.worldbuilder.bindings import Binding, stable_rank
from repro.worldbuilder.errors import SpecIssue, WorldSpecError
from repro.worldbuilder.layers import (
    BaseLayer,
    CountryDraft,
    ExpectedFinding,
    IspDraft,
    Layer,
    MiddleboxLayer,
    NodePopulationLayer,
    ResolverLayer,
)
from repro.worldbuilder.manifest import (
    canonical_json,
    manifest_sha256,
    world_manifest,
)

if TYPE_CHECKING:
    from repro.sim.world import World

#: Tolerance on a country's ISP share sum (float declarations add up).
_SHARE_EPSILON = 1e-9


@dataclass
class WorldSpec:
    """A named stack of layers over a :class:`WorldConfig`."""

    name: str
    config: WorldConfig = field(default_factory=WorldConfig)
    layers: list[Layer] = field(default_factory=list)

    def add(self, layer: Layer) -> Layer:
        """Append a layer; returns it so specs read as one expression."""
        self.layers.append(layer)
        return layer


@dataclass
class CompiledWorld:
    """A validated spec, rendered and fingerprinted.

    ``countries`` is ``None`` when the composed universe canonicalized to
    the default profile universe (see module docstring); ``universe`` is
    always the resolved tuple.
    """

    name: str
    config: WorldConfig
    countries: Optional[tuple[CountrySpec, ...]]
    universe: tuple[CountrySpec, ...]
    manifest: dict
    manifest_sha: str
    findings: tuple[ExpectedFinding, ...]
    #: ``(fraction, isp names or None for all)`` churn directives.
    churns: tuple[tuple[float, Optional[tuple[str, ...]]], ...] = ()

    @property
    def canonical(self) -> bool:
        """Whether the spec canonicalized to the default universe."""
        return self.countries is None

    def manifest_json(self) -> str:
        """The manifest in its canonical (hashed) byte form."""
        return canonical_json(self.manifest)

    def report(self) -> dict:
        """Compile report: what was planted and what a study must find.

        Separate from the manifest on purpose — the manifest fingerprints
        the *topology* and must stay identical between a compiled world
        and the same world built straight from profiles.
        """
        return {
            "name": self.name,
            "manifest_sha256": self.manifest_sha,
            "canonical": self.canonical,
            "countries": len(self.universe),
            "expected_findings": [f.describe() for f in self.findings],
            "churns": [
                {"fraction": fraction, "isps": list(isps) if isps else None}
                for fraction, isps in self.churns
            ],
        }

    def build(self) -> "World":
        """Build the world, then apply post-build churn (in-process only).

        Engine shards rebuild worlds from ``(config, countries)`` alone,
        so churned addresses exist only in the world object returned here
        — they never influence the manifest, the run digest, or a
        sharded run's measurements.
        """
        from repro.sim.world import build_world

        world = build_world(self.config, self.countries)
        for fraction, isps in self.churns:
            self._churn(world, fraction, isps)
        return world

    def run_study(self, seed: int = 1000, **engine_kwargs) -> object:
        """Run the full study over this world (engine when kwargs ask).

        Churn-free specs route through :func:`repro.core.study.run_full_study`
        with ``(config, countries)`` so engine runs shard normally; a spec
        with churn directives must run in process (see :meth:`build`).
        """
        from repro.core.study import run_full_study

        if self.churns and engine_kwargs:
            raise ValueError(
                "churn is applied post-build, in process; engine shards "
                "rebuild worlds and would not see it — drop the engine "
                "options or the churn directives"
            )
        if self.churns:
            return run_full_study(world=self.build(), seed=seed)
        return run_full_study(
            config=self.config,
            countries=self.countries,
            seed=seed,
            **engine_kwargs,
        )

    def _churn(
        self, world: "World", fraction: float, isps: Optional[tuple[str, ...]]
    ) -> None:
        """Move a keyed-hash fraction of the selected ISPs' nodes to new IPs."""
        from repro.luminati.registry import zid_of

        columns = getattr(world.hosts, "columns", None)
        if columns is None:  # pragma: no cover - eager builds have no columns
            world.rotate_node_ips(fraction, seed=self.config.seed)
            return
        allowed = set(isps) if isps is not None else None
        for index in range(len(columns)):
            record = columns.isp_records[columns.isp_idx[index]]
            if allowed is not None and record.spec.name not in allowed:
                continue
            draw = stable_rank("churn", self.config.seed, zid_of(index))
            if draw / 4294967296.0 >= fraction:
                continue
            allocator = world.as_allocators.get(columns.asn[index])
            if allocator is None or allocator.remaining < 1:
                continue
            # Hosts materialize lazily from the columns, so updating the
            # column moves any host view materialized later; an
            # already-materialized host is updated through the table.
            new_ip = allocator.allocate_address()
            host = world.hosts.host(index)
            host.ip = new_ip
            columns.ip[index] = new_ip


def _scaled_isp_nodes(config: WorldConfig, country: CountryDraft, isp: IspDraft) -> int:
    """The node count :meth:`WorldBuilder._build_isp` will give this ISP."""
    if isp.population is not None:
        return max(isp.population, config.scaled(isp.population))
    return config.scaled(isp.share * country.population)


def compile_spec(spec: WorldSpec) -> CompiledWorld:
    """Validate and render a layered spec; raise with *all* issues if bad."""
    issues: list[SpecIssue] = []
    base_layers = [layer for layer in spec.layers if isinstance(layer, BaseLayer)]
    if not base_layers:
        issues.append(
            SpecIssue("no-base-layer", spec.name, "spec declares no BaseLayer")
        )

    # ---- Compose countries and drafts (declaration order) -----------------
    countries: list[CountryDraft] = []
    seen_codes: set[str] = set()
    include_tail = False
    for layer in base_layers:
        include_tail = include_tail or layer.include_tail
        for country in layer.countries:
            if country.code in seen_codes:
                issues.append(
                    SpecIssue(
                        "duplicate-country",
                        country.code,
                        "country declared more than once",
                    )
                )
                continue
            seen_codes.add(country.code)
            countries.append(country)
        for orphan in layer.orphan_isps:
            issues.append(
                SpecIssue(
                    "unknown-country",
                    f"{orphan.country}/{orphan.name}",
                    "ISP declared for a country this layer never declared",
                )
            )

    drafts: list[IspDraft] = []
    for country in countries:
        seen_names: set[str] = set()
        share_total = 0.0
        for isp in country.isps:
            if isp.name in seen_names:
                issues.append(
                    SpecIssue(
                        "duplicate-isp",
                        f"{country.code}/{isp.name}",
                        "ISP name declared twice in one country",
                    )
                )
                continue
            seen_names.add(isp.name)
            if isp.population is None:
                share_total += isp.share
            drafts.append(isp)
        if share_total > 1.0 + _SHARE_EPSILON:
            issues.append(
                SpecIssue(
                    "share-overflow",
                    country.code,
                    f"ISP shares sum to {share_total:.4f} (> 1.0)",
                )
            )

    # ---- Prefix labels: must parse, must not overlap -----------------------
    declared: list[tuple[IspDraft, Prefix]] = []
    for draft in drafts:
        if draft.prefix is None:
            continue
        try:
            parsed = Prefix.from_str(draft.prefix)
        except (IpError, ValueError) as error:
            issues.append(
                SpecIssue(
                    "bad-prefix",
                    f"{draft.country}/{draft.name}",
                    f"prefix {draft.prefix!r} does not parse: {error}",
                )
            )
            continue
        for other_draft, other in declared:
            if parsed.contains_prefix(other) or other.contains_prefix(parsed):
                issues.append(
                    SpecIssue(
                        "overlapping-prefix",
                        f"{draft.country}/{draft.name}",
                        f"prefix {draft.prefix} overlaps "
                        f"{other_draft.country}/{other_draft.name}'s "
                        f"{other_draft.prefix}",
                    )
                )
        declared.append((draft, parsed))

    # ---- Duplicate pinned ASNs ---------------------------------------------
    seen_asns: dict[int, IspDraft] = {}
    for draft in drafts:
        if draft.fixed_asn is None:
            continue
        prior = seen_asns.get(draft.fixed_asn)
        if prior is not None:
            issues.append(
                SpecIssue(
                    "duplicate-asn",
                    f"{draft.country}/{draft.name}",
                    f"fixed ASN {draft.fixed_asn} already pinned by "
                    f"{prior.country}/{prior.name}",
                )
            )
        else:
            seen_asns[draft.fixed_asn] = draft

    # ---- Resolver overrides -------------------------------------------------
    def check_orphan(binding: Binding, selected: Sequence[IspDraft], what: str) -> None:
        if not selected:
            issues.append(
                SpecIssue(
                    "orphan-binding",
                    what,
                    f"binding [{binding.render()}] matches no declared ISP",
                )
            )

    for layer in spec.layers:
        if isinstance(layer, ResolverLayer):
            for binding, fields in layer.overrides:
                selected = binding.select(drafts)
                check_orphan(binding, selected, "resolver")
                for draft in selected:
                    for name, value in fields.items():
                        setattr(draft, name, value)

    # ---- Middleboxes + ground truth ----------------------------------------
    findings: list[ExpectedFinding] = []
    for layer in spec.layers:
        if not isinstance(layer, MiddleboxLayer):
            continue
        for binding, middlebox in layer.plants:
            selected = binding.select(drafts)
            check_orphan(binding, selected, f"middlebox:{middlebox.kind}")
            for draft in selected:
                if getattr(draft, middlebox.field_name) is not None:
                    issues.append(
                        SpecIssue(
                            "conflicting-middlebox",
                            f"{draft.country}/{draft.name}",
                            f"already carries a {middlebox.kind}",
                        )
                    )
                    continue
                middlebox.apply(draft)
                finding = middlebox.finding(draft)
                if finding is not None:
                    findings.append(finding)

    # ---- Population overrides and churn -------------------------------------
    churns: list[tuple[float, Optional[tuple[str, ...]]]] = []
    for layer in spec.layers:
        if not isinstance(layer, NodePopulationLayer):
            continue
        for binding, population in layer.populations:
            selected = binding.select(drafts)
            check_orphan(binding, selected, "population")
            for draft in selected:
                draft.population = population
        for binding, fraction in layer.churns:
            if not 0.0 <= fraction <= 1.0:
                issues.append(
                    SpecIssue(
                        "bad-churn",
                        "population",
                        f"churn fraction out of range: {fraction}",
                    )
                )
                continue
            if binding is None:
                churns.append((fraction, None))
                continue
            selected = binding.select(drafts)
            check_orphan(binding, selected, "churn")
            if selected:
                churns.append((fraction, tuple(d.name for d in selected)))

    # ---- Unclaimed ground truth ---------------------------------------------
    # Every planted finding must ride an ISP that still has nodes at this
    # scale; a finding compiled onto zero nodes can never be rediscovered.
    by_isp = {
        (country.code, isp.name): (country, isp)
        for country in countries
        for isp in country.isps
    }
    for finding in findings:
        entry = by_isp.get((finding.country, finding.isp))
        if entry is None:  # pragma: no cover - findings come from drafts
            continue
        country, isp = entry
        if _scaled_isp_nodes(spec.config, country, isp) < 1:
            issues.append(
                SpecIssue(
                    "unclaimed-ground-truth",
                    f"{finding.country}/{finding.isp}",
                    f"{finding.kind} ground truth planted on an ISP with "
                    f"zero nodes at scale {spec.config.scale}",
                )
            )

    if issues:
        raise WorldSpecError(issues)

    # ---- Render + canonicalize ----------------------------------------------
    rendered: list[CountrySpec] = [country.to_spec() for country in countries]
    if include_tail:
        declared_codes = {country.code for country in countries}
        for tail in default_country_universe():
            if tail.code not in declared_codes:
                rendered.append(tail)
    universe = tuple(rendered)

    countries_arg: Optional[tuple[CountrySpec, ...]] = universe
    if universe == default_country_universe():
        # The digest hashes the countries value itself: only the canonical
        # None form is bit-identical to a world built straight from profiles.
        countries_arg = None

    return CompiledWorld(
        name=spec.name,
        config=spec.config,
        countries=countries_arg,
        universe=universe,
        manifest=world_manifest(spec.config, countries_arg),
        manifest_sha=manifest_sha256(spec.config, countries_arg),
        findings=tuple(findings),
        churns=tuple(churns),
    )


def validate_spec(spec: WorldSpec) -> list[SpecIssue]:
    """All issues in a spec, empty when it compiles cleanly."""
    try:
        compile_spec(spec)
    except WorldSpecError as error:
        return list(error.issues)
    return []


def diff_manifests(a: dict, b: dict) -> list[str]:
    """Human-readable differences between two world manifests."""
    lines: list[str] = []
    if a.get("version") != b.get("version"):
        lines.append(f"version: {a.get('version')} != {b.get('version')}")
    config_a, config_b = a.get("config", {}), b.get("config", {})
    for key in sorted(set(config_a) | set(config_b)):
        if config_a.get(key) != config_b.get(key):
            lines.append(f"config.{key}: {config_a.get(key)!r} != {config_b.get(key)!r}")
    countries_a = {entry["code"]: entry for entry in a.get("countries", [])}
    countries_b = {entry["code"]: entry for entry in b.get("countries", [])}
    for code in sorted(set(countries_a) | set(countries_b)):
        entry_a, entry_b = countries_a.get(code), countries_b.get(code)
        if entry_a is None:
            lines.append(f"country {code}: only in B")
        elif entry_b is None:
            lines.append(f"country {code}: only in A")
        elif entry_a != entry_b:
            changed = sorted(
                key
                for key in set(entry_a) | set(entry_b)
                if entry_a.get(key) != entry_b.get(key)
            )
            lines.append(f"country {code}: differs in {', '.join(changed)}")
    order_a = [entry["code"] for entry in a.get("countries", [])]
    order_b = [entry["code"] for entry in b.get("countries", [])]
    if order_a != order_b and set(order_a) == set(order_b):
        lines.append("country order differs")
    return lines


def _ispspec_to_draft(code: str, spec_isp) -> IspDraft:
    """An :class:`IspDraft` carrying an existing profile ISP verbatim."""
    return IspDraft(
        country=code,
        name=spec_isp.name,
        share=spec_isp.share,
        population=spec_isp.population,
        as_count=spec_isp.as_count,
        mobile=spec_isp.mobile,
        fixed_asn=spec_isp.fixed_asn,
        major_resolvers=spec_isp.major_resolvers,
        major_resolver_nodes=spec_isp.major_resolver_nodes,
        external_dns_fraction=spec_isp.external_dns_fraction,
        external_google_share=spec_isp.external_google_share,
        resolver_hijack=spec_isp.resolver_hijack,
        path_hijack=spec_isp.path_hijack,
        transcoder=spec_isp.transcoder,
        web_filter_tag=spec_isp.web_filter_tag,
        http_proxy_via=spec_isp.http_proxy_via,
        http_proxy_cache=spec_isp.http_proxy_cache,
        monitor=spec_isp.monitor,
        monitor_rate=spec_isp.monitor_rate,
        monitor_ip_count=spec_isp.monitor_ip_count,
        tls_proxy=spec_isp.tls_proxy,
    )


def base_layer_from_profiles(
    country_specs: Sequence[CountrySpec],
) -> BaseLayer:
    """A :class:`BaseLayer` reproducing existing profile specs verbatim.

    The round-trip is exact — ``draft.to_spec() == original`` field for
    field — which is what lets a recomposed paper world canonicalize to
    ``countries=None``.
    """
    layer = BaseLayer()
    for spec in country_specs:
        country = layer.add_country(
            spec.code,
            spec.population,
            residual_hijack_ratio=spec.residual_hijack_ratio,
            external_dns_fraction=spec.external_dns_fraction,
        )
        for isp in spec.isps:
            country.isps.append(_ispspec_to_draft(spec.code, isp))
    return layer
