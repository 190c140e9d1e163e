"""One-call orchestration of the complete study.

:func:`run_full_study` reproduces the paper's entire evaluation pass —
build/accept a world, run all four experiments, compute every table — and
returns a :class:`StudyResults` whose :meth:`~StudyResults.render_summary`
prints the whole paper-shaped report.  The CLI and examples compose the
pieces individually; this is the "just give me everything" entry point a
downstream user reaches for first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import paper
from repro.core.analysis import (
    AnalysisThresholds,
    CertReplacementAnalysis,
    HtmlModificationAnalysis,
    MonitoringAnalysis,
    table3_country_hijack,
    table4_isp_dns,
    table6_js_injection,
    table7_image_compression,
    table8_issuers,
    table9_monitoring,
    table_http_proxies,
)
from repro.core.attribution import (
    AttributionSummary,
    attribute_hijacking,
    classify_dns_servers,
)
from repro.core.experiments.dns_hijack import DnsDataset, DnsHijackExperiment
from repro.core.experiments.http_mod import HttpDataset, HttpModExperiment
from repro.core.experiments.https_mitm import HttpsDataset, HttpsMitmExperiment
from repro.core.experiments.monitoring import MonitoringDataset, MonitoringExperiment
from repro.core.reports import Comparison, render_comparisons, render_table
from repro.sim import World, WorldConfig, build_world


@dataclass
class StudyResults:
    """Everything one full pass produces."""

    world: World
    thresholds: AnalysisThresholds
    dns: DnsDataset
    http: HttpDataset
    https: HttpsDataset
    monitoring: MonitoringDataset
    attribution: AttributionSummary
    html_analysis: HtmlModificationAnalysis
    cert_analysis: CertReplacementAnalysis
    monitoring_analysis: MonitoringAnalysis
    #: Execution metrics when the engine ran the study (``None`` for the
    #: legacy in-process path).  See :mod:`repro.engine.metrics`.
    engine_report: Optional[dict] = None

    def headline_comparisons(self) -> list[Comparison]:
        """The paper's headline fractions next to this run's."""
        return [
            Comparison(
                "DNS hijacked fraction",
                paper.DNS_HIJACKED_FRACTION,
                round(self.dns.hijacked_count / max(1, self.dns.node_count), 4),
            ),
            Comparison(
                "HTML modified fraction",
                paper.HTTP_HTML_MODIFIED_FRACTION,
                round(
                    self.html_analysis.modified_nodes / max(1, self.http.node_count), 4
                ),
            ),
            Comparison(
                "cert-replaced fraction",
                paper.HTTPS_REPLACED_NODES / paper.HTTPS_NODES,
                round(self.https.replaced_count / max(1, self.https.node_count), 5),
            ),
            Comparison(
                "monitored fraction",
                paper.MONITORED_FRACTION,
                round(
                    self.monitoring_analysis.monitored_nodes
                    / max(1, self.monitoring.node_count),
                    4,
                ),
            ),
        ]

    def render_summary(self) -> str:
        """The full study report as one printable block."""
        world = self.world
        sections = [
            render_comparisons(self.headline_comparisons(), title="Headlines (paper vs this run)"),
            render_table(
                ("experiment", "nodes", "ASes", "countries"),
                [
                    ("DNS", self.dns.node_count, self.dns.as_count(), self.dns.country_count()),
                    ("HTTP", self.http.node_count, self.http.as_count(), self.http.country_count()),
                    ("HTTPS", self.https.node_count, self.https.as_count(), self.https.country_count()),
                    (
                        "Monitoring",
                        self.monitoring.node_count,
                        self.monitoring.as_count(),
                        self.monitoring.country_count(),
                    ),
                ],
                title="Datasets (Table 2)",
            ),
            render_table(
                ("country", "ratio"),
                [
                    (row.country, f"{row.ratio:.1%}")
                    for row in table3_country_hijack(self.dns, self.thresholds)[:10]
                ],
                title="Top hijacked countries (Table 3)",
            ),
            render_table(
                ("issuer", "nodes"),
                [
                    (row.issuer, row.exit_nodes)
                    for row in self.cert_analysis.rows[:8]
                ],
                title="Certificate replacers (Table 8)",
            ),
            render_table(
                ("entity", "nodes"),
                [
                    (row.entity, row.exit_nodes)
                    for row in self.monitoring_analysis.rows[:6]
                ],
                title="Content monitors (Table 9)",
            ),
        ]
        ledger = world.client.ledger
        sections.append(
            f"traffic: {ledger.total_gb:.3f} GB, est. "
            f"${ledger.estimated_cost_usd():.2f}; "
            f"ethics-cap violations: {len(ledger.violations())}"
        )
        return "\n\n".join(sections)


def assemble_results(
    world: World,
    dns: DnsDataset,
    http: HttpDataset,
    https: HttpsDataset,
    monitoring: MonitoringDataset,
) -> StudyResults:
    """Run every analysis over already-collected datasets.

    Shared by the legacy in-process path and the engine: however the
    datasets were gathered (adaptive crawl, sharded plan execution, or
    shards served from a shard cache), the analysis stage is one code path.
    """
    thresholds = AnalysisThresholds.for_scale(world.config.scale)
    classification = classify_dns_servers(dns, world.routeviews, world.orgmap, thresholds)
    return StudyResults(
        world=world,
        thresholds=thresholds,
        dns=dns,
        http=http,
        https=https,
        monitoring=monitoring,
        attribution=attribute_hijacking(dns, classification, world.orgmap),
        html_analysis=table6_js_injection(http, world.corpus, thresholds),
        cert_analysis=table8_issuers(https, thresholds),
        monitoring_analysis=table9_monitoring(monitoring, world.orgmap, thresholds),
    )


def run_full_study(
    world: Optional[World] = None,
    config: Optional[WorldConfig] = None,
    seed: int = 1000,
    *,
    countries: Optional[tuple] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    shard_cache: Optional[object] = None,
) -> StudyResults:
    """Run all four experiments and every analysis; return the bundle.

    Pass an existing ``world`` to reuse one, or a ``config`` (default: 2%
    scale) to build one.  ``countries`` follows
    :func:`~repro.sim.build_world`'s convention (``None`` = the default
    profile universe) and is how compiled worldbuilder topologies flow
    through — it shapes the run digest, so it cannot combine with a
    pre-built ``world``.  Setting any of ``shards``/``workers``/
    ``shard_cache`` routes execution through the sharded engine
    (:mod:`repro.engine`), which rebuilds worlds per shard and therefore
    cannot accept a pre-built ``world``.  ``shard_cache`` is a digest-keyed
    shard result cache (see :mod:`repro.serve.cache`); cached shards are
    reused bit-for-bit instead of re-executed, so a
    :class:`~repro.serve.cache.DiskShardCache` doubles as a checkpoint.
    """
    use_engine = shards is not None or workers is not None or shard_cache is not None
    if world is not None and countries is not None:
        raise ValueError(
            "countries shapes the world build (and the run digest); "
            "pass config=, not world="
        )
    if use_engine:
        if world is not None:
            raise ValueError(
                "engine runs rebuild a private world per shard; "
                "pass config=, not world="
            )
        # Imported lazily: repro.engine imports this module for the shared
        # analysis stage, so a module-level import would be circular.
        from repro.engine.study import StudySpec, run_study

        spec = StudySpec(
            config=config if config is not None else WorldConfig(scale=0.02),
            countries=countries,
            seed=seed,
            shards=shards if shards is not None else 1,
            workers=workers if workers is not None else 1,
        )
        run = run_study(spec, shard_cache=shard_cache)
        assert run.results is not None
        run.results.engine_report = run.report.to_dict()
        return run.results

    if world is None:
        world = build_world(
            config if config is not None else WorldConfig(scale=0.02), countries
        )

    dns = DnsHijackExperiment(world, seed=seed + 1).run()
    http = HttpModExperiment(world, seed=seed + 2).run()
    https = HttpsMitmExperiment(world, seed=seed + 3).run()
    monitoring = MonitoringExperiment(world, seed=seed + 4).run()

    return assemble_results(world, dns, http, https, monitoring)


# Re-exported for discoverability alongside the study runner.
__all__ = [
    "StudyResults",
    "assemble_results",
    "run_full_study",
    "table4_isp_dns",
    "table7_image_compression",
    "table_http_proxies",
]
