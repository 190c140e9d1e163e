"""Command-line interface: ``python -m repro <command>``.

Eight commands cover the full pipeline without writing any code:

* ``world-info`` — build a world and summarize its population;
* ``run`` — run one (or all) of the paper's four experiments, print the
  corresponding tables, and optionally save the dataset as JSON Lines;
* ``study`` — run the complete study on the sharded execution engine
  (``--shards/--workers/--checkpoint DIR/--resume``, plus ``--trace`` /
  ``--obs-metrics`` for the observability plane; see ``docs/engine.md``
  and ``docs/observability.md``);
* ``serve`` — drain a JSON queue spec as a multi-tenant
  continuous-measurement service with digest-keyed incremental re-crawls
  (see ``docs/service.md``);
* ``trace`` — summarize or export a trace written by ``study --trace``
  (Chrome trace-event JSON, Prometheus text, metrics snapshot);
* ``report`` — re-print the tables for a previously saved dataset;
* ``lint`` — run the sterility/determinism static checker over the source
  (see ``docs/static_analysis.md``); exits non-zero on new findings;
* ``world`` — compile, validate, and diff declarative topology presets
  from :mod:`repro.worldbuilder` (see ``docs/worldbuilder.md``).

Every world-building command accepts ``--scale`` / ``--seed``;
``REPRO_SCALE`` is honoured when ``--scale`` is omitted.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro.core import export, paper
from repro.core.analysis import (
    AnalysisThresholds,
    as_dispersion,
    google_dns_concentration,
    table3_country_hijack,
    table4_isp_dns,
    table6_js_injection,
    table7_image_compression,
    table8_issuers,
    table9_monitoring,
    table_http_proxies,
)
from repro.core.attribution import (
    attribute_hijacking,
    classify_dns_servers,
    vendor_js_families,
)
from repro.core.experiments.dns_hijack import DnsHijackExperiment
from repro.core.experiments.http_mod import HttpModExperiment
from repro.core.experiments.https_mitm import HttpsMitmExperiment
from repro.core.experiments.monitoring import MonitoringExperiment
from repro.core.reports import render_cdf_ascii, render_table
from repro.sim import World, WorldConfig, build_world

EXPERIMENTS = tuple(export.KINDS)


def _build(args: argparse.Namespace) -> World:
    config = WorldConfig.from_env(scale=args.scale, seed=args.seed)
    print(f"building world (scale={config.scale}, seed={config.seed}) ...", flush=True)
    started = time.perf_counter()
    world = build_world(config)
    print(
        f"  {world.truth.nodes_total:,} hosts / {len(world.routeviews):,} ASes / "
        f"{len(world.truth.nodes_by_country)} countries in "
        f"{time.perf_counter() - started:.1f}s"
    )
    return world


def _print_dns_report(world: World, dataset, thresholds: AnalysisThresholds) -> None:
    rows = table3_country_hijack(dataset, thresholds)
    print(
        render_table(
            ("country", "hijacked", "total", "ratio"),
            [(r.country, r.hijacked, r.total, f"{r.ratio:.1%}") for r in rows[:10]],
            title="\nTable 3 — top countries by hijack ratio",
        )
    )
    classification = classify_dns_servers(dataset, world.routeviews, world.orgmap, thresholds)
    isp_rows = table4_isp_dns(classification, world.orgmap)
    print(
        render_table(
            ("country", "ISP", "servers", "nodes"),
            [(r.country, r.isp, r.dns_servers, r.exit_nodes) for r in isp_rows],
            title="\nTable 4 — hijacking ISP resolvers",
        )
    )
    summary = attribute_hijacking(dataset, classification, world.orgmap)
    print(
        f"\n§4.4 attribution: ISP {summary.fraction('isp'):.1%} / "
        f"public {summary.fraction('public'):.1%} / other {summary.fraction('other'):.1%} "
        f"(paper: 89.6% / 7.7% / 2.7%)"
    )
    concentration = google_dns_concentration(dataset, world.orgmap)
    if concentration:
        top = concentration[0]
        print(
            f"footnote 9: {len(concentration)} ASes with >=80% Google-DNS usage "
            f"(top: {top.isp} at {top.ratio:.1%})"
        )
    families = vendor_js_families(dataset, world.orgmap)
    if families:
        family = families[0]
        print(
            f"shared vendor package ({family.family}): deployed by "
            f"{', '.join(family.isps)}"
        )
    dispersion = as_dispersion((r.asn, r.hijacked) for r in dataset.records)
    print(
        f"AS dispersion: {dispersion.clean_fraction:.0%} of ASes clean, "
        f"{dispersion.groups_over_third} ASes with >1/3 of nodes hijacked"
    )


def _print_http_report(world: World, dataset, thresholds: AnalysisThresholds) -> None:
    analysis = table6_js_injection(dataset, world.corpus, thresholds)
    print(
        render_table(
            ("marker", "nodes", "countries", "ASes"),
            [(r.marker, r.nodes, r.countries, r.ases) for r in analysis.rows[:10]],
            title="\nTable 6 — injected-JavaScript markers",
        )
    )
    rows = table7_image_compression(dataset, world.corpus, world.orgmap, thresholds)
    print(
        render_table(
            ("AS", "ISP", "cc", "mod", "total", "ratio", "cmp"),
            [
                (
                    r.asn, r.isp, r.country, r.modified, r.total, f"{r.ratio:.0%}",
                    "M" if r.multiple_ratios else f"{r.compression_ratios[0]:.0%}",
                )
                for r in rows
            ],
            title="\nTable 7 — mobile image compression",
        )
    )
    proxies = table_http_proxies(dataset, world.orgmap, thresholds)
    if proxies:
        print(
            render_table(
                ("AS", "ISP", "via token", "proxied", "caching", "total"),
                [
                    (r.asn, r.isp, r.via_token, r.proxied, r.caching, r.total)
                    for r in proxies
                ],
                title="\nTransparent proxies (Via headers / shared caches)",
            )
        )


def _print_https_report(world: World, dataset, thresholds: AnalysisThresholds) -> None:
    analysis = table8_issuers(dataset, thresholds)
    print(
        render_table(
            ("issuer", "nodes", "type"),
            [(r.issuer, r.exit_nodes, r.type) for r in analysis.rows],
            title="\nTable 8 — issuers of replaced certificates",
        )
    )
    print(
        f"\n{dataset.replaced_count} of {dataset.node_count} nodes "
        f"({dataset.replaced_count / max(1, dataset.node_count):.2%}) saw replacement "
        f"(paper: {paper.HTTPS_REPLACED_NODES / paper.HTTPS_NODES:.2%})"
    )


def _print_monitoring_report(world: World, dataset, thresholds: AnalysisThresholds) -> None:
    analysis = table9_monitoring(dataset, world.orgmap, thresholds)
    print(
        render_table(
            ("entity", "IPs", "nodes", "ASes", "countries"),
            [
                (r.entity, r.source_ips, r.exit_nodes, r.ases, r.countries)
                for r in analysis.rows[:8]
            ],
            title="\nTable 9 — content-monitoring entities",
        )
    )
    series = {
        paper.MONITOR_ORG_TO_ENTITY.get(org, org): delays
        for org, delays in analysis.delays.items()
        if org in paper.MONITOR_ORG_TO_ENTITY
    }
    if series:
        print()
        print(render_cdf_ascii(series, title="Figure 5 — re-fetch delay CDFs"))


_RUNNERS = {
    "dns": (DnsHijackExperiment, _print_dns_report),
    "http": (HttpModExperiment, _print_http_report),
    "https": (HttpsMitmExperiment, _print_https_report),
    "monitoring": (MonitoringExperiment, _print_monitoring_report),
}


def _cmd_world_info(args: argparse.Namespace) -> int:
    world = _build(args)
    truth = world.truth
    top = truth.nodes_by_country.most_common(8)
    print(
        render_table(
            ("country", "hosts"), top, title="\nlargest exit-node populations"
        )
    )
    print(f"\nplanted hijack vectors: {dict(truth.hijack_by_vector)}")
    print(f"resolvers: {truth.resolver_count:,}; external-DNS hosts: {truth.external_dns_nodes:,}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    world = _build(args)
    thresholds = AnalysisThresholds.for_scale(world.config.scale)
    wanted = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in wanted:
        experiment_cls, report = _RUNNERS[name]
        print(f"\n=== {name} experiment ===", flush=True)
        started = time.perf_counter()
        dataset = experiment_cls(world).run()
        print(
            f"{dataset.node_count:,} nodes measured in "
            f"{time.perf_counter() - started:.1f}s"
        )
        report(world, dataset, thresholds)
        if out_dir is not None:
            path = out_dir / f"{name}.jsonl"
            export.save_dataset(dataset, path)
            print(f"dataset written to {path}")
    ledger = world.client.ledger
    print(
        f"\ntraffic: {ledger.total_gb:.3f} GB over {ledger.requests:,} requests "
        f"(~${ledger.estimated_cost_usd():.2f} at Luminati list price); "
        f"ethics cap violations: {len(ledger.violations())}"
    )
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.engine import StudySpec, resolve_workers, run_study
    from repro.obs import OBS_METRICS, OBS_OFF, OBS_TRACE
    from repro.serve import SHARD_CACHE_DIR, DiskShardCache

    shard_cache = None
    if args.checkpoint:
        checkpoint = pathlib.Path(args.checkpoint)
        if checkpoint.exists() and not checkpoint.is_dir():
            print(
                f"study: --checkpoint {checkpoint} is a file, but checkpoints are "
                f"now directories (completed shards live in DIR/{SHARD_CACHE_DIR}/); "
                "pass a new directory",
                file=sys.stderr,
            )
            return 2
        cache_dir = checkpoint / SHARD_CACHE_DIR
        if not args.resume and any(cache_dir.glob("*.json")):
            print(
                f"study: {cache_dir} already holds completed shards; pass "
                "--resume to reuse them, or choose a new --checkpoint directory",
                file=sys.stderr,
            )
            return 2
        shard_cache = DiskShardCache(cache_dir)

    config = WorldConfig.from_env(
        scale=args.scale,
        seed=args.seed,
        fault_profile=args.faults,
        fault_seed=args.fault_seed,
    )
    obs_level = OBS_OFF
    if args.obs_metrics:
        obs_level = OBS_METRICS
    if args.trace:
        obs_level = OBS_TRACE
    spec = StudySpec(
        config=config,
        seed=args.study_seed,
        shards=args.shards,
        workers=args.workers,
        obs=obs_level,
    )
    faults_note = (
        f" faults={config.fault_profile}/{config.fault_seed}"
        if config.fault_profile != "none"
        else ""
    )
    print(
        f"engine study: scale={config.scale} seed={config.seed} "
        f"study-seed={spec.seed} shards={spec.shards} "
        f"workers={resolve_workers(spec.workers)}"
        + faults_note
        + (f" checkpoint={args.checkpoint}" + (" (resume)" if args.resume else "")
           if args.checkpoint else ""),
        flush=True,
    )
    started = time.perf_counter()
    run = run_study(spec, shard_cache=shard_cache)
    elapsed = time.perf_counter() - started
    assert run.results is not None
    print(run.results.render_summary())
    report = run.report
    print(
        f"\nengine: {report.completed_shards}/{report.shard_count} shards "
        f"({run.cached_shards} from checkpoint), "
        f"{sum(m.measured for m in report.shards):,} nodes measured, "
        f"{sum(m.retries for m in report.shards):,} retries, "
        f"{sum(m.failed for m in report.shards):,} failures in {elapsed:.1f}s"
    )
    kinds = report.to_dict()["failure_kinds"]
    if kinds:
        print("failure kinds: " + ", ".join(f"{k}={v}" for k, v in kinds.items()))
    quarantined = {
        zid: reason for m in report.shards for zid, reason in sorted(m.quarantine.items())
    }
    if quarantined:
        shown = list(quarantined.items())[:10]
        print(
            f"quarantined nodes: {len(quarantined)} "
            + "; ".join(f"{zid} ({reason})" for zid, reason in shown)
            + (" ..." if len(quarantined) > len(shown) else "")
        )
    if args.trace:
        assert run.trace is not None
        path = pathlib.Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            run.trace.write_jsonl(handle)
        print(
            f"trace written to {path} ({len(run.trace)} events, "
            f"digest {run.trace.digest()[:16]}...)"
        )
    if args.obs_metrics:
        assert run.obs_metrics is not None
        path = pathlib.Path(args.obs_metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(run.obs_metrics.snapshot_json() + "\n", encoding="utf-8")
        print(f"obs metrics snapshot written to {path}")
    if run.profile is not None and run.profile.enabled:
        sections = {
            note["label"]: note.get("wall_seconds")
            for note in run.profile.notes
            if "wall_seconds" in note
        }
        rendered = ", ".join(f"{label}={sections[label]:.1f}s" for label in sections)
        print(f"profile (wall clock, digest-excluded): {rendered}")
    if args.metrics:
        path = pathlib.Path(args.metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"metrics written to {path}")
    return 0


def _cmd_serve_dlq(args: argparse.Namespace) -> int:
    from repro.resilience import DeadLetterQueue, DLQError

    if not args.state_dir:
        print("serve dlq: --state-dir is required", file=sys.stderr)
        return 2
    try:
        dlq = DeadLetterQueue(pathlib.Path(args.state_dir) / "dlq.jsonl")
    except DLQError as exc:
        print(f"serve dlq: {exc}", file=sys.stderr)
        return 1
    action = args.extra[0] if args.extra else "list"
    if action == "list":
        entries = dlq.entries()
        if not entries:
            print("dlq: empty")
            return 0
        for entry in entries:
            print(
                f"  {entry.tenant}/{entry.name}#{entry.occurrence} "
                f"[{entry.category}] attempts={entry.attempts} "
                f"dead_at={entry.dead_at:,.0f}s: {entry.error}"
            )
        print(f"dlq: {len(entries)} parked entries")
        return 0
    if action == "retry":
        if len(args.extra) != 4:
            print(
                "serve dlq retry: expected <tenant> <name> <occurrence>",
                file=sys.stderr,
            )
            return 2
        tenant, name, occurrence = args.extra[1], args.extra[2], int(args.extra[3])
        try:
            entry = dlq.retry(tenant, name, occurrence)
        except DLQError as exc:
            print(f"serve dlq retry: {exc}", file=sys.stderr)
            return 1
        print(
            f"dlq: released {entry.tenant}/{entry.name}#{entry.occurrence} "
            f"(re-running the queue spec will retry it)"
        )
        return 0
    if action == "purge":
        print(f"dlq: purged {dlq.purge()} entries")
        return 0
    print(f"serve dlq: unknown action {action!r} (list|retry|purge)", file=sys.stderr)
    return 2


def _cmd_serve_fsck(args: argparse.Namespace) -> int:
    from repro.serve import fsck_state_dir

    if not args.state_dir:
        print("serve fsck: --state-dir is required", file=sys.stderr)
        return 2
    report = fsck_state_dir(args.state_dir, repair=args.repair)
    for finding in report.findings:
        print(f"  [{finding.severity}] {finding.path}: {finding.detail}")
    print(
        f"fsck: {report.journal_records} journal records, "
        f"{report.dlq_records} dead-letter records, "
        f"{report.cache_entries} cache entries, "
        f"{len(report.errors)} unrepaired problems"
    )
    return 0 if report.clean else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.resilience import DLQError
    from repro.serve import build_service, load_specfile, parse_interval

    if args.specfile == "dlq":
        return _cmd_serve_dlq(args)
    if args.specfile == "fsck":
        return _cmd_serve_fsck(args)
    if args.extra:
        print(f"serve: unexpected arguments: {args.extra}", file=sys.stderr)
        return 2
    payload = load_specfile(args.specfile)
    if args.queue_bound is not None:
        payload["queue_bound"] = args.queue_bound
    if args.shard_attempts is not None:
        payload["shard_attempts"] = args.shard_attempts
    try:
        service, horizon = build_service(
            payload,
            workers=args.workers,
            state_dir=args.state_dir,
            service_faults=args.service_faults,
            service_fault_seed=args.service_fault_seed,
        )
    except DLQError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    if args.until is not None:
        horizon = parse_interval(args.until)
    entries = payload.get("studies", [])
    print(
        f"serve: {len(entries)} study entries, horizon {horizon:,.0f}s simulated, "
        f"workers={args.workers}"
        + (f", state={args.state_dir}" if args.state_dir else " (in-memory)"),
        flush=True,
    )
    started = time.perf_counter()
    completed = service.run(until=horizon, max_studies=args.max_studies)
    elapsed = time.perf_counter() - started
    for study in completed:
        if study.shard_count:
            outcome = (
                f"{study.cached_shards}/{study.shard_count} shards cached, "
                f"sha {study.summary_sha[:12]}"
            )
        else:
            outcome = "callable"
        if study.degraded:
            outcome += f", DEGRADED (excluded shards {list(study.excluded_shards)})"
        print(
            f"  [{study.sid:03d}] {study.tenant}/{study.name}#{study.occurrence} "
            f"done t={study.completed_at:,.0f}s ({outcome})"
        )
    for failure in service.failed:
        fate = "dead-lettered" if failure.dead else "retried"
        print(
            f"  [{failure.sid:03d}] {failure.tenant}/{failure.name}"
            f"#{failure.occurrence} FAILED attempt {failure.attempt} "
            f"[{failure.category}] t={failure.failed_at:,.0f}s ({fate})"
        )
    sim_hours = service.clock.now / 3600.0
    throughput = len(completed) / sim_hours if sim_hours else 0.0
    print(
        f"serve: {len(completed)} studies in {service.clock.now:,.0f}s simulated "
        f"({elapsed:.1f}s wall), {throughput:.2f} studies/sim-hour, "
        f"cache hit rate {service.cache_hit_rate:.1%}, "
        f"queue depth {service.queue.depth()}"
    )
    if service.failed or len(service.dlq):
        print(
            f"serve: {len(service.failed)} contained failures, "
            f"{len(service.dlq)} studies parked in the dead-letter queue "
            f"(inspect with `repro serve dlq --state-dir ...`)"
        )
    if args.prom:
        path = pathlib.Path(args.prom)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(service.prometheus_text(), encoding="utf-8")
        print(f"prometheus exposition written to {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # A malformed line ends the command with one stderr line and exit 1; an
    # --out export is renamed into place only once it is complete.
    from repro.obs import read_trace, render_summary, summarize, write_trace

    try:
        with open(args.trace_file, encoding="utf-8") as handle:
            rows = read_trace(handle)
            if args.trace_command == "summarize":
                print(render_summary(summarize(rows)))
            elif not args.out:
                write_trace(rows, args.format, sys.stdout)
            else:
                out = pathlib.Path(args.out)
                out.parent.mkdir(parents=True, exist_ok=True)
                partial = out.with_name(out.name + ".partial")
                try:
                    with partial.open("w", encoding="utf-8") as sink:
                        write_trace(rows, args.format, sink)
                    partial.replace(out)
                finally:
                    partial.unlink(missing_ok=True)
                print(f"{args.format} export written to {out}")
    except ValueError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Exit-code contract: 0 = clean, 1 = findings or stale baseline,
    # 2 = internal analysis error or an unusable baseline.  Unparseable
    # *target* files are PARSE001 findings (exit 1), never tracebacks; only
    # a genuine analyzer bug reaches the generic handler.
    from repro.lint import BaselinePlaceholderError

    try:
        return _run_lint(args)
    except BaselinePlaceholderError as exc:
        # Not an analyzer bug: the baseline file itself is unreviewed.
        # Exit 2 (not 1) so CI can't mistake it for ordinary findings.
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if args.debug:
            raise
        print(f"repro lint: internal error: {exc}", file=sys.stderr)
        return 2


def _run_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintConfig,
        ProgramAnalyzer,
        load_baseline,
        prune_baseline,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )
    from repro.lint.engine import iter_rule_docs, scope_predicate

    root = pathlib.Path(args.root).resolve()
    paths = args.paths or ["src"]
    analyzer = ProgramAnalyzer(
        LintConfig.load(root),
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        jobs=args.jobs,
    )
    if not analyzer.engine.discover(paths, root):
        print(
            f"warning: no python files found under {', '.join(map(str, paths))} "
            f"(root: {root})",
            file=sys.stderr,
        )
    result = analyzer.lint_paths(paths, root=root)
    findings = result.findings

    baseline_path = pathlib.Path(args.baseline) if args.baseline else root / "lint-baseline.json"
    if args.write_baseline:
        baseline = write_baseline(findings, baseline_path)
        print(
            f"baseline written to {baseline_path} "
            f"({len(baseline.entries)} entries; justify each before committing)"
        )
        return 0
    if args.prune_baseline:
        _pruned, removed = prune_baseline(findings, baseline_path)
        print(
            f"pruned {len(removed)} stale baseline entr"
            f"{'y' if len(removed) == 1 else 'ies'} from {baseline_path}",
            file=sys.stderr,
        )

    baseline = load_baseline(baseline_path)
    new, suppressed, stale = baseline.split(findings)
    # A subtree scan says nothing about entries for files it never visited.
    covers = scope_predicate(paths, root)
    stale = [entry for entry in stale if covers(entry.path)]
    if args.sarif:
        sarif_path = pathlib.Path(args.sarif)
        sarif_path.parent.mkdir(parents=True, exist_ok=True)
        sarif_path.write_text(
            render_sarif(new, rule_docs=tuple(iter_rule_docs())), encoding="utf-8"
        )
        print(f"SARIF report written to {sarif_path}", file=sys.stderr)
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(new, suppressed=suppressed, stale=stale))
    print(
        "analyzed {files} file(s): {parsed} parsed, {cached} from cache".format(
            **result.stats
        ),
        file=sys.stderr,
    )
    return 1 if new or stale else 0


def _cmd_report(args: argparse.Namespace) -> int:
    _experiment_cls, report = _RUNNERS[args.experiment]
    dataset = export.load_dataset(args.dataset, args.experiment)
    # Reports that need world context (org names, corpus) rebuild the world
    # the dataset was measured on — the same scale/seed must be passed.
    world = _build(args)
    thresholds = AnalysisThresholds.for_scale(world.config.scale)
    report(world, dataset, thresholds)
    return 0


def _world_spec(args: argparse.Namespace, name: str):
    from repro.worldbuilder import get_preset

    return get_preset(name, scale=args.world_scale, seed=args.world_seed)


def _cmd_world(args: argparse.Namespace) -> int:
    # Exit-code contract mirrors lint: 0 = ok / identical, 1 = spec issues
    # or differing manifests, 2 = unknown preset.
    from repro.worldbuilder import (
        PRESETS,
        WorldSpecError,
        compile_spec,
        diff_manifests,
        validate_spec,
    )

    if args.world_command == "presets":
        width = max(len(name) for name in PRESETS)
        for name in sorted(PRESETS):
            doc = (PRESETS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:<{width}}  {doc}")
        return 0

    try:
        if args.world_command == "diff":
            specs = [_world_spec(args, args.preset), _world_spec(args, args.other)]
        else:
            specs = [_world_spec(args, args.preset)]
    except KeyError as exc:
        print(f"repro world: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.world_command == "validate":
        issues = validate_spec(specs[0])
        for issue in issues:
            print(issue.render())
        if issues:
            return 1
        print(f"{specs[0].name}: ok")
        return 0

    try:
        worlds = [compile_spec(spec) for spec in specs]
    except WorldSpecError as exc:
        for issue in exc.issues:
            print(issue.render(), file=sys.stderr)
        return 1

    if args.world_command == "diff":
        first, second = worlds
        if first.manifest_sha == second.manifest_sha:
            print(f"manifests identical ({first.manifest_sha})")
            return 0
        for line in diff_manifests(first.manifest, second.manifest):
            print(line)
        return 1

    compiled = worlds[0]
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(compiled.manifest_json() + "\n", encoding="utf-8")
        print(f"world manifest written to {out}", file=sys.stderr)
    print(json.dumps(compiled.report(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tunneling for Transparency (IMC 2016) reproduction pipeline",
    )
    parser.add_argument("--scale", type=float, default=0.02, help="world scale (1.0 = paper)")
    parser.add_argument("--seed", type=int, default=20160413, help="world seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("world-info", help="build a world and summarize it")

    run = sub.add_parser("run", help="run experiments and print their tables")
    run.add_argument(
        "--experiment", choices=EXPERIMENTS + ("all",), default="all",
        help="which methodology to run",
    )
    run.add_argument("--out", help="directory for JSONL dataset dumps")

    study = sub.add_parser(
        "study",
        help="run the full study on the sharded engine (checkpoint/resume aware)",
    )
    study.add_argument(
        "--shards", type=int, default=4,
        help="deterministic shard count (part of the run's identity; default 4)",
    )
    study.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 0 auto-detects from CPU count "
        "(results are identical for any value; default 1)",
    )
    study.add_argument(
        "--checkpoint", metavar="DIR",
        help="directory that stores each completed shard, laid out like a "
        "`serve --state-dir` (check it with `serve fsck --state-dir DIR`)",
    )
    study.add_argument(
        "--resume", action="store_true",
        help="reuse the shards already stored under --checkpoint; only the "
        "missing ones execute (required when the checkpoint is not empty)",
    )
    study.add_argument(
        "--study-seed", type=int, default=1000,
        help="seed for crawl plans and shard seed derivation (default 1000)",
    )
    study.add_argument(
        "--faults", default="none", metavar="PROFILE",
        help="fault-injection profile (none, mild, chaos; REPRO_FAULT_PROFILE "
        "overrides; default none)",
    )
    study.add_argument(
        "--fault-seed", type=int, default=0,
        help="extra seed folded into the fault plan (REPRO_FAULT_SEED overrides)",
    )
    study.add_argument("--metrics", help="write the run metrics JSON to this path")
    study.add_argument(
        "--trace", metavar="PATH",
        help="record the deterministic event trace (simulated clock) and "
        "write it as JSONL; the trace digest lands in the run metrics",
    )
    study.add_argument(
        "--obs-metrics", metavar="PATH",
        help="write the merged observability metrics registry as a "
        "canonical-JSON snapshot (implied by --trace)",
    )

    trace = sub.add_parser(
        "trace", help="summarize or export a trace written by `study --trace`"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser("summarize", help="aggregate view of a trace file")
    summarize.add_argument("trace_file", help="JSONL trace from `study --trace`")
    export_cmd = trace_sub.add_parser("export", help="convert a trace to another format")
    export_cmd.add_argument("trace_file", help="JSONL trace from `study --trace`")
    export_cmd.add_argument(
        "--format", choices=("jsonl", "chrome", "prom", "snapshot"), default="chrome",
        help="chrome = Chrome trace-event/Perfetto JSON; prom = Prometheus "
        "text exposition; snapshot = canonical metrics JSON (default: chrome)",
    )
    export_cmd.add_argument("--out", help="output path (default: stdout)")

    serve = sub.add_parser(
        "serve",
        help="drain a queue spec as a continuous-measurement service "
        "(multi-tenant scheduling + digest-keyed incremental re-crawls)",
    )
    serve.add_argument(
        "specfile",
        help="JSON queue spec (see docs/service.md), or a maintenance "
        "command word: 'dlq' (list|retry|purge dead-lettered studies) or "
        "'fsck' (validate/repair a state dir)",
    )
    serve.add_argument(
        "extra", nargs="*",
        help="arguments for 'dlq' (e.g. list | retry TENANT NAME OCC | purge)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes shared by every study the service drains "
        "(results are identical for any value; default 1)",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR",
        help="persist the shard cache and service journal here; re-running "
        "the same spec against the same state dir is the crash-resume path",
    )
    serve.add_argument(
        "--until", metavar="INTERVAL",
        help="override the spec's horizon (seconds or shorthand like 3d)",
    )
    serve.add_argument(
        "--max-studies", type=int, metavar="N",
        help="stop after N completed studies (crash simulation / smoke runs)",
    )
    serve.add_argument(
        "--prom", metavar="PATH",
        help="write the service metrics as a Prometheus text exposition",
    )
    serve.add_argument(
        "--service-faults", metavar="PROFILE",
        help="inject service-plane faults from a named profile "
        "(none|mild|chaos); overrides the spec's service_faults section",
    )
    serve.add_argument(
        "--service-fault-seed", type=int, metavar="N",
        help="keyed-hash seed for the service fault plan (default: spec's)",
    )
    serve.add_argument(
        "--queue-bound", type=int, metavar="N",
        help="global queue bound: overflow is shed deterministically "
        "(lowest priority, lightest tenant, newest first)",
    )
    serve.add_argument(
        "--shard-attempts", type=int, metavar="N",
        help="per-shard attempt budget before quarantine (degraded study); "
        "default 1, or 2 under an active fault profile",
    )
    serve.add_argument(
        "--repair", action="store_true",
        help="with 'fsck': apply safe repairs (truncate torn journal "
        "lines, evict corrupt cache entries, remove orphaned temp files)",
    )

    report = sub.add_parser("report", help="re-print tables for a saved dataset")
    report.add_argument("--experiment", choices=EXPERIMENTS, required=True)
    report.add_argument("--dataset", required=True, help="JSONL file from `run --out`")

    lint = sub.add_parser(
        "lint", help="run the sterility/determinism static checker"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src, relative to --root)",
    )
    lint.add_argument(
        "--root", default=".",
        help="project root: finding paths are relative to it and its "
        "pyproject.toml supplies [tool.repro-lint] config (default: cwd)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline",
        help="baseline JSON of grandfathered findings "
        "(default: <root>/lint-baseline.json when present)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--prune-baseline", action="store_true",
        help="delete stale baseline entries before reporting",
    )
    lint.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parse files on N worker processes (default: 1, serial)",
    )
    lint.add_argument(
        "--sarif", metavar="PATH",
        help="also write a SARIF 2.1.0 report (with source→sink code flows) "
        "to PATH for CI annotation",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental analysis cache",
    )
    lint.add_argument(
        "--cache-dir", metavar="DIR",
        help="incremental cache location (default: <root>/.repro-lint-cache)",
    )
    lint.add_argument(
        "--debug", action="store_true",
        help="let internal analyzer errors traceback instead of exiting 2",
    )

    world = sub.add_parser(
        "world",
        help="compile, validate, and diff declarative topology presets",
    )
    world_sub = world.add_subparsers(dest="world_command", required=True)

    def _world_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--world-scale", type=float, metavar="X",
            help="override the preset's scale (default: the preset's own)",
        )
        command.add_argument(
            "--world-seed", type=int, metavar="N",
            help="override the preset's seed (default: the preset's own)",
        )

    world_compile = world_sub.add_parser(
        "compile",
        help="compile a preset and print its report (manifest SHA, "
        "expected findings)",
    )
    world_compile.add_argument("preset", help="preset name (see `world presets`)")
    world_compile.add_argument(
        "--out", metavar="PATH",
        help="also write the canonical-JSON world manifest to PATH",
    )
    _world_args(world_compile)

    world_validate = world_sub.add_parser(
        "validate", help="list a preset's spec issues (exit 1 if any)"
    )
    world_validate.add_argument("preset", help="preset name")
    _world_args(world_validate)

    world_diff = world_sub.add_parser(
        "diff",
        help="compare two presets' world manifests (exit 1 if they differ)",
    )
    world_diff.add_argument("preset", help="first preset name")
    world_diff.add_argument("other", help="second preset name")
    _world_args(world_diff)

    world_sub.add_parser("presets", help="list the available presets")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "study" and args.resume and not args.checkpoint:
        parser.error("study --resume requires --checkpoint DIR")
    handlers = {
        "world-info": _cmd_world_info,
        "run": _cmd_run,
        "study": _cmd_study,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "lint": _cmd_lint,
        "world": _cmd_world,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
