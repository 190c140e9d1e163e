"""Longitudinal measurement — the paper's closing promise, realized.

§9: "This opens the door to continuous measurements worldwide, with the
ability to see how various types of violations evolve over time."  This
module runs the NXDOMAIN methodology in repeated *waves* separated by
simulated days, while the world evolves underneath (exit nodes churn IPs,
ISPs deploy or remove interception), and reports the per-wave time series.

Because zIDs persist across address churn (§2.3), waves can also be joined
per node — the basis for "when did *this* network turn hijacking on?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.experiments.dns_hijack import DnsDataset, DnsHijackExperiment
from repro.dnssim.hijack import HijackPolicy
from repro.middlebox.dns_rewrite import TransparentDnsProxy
from repro.records import slot_init
from repro.sim.world import World
from repro.web.server import HijackPageServer


def enable_path_hijack(
    world: World, isp_name: str, landing_domain: str, intercept_rate: float = 1.0
) -> int:
    """Deploy a transparent NXDOMAIN-rewriting proxy at an ISP, mid-study.

    Models an ISP turning interception on between measurement waves.  The
    box is attached to every subscriber's path (their own resolver config is
    irrelevant to a path-level rewrite).  Returns the number of subscribers
    affected.  Ground truth lands in ``host.truth['late_hijack']``.
    """
    targets = [host for host in world.hosts if host.truth.get("isp") == isp_name]
    if not targets:
        raise ValueError(f"no hosts belong to ISP {isp_name!r}")
    asn = targets[0].asn
    allocator = world.as_allocators.get(asn)
    if allocator is None:
        raise ValueError(f"AS{asn} has no address space left for a landing server")
    landing_ip = allocator.allocate_address()
    policy = HijackPolicy(
        operator=isp_name, landing_domain=landing_domain, redirect_ip=landing_ip
    )
    world.internet.register_web_server(landing_ip, HijackPageServer(landing_ip, policy))
    proxy = TransparentDnsProxy(policy, intercept_rate=intercept_rate)
    affected = 0
    for host in targets:
        host.path_dns_rewriters += (proxy,)
        if proxy.applies_to(host.zid):
            host.truth["late_hijack"] = isp_name
            affected += 1
    return affected


@slot_init
@dataclass(frozen=True, slots=True)
class WaveResult:
    """One measurement wave's summary."""

    wave: int
    day: float
    nodes: int
    hijacked: int
    dataset: DnsDataset

    @property
    def ratio(self) -> float:
        """Hijacked fraction in this wave."""
        return self.hijacked / self.nodes if self.nodes else 0.0


@dataclass
class LongitudinalStudy:
    """Repeated NXDOMAIN waves over an evolving world."""

    world: World
    seed: int = 90
    #: Simulated seconds between waves (default one day).
    wave_interval: float = 86_400.0
    #: Fraction of hosts that change IP between waves.
    churn_fraction: float = 0.25
    waves: list[WaveResult] = field(default_factory=list)

    def run_wave(self, max_probes: Optional[int] = None) -> WaveResult:
        """Advance time, churn addresses, crawl, and record the wave."""
        index = len(self.waves)
        if index > 0:
            self.world.internet.advance(self.wave_interval)
            self.world.rotate_node_ips(self.churn_fraction, seed=self.seed + index)
        dataset = DnsHijackExperiment(
            self.world, seed=self.seed * 1_000 + index, max_probes=max_probes
        ).run()
        result = WaveResult(
            wave=index,
            day=self.world.internet.clock.now / 86_400.0,
            nodes=dataset.node_count,
            hijacked=dataset.hijacked_count,
            dataset=dataset,
        )
        self.waves.append(result)
        return result

    def schedule_on(
        self,
        service,
        *,
        tenant: str = "longitudinal",
        name: str = "nxdomain-wave",
        count: int = 0,
        max_probes: Optional[int] = None,
        priority: int = 0,
    ) -> None:
        """Register this study's waves as recurring jobs on a serve Service.

        Each fire runs one wave (:meth:`run_wave` drives the world clock and
        churn itself) and reports the wave summary as the job payload.
        ``count`` bounds the waves (``0`` = let the service horizon decide).
        Waves mutate a shared world, so they ride the service's *callable*
        path — scheduled and queued like engine studies, but never cached.
        """
        # Imported here so `repro.ext` stays importable without the service
        # stack (and `repro.serve` never needs to know about extensions).
        from repro.serve.schedule import Recurrence

        def runner(_service, _submission) -> dict:
            result = self.run_wave(max_probes=max_probes)
            return {
                "wave": result.wave,
                "day": round(result.day, 4),
                "nodes": result.nodes,
                "hijacked": result.hijacked,
                "ratio": round(result.ratio, 4),
            }

        service.schedule_callable(
            tenant, name, runner,
            Recurrence(interval=self.wave_interval, count=count),
            priority=priority,
        )

    def newly_hijacked_nodes(self, before: int, after: int) -> list[str]:
        """zIDs hijacked in wave ``after`` but clean in wave ``before``.

        Persistent zIDs make the per-node join valid across IP churn.
        """
        clean_before = {
            r.zid for r in self.waves[before].dataset.records if not r.hijacked
        }
        return sorted(
            r.zid
            for r in self.waves[after].dataset.records
            if r.hijacked and r.zid in clean_before
        )
