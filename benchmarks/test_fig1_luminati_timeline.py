"""Figure 1: the timeline of a request through Luminati.

The paper's diagram: client -> super proxy (1), super proxy DNS (2), forward
to exit node (3), exit node DNS if requested (4), content fetch (5), response
back through the super proxy (6) to the client (7).  The benchmark times one
traced request and verifies the captured step sequence.
"""

from repro.sim.world import PROBE_ZONE
from repro.tracing import Timeline


def test_fig1_luminati_request_timeline(benchmark, bench_world, write_report):
    url = f"http://objects.{PROBE_ZONE}/"

    def traced_request():
        # A probe can hit an all-offline retry chain; loop until a complete
        # request so the captured timeline always shows the full path.
        for _ in range(5):
            timeline = Timeline(title="Figure 1: timeline of a request in Luminati")
            result = bench_world.client.request(url, dns_remote=True, timeline=timeline)
            if result.success:
                return timeline, result
        raise AssertionError("no successful request in five attempts")

    timeline, result = benchmark(traced_request)
    write_report("fig1_luminati_timeline", timeline.render())

    assert result.success
    labels = timeline.labels()
    order = [
        "client -> super proxy: proxy request",
        "super proxy -> authoritative DNS: DNS request via Google",
        "super proxy -> exit node: forward request",
        "exit node -> exit node resolver: DNS request",
        "exit node -> web server: fetch content",
        "exit node -> super proxy: return response",
        "super proxy -> client: return response",
    ]
    positions = [labels.index(step) for step in order]
    assert positions == sorted(positions), labels
    assert timeline.actors()[0] == "client"
