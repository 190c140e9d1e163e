"""Unit tests for the fault plane: plan determinism and every fault kind.

Each seam test builds a tiny zero-fault world and grafts on an injector
whose profile fires one fault kind with probability 1.0, so the seam's
behaviour is observed in isolation.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FAILURE_KINDS,
    KIND_REFUSED,
    KIND_RESET,
    KIND_TIMEOUT,
    KIND_TRUNCATED,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultProfile,
    get_profile,
    response_truncated,
    truncate_response,
)
from repro.dnssim.message import RCode
from repro.hosts import HostDnsError
from repro.luminati.superproxy import (
    ERROR_NO_PEERS,
    ERROR_SUPERPROXY_502,
    ProxyOptions,
)
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec
from repro.sim.world import PROBE_ZONE
from repro.web.http import HttpResponse

TINY_COUNTRIES = (CountrySpec(code="AA", population=40),)

TINY_CONFIG = WorldConfig(
    scale=1.0,
    seed=5,
    include_rare_tail=False,
    alexa_countries=1,
    popular_sites_per_country=3,
    university_sites=2,
    sterile=True,
)


def tiny_world(**profile_fields):
    """A sterile world with a custom single-purpose fault profile grafted on."""
    world = build_world(TINY_CONFIG, TINY_COUNTRIES)
    if profile_fields:
        profile = FaultProfile(name="test", **profile_fields)
        injector = FaultInjector(profile, FaultPlan("test-plan"))
        world.faults = injector
        world.superproxy._faults = injector
        world.superproxy.attempt_timeout_seconds = profile.attempt_timeout_seconds
        for host in world.hosts:
            host.faults = injector
    return world


class TestFaultPlan:
    def test_draw_is_deterministic(self):
        a = FaultPlan("seed-1")
        b = FaultPlan("seed-1")
        assert a.draw("chan", "z1", 3) == b.draw("chan", "z1", 3)

    def test_draw_varies_by_seed_channel_and_key(self):
        plan = FaultPlan("seed-1")
        base = plan.draw("chan", "z1", 3)
        assert base != FaultPlan("seed-2").draw("chan", "z1", 3)
        assert base != plan.draw("other", "z1", 3)
        assert base != plan.draw("chan", "z1", 4)
        assert base != plan.draw("chan", "z2", 3)

    def test_draw_is_position_independent(self):
        # Interleaving unrelated draws must not perturb a keyed draw — the
        # property a sequential RNG stream could never provide.
        plan = FaultPlan("seed-1")
        want = plan.draw("chan", "z9")
        for index in range(50):
            plan.draw("noise", index)
        assert plan.draw("chan", "z9") == want

    def test_draw_uniform_range(self):
        plan = FaultPlan("seed-1")
        draws = [plan.draw("u", index) for index in range(500)]
        assert all(0.0 <= value < 1.0 for value in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_happens_zero_probability_never_fires(self):
        plan = FaultPlan("seed-1")
        assert not any(plan.happens(0.0, "p", index) for index in range(100))

    def test_uniform_bounds(self):
        plan = FaultPlan("seed-1")
        values = [plan.uniform(2.0, 45.0, "s", index) for index in range(100)]
        assert all(2.0 <= value < 45.0 for value in values)


def reference_draw(seed: str, channel: str, *key: object) -> float:
    """The keyed draw as first written: five ``update`` calls per message,
    then the first 13 hex digits of the digest over ``16**13``."""
    hasher = hashlib.sha256()
    hasher.update(seed.encode("utf-8"))
    hasher.update(b"\x1f")
    hasher.update(channel.encode("utf-8"))
    for part in key:
        hasher.update(b"\x1f")
        hasher.update(repr(part).encode("utf-8"))
    return int(hasher.hexdigest()[:13], 16) / float(16**13)


#: Text with the separator, non-ASCII and astral characters in it.
_CHANNEL = st.text(
    alphabet=st.one_of(st.sampled_from("\x1f\x00é中\U0001f600'\\"), st.characters()),
    max_size=10,
)
_KEY_PART = st.one_of(
    _CHANNEL,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1 + 0.2]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
)


def outcome(draw, *args):
    """A draw's value, or the type of the error it raised: text holding a
    lone surrogate cannot be encoded as UTF-8, and the draw must fail as
    the reference does."""
    try:
        return draw(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc)


class TestDrawReference:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=_CHANNEL,
        channels=st.lists(_CHANNEL, min_size=1, max_size=3),
        key=st.lists(_KEY_PART, max_size=4),
    )
    @example(seed="", channels=["\ud800"], key=[])
    def test_draw_equals_the_reference(self, seed, channels, key):
        plan = FaultPlan(seed)
        # Each channel twice: once through a fresh prefix, once cached.
        for channel in channels + channels:
            assert outcome(plan.draw, channel, *key) == outcome(
                reference_draw, seed, channel, *key
            )


class TestOfflineWindowMemo:
    def test_answers_as_the_plan_and_counts_each_firing(self):
        profile = FaultProfile(
            name="offline", offline_window_rate=0.5, offline_window_seconds=10.0
        )
        injector = FaultInjector(profile, FaultPlan("offline-plan"))
        # Alternating zIDs that move forward, back and forward through the
        # same windows, so the per-zID memo both hits and is replaced.
        calls = [
            (zid, now)
            for now in (0.0, 3.0, 9.99, 10.0, 4.0, 25.0, 10.5, 25.5, 99.0, 0.5)
            for zid in ("z1", "z2", "z3")
        ]
        fired = 0
        for zid, now in calls:
            want = injector.plan.happens(0.5, "offline", zid, int(now // 10.0))
            assert injector.offline_window(zid, now) is want
            fired += want
            assert injector.counters["offline_window"] == fired
        assert 0 < fired < len(calls)


class TestProfiles:
    def test_known_profiles(self):
        assert get_profile("none").is_zero
        assert not get_profile("mild").is_zero
        assert not get_profile("chaos").is_zero

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="chaos"):
            get_profile("extreme")

    def test_config_validates_profile_eagerly(self):
        with pytest.raises(ValueError):
            WorldConfig(fault_profile="typo")

    def test_zero_profile_builds_no_injector(self):
        world = tiny_world()
        assert world.faults is None

    def test_chaos_profile_builds_injector(self):
        config = WorldConfig(
            scale=1.0,
            seed=5,
            include_rare_tail=False,
            alexa_countries=1,
            popular_sites_per_country=3,
            university_sites=2,
            fault_profile="chaos",
        )
        world = build_world(config, TINY_COUNTRIES)
        assert world.faults is not None
        assert world.faults.profile.name == "chaos"
        assert all(host.faults is world.faults for host in world.hosts)

    def test_failure_kinds_canonical(self):
        assert FAILURE_KINDS == tuple(sorted(FAILURE_KINDS))


class TestTruncation:
    def test_truncate_keeps_advertised_length(self):
        response = HttpResponse(status=200, body=b"x" * 1000)
        cut = truncate_response(response, 0.25)
        assert len(cut.body) == 250
        assert cut.header("Content-Length") == "1000"
        assert response_truncated(cut.body, cut.header("Content-Length"))

    def test_truncate_always_drops_at_least_one_byte(self):
        response = HttpResponse(status=200, body=b"ab")
        cut = truncate_response(response, 0.99)
        assert len(cut.body) == 1

    def test_truncate_empty_body_noop(self):
        response = HttpResponse(status=204, body=b"")
        assert truncate_response(response, 0.5) is response

    def test_complete_body_is_not_truncated(self):
        assert not response_truncated(b"abc", "3")
        assert not response_truncated(b"abc", None)
        assert not response_truncated(b"abc", "junk")


class TestSeams:
    def test_superproxy_502(self):
        world = tiny_world(superproxy_error_rate=1.0)
        result = world.client.request(f"http://objects.{PROBE_ZONE}/", country="AA")
        assert result.error == ERROR_SUPERPROXY_502
        assert not result.success
        assert world.faults.counters["superproxy_502"] > 0

    def test_offline_windows_exhaust_peers(self):
        world = tiny_world(offline_window_rate=1.0)
        result = world.client.request(f"http://objects.{PROBE_ZONE}/", country="AA")
        assert result.error == ERROR_NO_PEERS
        assert result.debug is not None
        assert {a.outcome for a in result.debug.attempts} == {"offline"}

    def test_dns_servfail_surfaces_as_refused_failover(self):
        world = tiny_world(dns_servfail_rate=1.0)
        host = world.hosts[0]
        with pytest.raises(HostDnsError) as err:
            host.fetch_http(f"objects.{PROBE_ZONE}")
        assert err.value.response.rcode is RCode.SERVFAIL
        # Through the super proxy, SERVFAIL is a retryable node refusal —
        # not the terminal NXDOMAIN verdict.
        result = world.superproxy.handle_request(
            ProxyOptions(country="AA", dns_remote=True),
            f"http://objects.{PROBE_ZONE}/",
        )
        assert not result.is_nxdomain
        assert result.debug is not None
        assert {a.outcome for a in result.debug.attempts} == {KIND_REFUSED}

    def test_dns_timeout_advances_clock_and_raises(self):
        world = tiny_world(dns_timeout_rate=1.0, dns_timeout_seconds=7.5)
        host = world.hosts[0]
        before = world.internet.clock.now
        with pytest.raises(FaultError) as err:
            host.fetch_http(f"objects.{PROBE_ZONE}")
        assert err.value.kind == KIND_TIMEOUT
        assert world.internet.clock.now == pytest.approx(before + 7.5)

    def test_crash_mid_request(self):
        world = tiny_world(crash_rate=1.0)
        host = world.hosts[0]
        with pytest.raises(FaultError) as err:
            host.fetch_http(f"objects.{PROBE_ZONE}", dest_ip=world.measurement_server_ip)
        assert err.value.kind == KIND_RESET

    def test_stall_trips_attempt_timeout(self):
        world = tiny_world(
            stall_rate=1.0,
            stall_seconds_min=60.0,
            stall_seconds_max=61.0,
            attempt_timeout_seconds=30.0,
        )
        result = world.client.request(f"http://objects.{PROBE_ZONE}/", country="AA")
        assert not result.success
        assert result.debug is not None
        assert {a.outcome for a in result.debug.attempts} == {KIND_TIMEOUT}

    def test_http_truncation_marks_result(self):
        world = tiny_world(
            http_truncate_rate=1.0,
            truncate_fraction_min=0.5,
            truncate_fraction_max=0.5,
        )
        result = world.client.request(f"http://objects.{PROBE_ZONE}/", country="AA")
        assert result.success
        assert result.truncated
        assert world.faults.counters["http_truncated"] > 0

    def test_tls_truncate_fault(self):
        world = tiny_world(tls_truncate_rate=1.0)
        host = world.hosts[0]
        site = world.invalid_sites[0]
        with pytest.raises(FaultError) as err:
            host.tls_handshake(site.ip, 443, site.domain)
        assert err.value.kind == KIND_TRUNCATED

    def test_tls_reset_fault(self):
        world = tiny_world(tls_reset_rate=1.0)
        host = world.hosts[0]
        site = world.invalid_sites[0]
        with pytest.raises(FaultError) as err:
            host.tls_handshake(site.ip, 443, site.domain)
        assert err.value.kind == KIND_RESET

    def test_fault_decisions_replay_across_rebuilds(self):
        config = WorldConfig(
            scale=1.0,
            seed=5,
            include_rare_tail=False,
            alexa_countries=1,
            popular_sites_per_country=3,
            university_sites=2,
            fault_profile="chaos",
            fault_seed=3,
        )
        results = []
        for _ in range(2):
            world = build_world(config, TINY_COUNTRIES)
            outcomes = []
            for _ in range(20):
                result = world.client.request(
                    f"http://objects.{PROBE_ZONE}/", country="AA"
                )
                if result.debug is None:
                    outcomes.append((result.error, ()))
                else:
                    outcomes.append(
                        (result.error, tuple(a.outcome for a in result.debug.attempts))
                    )
            results.append(outcomes)
        assert results[0] == results[1]
