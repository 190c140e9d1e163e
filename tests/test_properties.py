"""Cross-module property-based tests (hypothesis).

Each property pins an invariant the pipeline silently depends on: header
round-trips, allocator disjointness, diff extraction, CDF monotonicity,
stable per-node draws, session expiry.
"""

import random
import re
import zlib
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import injected_fragment, injection_signature, widget_token
from repro.core.reports import render_table, within_factor
from repro.dnssim.authoritative import DnsRoot
from repro.dnssim.hijack import HijackPolicy
from repro.dnssim.resolver import RecursiveResolver, _hash_prefix
from repro.luminati.headers import AttemptRecord, TimelineDebug
from repro.luminati.session import SessionTable
from repro.middlebox.base import stable_fraction
from repro.net.clock import SimClock
from repro.net.ip import IpAllocator, IpError, MAX_IPV4, Prefix
from repro.web.content import make_html

zid_text = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122), min_size=1, max_size=12
).filter(lambda s: " " not in s and "," not in s and ":" not in s and "=" not in s)


class TestHeaderRoundtrip:
    @given(
        zid=zid_text,
        ip=st.tuples(*([st.integers(0, 255)] * 4)).map(lambda t: ".".join(map(str, t))),
        outcomes=st.lists(
            st.tuples(zid_text, st.sampled_from(["ok", "offline", "connect_failed"])),
            max_size=5,
        ),
    )
    def test_serialize_parse_identity(self, zid, ip, outcomes):
        debug = TimelineDebug(
            zid=zid,
            exit_ip=ip,
            attempts=tuple(AttemptRecord(z, o) for z, o in outcomes),
        )
        assert TimelineDebug.parse(debug.serialize()) == debug


class TestAllocatorProperties:
    @given(
        lengths=st.lists(st.integers(min_value=20, max_value=30), min_size=1, max_size=30)
    )
    def test_allocations_always_disjoint_and_contained(self, lengths):
        allocator = IpAllocator(Prefix.from_str("10.0.0.0/12"))
        blocks = []
        for length in lengths:
            try:
                blocks.append(allocator.allocate(length))
            except IpError:
                break  # pool exhausted: acceptable, already-granted blocks stand
        for block in blocks:
            assert allocator.pool.contains_prefix(block)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert a.last < b.first or b.last < a.first


class TestInjectionDiffProperties:
    ORIGINAL = make_html(4096)

    @given(
        payload=st.binary(min_size=1, max_size=200).filter(lambda b: b"<" not in b),
        position=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=50)
    def test_fragment_contains_spliced_payload(self, payload, position):
        """Any single contiguous splice is recovered by the prefix/suffix diff."""
        block = b"<ins>" + payload + b"</ins>"
        cut = int(len(self.ORIGINAL) * position)
        received = self.ORIGINAL[:cut] + block + self.ORIGINAL[cut:]
        fragment = injected_fragment(self.ORIGINAL, received)
        assert payload in fragment
        # And the fragment is not much larger than what was injected.
        assert len(fragment) <= len(block) + 64

    @given(host=st.from_regex(r"[a-z]{3,10}\.(com|net|org)", fullmatch=True))
    @settings(max_examples=30)
    def test_url_markers_always_win(self, host):
        block = f'<script src="http://{host}/x.js">var decoy;</script>'.encode()
        anchor = self.ORIGINAL.rfind(b"</body>")
        received = self.ORIGINAL[:anchor] + block + self.ORIGINAL[anchor:]
        assert injection_signature(self.ORIGINAL, received).startswith(host)


#: The Table 6 widget-token regex that :func:`widget_token` replaced: the reference.
WIDGET_TOKEN = re.compile(r"([A-Za-z]\w*_Widget_Container)")

#: Characters ``bytes.decode("ascii", errors="replace")`` can produce, with
#: word characters, separators and the literal's own letters drawn often.
decoded_char = st.one_of(
    st.sampled_from("aZ9_W \ufffd"),
    st.characters(max_codepoint=127),
    st.just("\ufffd"),
)


def regex_token(text):
    match = WIDGET_TOKEN.search(text)
    return match.group(1) if match else None


class TestWidgetToken:
    @pytest.mark.parametrize(
        "text, token",
        [
            ("<script>AdTaily_Widget_Container</script>", "AdTaily_Widget_Container"),
            ("x a_Widget_Container_Widget_Container y", "a_Widget_Container_Widget_Container"),
            ("_Widget_Container_Widget_Container", "Widget_Container_Widget_Container"),
            ("9_x_Widget_Container", "x_Widget_Container"),
            ("__9Ab_Widget_Container", "Ab_Widget_Container"),
            ("_Widget_Container", None),
            ("123_Widget_Container Foo_Widget_Container", "Foo_Widget_Container"),
            ("\ufffdAd_Widget_Container\ufffd", "Ad_Widget_Container"),
            ("ad" * 500, None),
            ("", None),
        ],
        ids=[
            "marker", "greedy-end", "start-inside-literal", "digit-before-letter",
            "underscores-before-letter", "literal-only", "second-run", "replacement-char",
            "padding", "empty",
        ],
    )
    def test_named_cases(self, text, token):
        assert widget_token(text) == token == regex_token(text)

    def test_paper_scale_padding_is_cheap(self):
        # AdTaily's ~335 KB of padding: the regex would take minutes here.
        padding = "ad" * 170_000
        assert widget_token(padding) is None
        assert widget_token(padding + "_Widget_Container") == padding + "_Widget_Container"

    @given(pieces=st.lists(st.text(alphabet=decoded_char, max_size=12), min_size=1, max_size=6))
    @settings(max_examples=400)
    def test_scan_equals_the_regex(self, pieces):
        text = "_Widget_Container".join(pieces)
        assert widget_token(text) == regex_token(text)


class TestStableDraws:
    @given(st.text(max_size=16), st.text(max_size=16))
    def test_fraction_depends_only_on_inputs(self, a, b):
        assert stable_fraction(a, b) == stable_fraction(a, b)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20)
    def test_fraction_thresholds_give_expected_rates(self, rate):
        hits = sum(stable_fraction("rate-test", i) < rate for i in range(2_000))
        assert within_factor(rate * 2_000, max(hits, 1), 1.35)


def eager_decisions(
    service_ip: int,
    egress: list[int],
    hijack: Optional[HijackPolicy],
    rate: float,
    client_ip: int,
    name: str,
) -> tuple[int, bool]:
    """A resolver's egress and hijack decisions with both hash prefixes
    computed up front, whether or not the decision reads them."""
    egress_prefix = _hash_prefix("egress", service_ip)
    hijack_prefix = _hash_prefix("hijack", service_ip)
    if len(egress) == 1:
        chosen = egress[0]
    else:
        chosen = egress[zlib.crc32(str(client_ip).encode("utf-8"), egress_prefix) % len(egress)]
    if hijack is None:
        hijacks = False
    elif rate >= 1.0:
        hijacks = True
    else:
        hijacks = zlib.crc32(name.encode("utf-8"), hijack_prefix) % 10_000 < rate * 10_000
    return chosen, hijacks


class TestResolverDecisions:
    """Resolvers hash a decision's constant prefix only where it is read."""

    @given(
        service_ip=st.integers(min_value=0, max_value=MAX_IPV4),
        egress=st.lists(st.integers(min_value=0, max_value=MAX_IPV4), min_size=1, max_size=5),
        hijacked=st.booleans(),
        rate=st.floats(min_value=0.0, max_value=1.0),
        client_ip=st.integers(min_value=0, max_value=MAX_IPV4),
        name=st.text(max_size=40),
    )
    @settings(max_examples=300)
    def test_decisions_equal_the_eager_reference(
        self, service_ip, egress, hijacked, rate, client_ip, name
    ):
        policy = HijackPolicy("Op", "search.op.example", 1) if hijacked else None
        resolver = RecursiveResolver(
            service_ip, DnsRoot(), SimClock(),
            hijack=policy, hijack_rate=rate, egress_ips=egress,
        )
        assert (resolver.egress_for(client_ip), resolver._should_hijack(name)) == (
            eager_decisions(service_ip, egress, policy, rate, client_ip, name)
        )


class TestSessionProperties:
    @given(
        events=st.lists(
            st.tuples(st.sampled_from(["bind", "advance", "lookup"]),
                      st.integers(min_value=0, max_value=3),
                      st.floats(min_value=0.0, max_value=50.0)),
            max_size=40,
        )
    )
    def test_lookup_never_returns_expired_binding(self, events):
        clock = SimClock()
        table = SessionTable(clock, window=60.0)
        bound_at: dict[str, float] = {}
        for action, key_index, amount in events:
            key = f"s{key_index}"
            if action == "bind":
                table.bind(key, f"z{key_index}")
                bound_at[key] = clock.now
            elif action == "advance":
                clock.advance(amount)
            else:
                result = table.lookup(key)
                if result is not None:
                    assert clock.now - bound_at[key] <= 60.0


class TestRenderTableProperties:
    @given(
        rows=st.lists(
            st.tuples(st.text(max_size=12).filter(lambda s: "\n" not in s),
                      st.integers(-10**6, 10**6)),
            min_size=1,
            max_size=8,
        )
    )
    def test_all_cells_present(self, rows):
        text = render_table(("name", "value"), rows)
        for name, value in rows:
            assert str(value) in text


class TestRegistryRotationProperty:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_rotation_covers_pool_within_budget(self, seed, tiny_world):
        registry = tiny_world.registry
        rng = random.Random(seed)
        total = registry.countries()["TR"]
        seen = set()
        for _ in range(total * 6):
            seen.add(registry.pick(rng, "TR").zid)
            if len(seen) == total:
                break
        assert len(seen) >= total * 0.98
