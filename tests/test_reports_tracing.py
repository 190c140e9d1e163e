"""Tests for report rendering, CDF helpers, and protocol tracing."""

import pytest
from hypothesis import given, strategies as st

from repro.core import paper
from repro.core.reports import (
    Comparison,
    cdf_at,
    cdf_points,
    render_cdf_ascii,
    render_comparisons,
    render_table,
    same_order,
    within_factor,
)
from repro.tracing import Timeline


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(
            ("country", "nodes"), (("MY", 3_652), ("US", 6_108)), title="Table X"
        )
        lines = text.splitlines()
        assert lines[0] == "Table X"
        assert "country" in lines[1]
        assert lines[3].startswith("MY")

    def test_wide_values_expand_columns(self):
        text = render_table(("a",), (("value-much-wider-than-header",),))
        assert "value-much-wider-than-header" in text


class TestComparisons:
    def test_ratio(self):
        comparison = Comparison("hijacked", paper=0.048, measured=0.052)
        assert comparison.ratio == pytest.approx(1.083, abs=0.01)

    def test_zero_paper_value(self):
        assert Comparison("x", paper=0.0, measured=1.0).ratio is None

    def test_render(self):
        text = render_comparisons(
            [Comparison("hijacked", 0.048, 0.052), Comparison("none", 0, 0)],
            title="headline",
        )
        assert "hijacked" in text
        assert "1.08x" in text
        assert "n/a" in text


class TestCdf:
    def test_points(self):
        xs, ys = cdf_points([3.0, 1.0, 2.0])
        assert xs == [1.0, 2.0, 3.0]
        assert ys == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_empty(self):
        assert cdf_points([]) == ([], [])
        assert cdf_at([], 5.0) == 0.0

    def test_cdf_at(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert cdf_at(values, 2.5) == 0.5
        assert cdf_at(values, 0.0) == 0.0
        assert cdf_at(values, 10.0) == 1.0

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_cdf_monotone(self, values):
        thresholds = sorted({-150.0, 0.0, 50.0, 150.0})
        points = [cdf_at(values, t) for t in thresholds]
        assert points == sorted(points)

    def test_ascii_rendering(self):
        art = render_cdf_ascii(
            {"TrendMicro": [30.0, 60.0, 500.0, 5000.0], "Tiscali": [30.0, 30.1]},
            title="Figure 5",
        )
        assert "Figure 5" in art
        assert "a = TrendMicro (n=4)" in art
        assert "log scale" in art

    def test_ascii_handles_negative_delays(self):
        art = render_cdf_ascii({"Bluecoat": [-1.0, -0.5, 10.0]})
        assert "Bluecoat" in art  # clamped onto the left edge, no crash


class TestShapeHelpers:
    def test_same_order(self):
        assert same_order(["a", "b", "c"], ["a", "x", "b", "c"])
        assert not same_order(["a", "b"], ["b", "a"])
        assert same_order(["a", "b"], ["a"])  # missing items tolerated

    def test_within_factor(self):
        assert within_factor(100, 150, factor=2.0)
        assert not within_factor(100, 250, factor=2.0)
        assert within_factor(0, 0, factor=2.0)
        assert not within_factor(100, 0, factor=2.0)


class TestPaperConstants:
    def test_table3_ratios_descend(self):
        ratios = [hijacked / total for _cc, hijacked, total in paper.TABLE3]
        assert ratios == sorted(ratios, reverse=True)

    def test_table8_counts_descend(self):
        counts = [nodes for _issuer, nodes, _type in paper.TABLE8]
        assert counts == sorted(counts, reverse=True)

    def test_table9_top6_near_total(self):
        top6 = sum(nodes for _e, _ips, nodes, _a, _c in paper.TABLE9)
        assert top6 == pytest.approx(11_235, abs=1)

    def test_headline_fractions(self):
        assert paper.DNS_HIJACKED_FRACTION == 0.048
        assert sum(paper.DNS_ATTRIBUTION.values()) == pytest.approx(1.0)

    def test_table4_has_19_isps(self):
        assert len(paper.TABLE4) == 19

    def test_table7_has_12_ases(self):
        assert len(paper.TABLE7) == 12
        for _asn, _isp, _cc, modified, total, ratio, _cmps in paper.TABLE7:
            assert modified / total == pytest.approx(ratio, abs=0.01)


class TestTracing:
    def test_timeline_labels_and_actors(self):
        timeline = Timeline(title="T")
        timeline.add("client", "asks", "server", "detail")
        timeline.add("server", "answers")
        assert timeline.labels() == ["client -> server: asks", "server: answers"]
        assert timeline.actors() == ["client", "server"]
        assert len(timeline) == 2

    def test_render_numbers_steps(self):
        timeline = Timeline(title="T")
        timeline.add("a", "x")
        timeline.add("b", "y", "c")
        rendered = timeline.render()
        assert "(1) a: x" in rendered
        assert "(2) b -> c: y" in rendered
