"""Tests for the HTTP substrate: messages, JPEG container, corpus, servers."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.net.clock import SimClock
from repro.web.content import (
    CONTENT_TYPES,
    ContentCorpus,
    MIN_MODIFIABLE_SIZE,
    ObjectKind,
    PAPER_OBJECT_SIZES,
    make_css,
    make_html,
    make_js,
    _pad_to,
)
from repro.web.http import AccessLog, HttpRequest, HttpResponse
from repro.web.jpeg import (
    HEADER_LEN,
    JpegFormatError,
    SyntheticJpeg,
    compression_ratio,
    decode_jpeg,
    encode_jpeg,
    is_jpeg,
    make_jpeg,
    transcode_to_ratio,
)
from repro.web.server import (
    BlockPageServer,
    HijackPageServer,
    MeasurementWebServer,
    is_block_page,
)
from repro.dnssim.hijack import HijackPolicy


class TestHttpMessages:
    def test_host_normalized(self):
        request = HttpRequest(host="WWW.Example.COM.", path="/", source_ip=1, time=0.0)
        assert request.host == "www.example.com"

    def test_path_must_be_absolute(self):
        with pytest.raises(ValueError):
            HttpRequest(host="x", path="no-slash", source_ip=1, time=0.0)

    def test_url(self):
        request = HttpRequest(host="x.example", path="/a/b", source_ip=1, time=0.0)
        assert request.url == "http://x.example/a/b"

    def test_header_lookup_case_insensitive(self):
        response = HttpResponse.ok(b"x")
        assert response.header("content-type") == "text/html"
        assert response.header("CONTENT-TYPE") == "text/html"
        assert response.header("missing") is None

    def test_with_source_preserves_rest(self):
        request = HttpRequest(host="x", path="/", source_ip=1, time=5.0)
        moved = request.with_source(99, time=7.0)
        assert (moved.source_ip, moved.time, moved.host) == (99, 7.0, "x")

    def test_with_body_and_header(self):
        response = HttpResponse.ok(b"orig")
        assert response.with_body(b"new").body == b"new"
        tagged = response.with_header("X-Test", "1")
        assert tagged.header("X-Test") == "1"

    def test_is_success(self):
        assert HttpResponse.ok(b"").is_success
        assert not HttpResponse.not_found().is_success


class TestAccessLog:
    def fields(self, host, time=0.0, source=1):
        return dict(time=time, source_ip=source, host=host, path="/", user_agent="ua", status=200)

    def test_for_host_in_order(self):
        log = AccessLog()
        log.append(**self.fields("a.example", 1.0))
        log.append(**self.fields("b.example", 2.0))
        log.append(**self.fields("a.example", 3.0))
        assert [e.time for e in log.for_host("a.example")] == [1.0, 3.0]

    def test_for_host_normalizes(self):
        log = AccessLog()
        log.append(**self.fields("a.example"))
        assert len(log.for_host("A.EXAMPLE.")) == 1

    def test_hosts_iteration(self):
        log = AccessLog()
        log.append(**self.fields("a.example"))
        log.append(**self.fields("b.example"))
        assert set(log.hosts()) == {"a.example", "b.example"}


class TestSyntheticJpeg:
    def test_roundtrip(self):
        data = make_jpeg(4096, quality=95)
        assert len(data) == 4096
        image = decode_jpeg(data)
        assert image.quality == 95
        assert encode_jpeg(image) == data

    def test_magic_check(self):
        assert is_jpeg(make_jpeg(2048))
        assert not is_jpeg(b"<html>...")

    def test_decode_rejects_corruption(self):
        data = bytearray(make_jpeg(2048))
        data[0] = ord("X")
        with pytest.raises(JpegFormatError):
            decode_jpeg(bytes(data))

    def test_decode_rejects_truncation(self):
        data = make_jpeg(2048)
        with pytest.raises(JpegFormatError):
            decode_jpeg(data[:100])

    def test_quality_bounds(self):
        with pytest.raises(JpegFormatError):
            SyntheticJpeg(quality=0, payload=b"")
        with pytest.raises(JpegFormatError):
            SyntheticJpeg(quality=101, payload=b"")

    @given(st.floats(min_value=0.1, max_value=0.9))
    def test_transcode_hits_target_ratio(self, ratio):
        original = make_jpeg(39 * 1024, quality=95)
        smaller = transcode_to_ratio(original, ratio)
        achieved = compression_ratio(original, smaller)
        assert abs(achieved - ratio) < 0.01
        assert decode_jpeg(smaller).quality <= 95

    def test_transcode_at_unity_still_reencodes(self):
        original = make_jpeg(4096)
        recoded = transcode_to_ratio(original, 1.0)
        assert recoded != original
        assert len(recoded) == len(original)

    def test_transcode_rejects_bad_ratio(self):
        original = make_jpeg(4096)
        for ratio in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                transcode_to_ratio(original, ratio)

    def test_deterministic(self):
        assert make_jpeg(2048, seed="s") == make_jpeg(2048, seed="s")
        assert make_jpeg(2048, seed="s") != make_jpeg(2048, seed="t")

    def test_minimum_size_enforced(self):
        with pytest.raises(JpegFormatError):
            make_jpeg(HEADER_LEN)


class TestContentCorpus:
    def test_paper_sizes_exact(self):
        corpus = ContentCorpus.build()
        for kind, size in PAPER_OBJECT_SIZES.items():
            assert len(corpus.body(kind)) == size

    def test_generators_hit_exact_sizes(self):
        assert len(make_html(5000)) == 5000
        assert len(make_js(100_000)) == 100_000
        assert len(make_css(2048)) == 2048

    @pytest.mark.parametrize("seed", ["tft-js", "tft-jsb"])
    @pytest.mark.parametrize(
        "size",
        [-1, 0, 69, 70, 71, 513, 572, 573, 657, 658, 1024, 4096, 100_000, 258 * 1024, 264_192],
    )
    def test_js_matches_the_line_loop(self, size, seed):
        # The growth loop make_js replaced: the byte oracle, raises included.
        def loop(size: int, seed: str) -> bytes:
            lines = ["(function () {", '    "use strict";', "    var measurements = [];"]
            counter = 0
            total = sum(len(line) + 1 for line in lines)
            while total < size - 512:
                token = hashlib.sha256(f"{seed}:{counter}".encode("ascii")).hexdigest()[:12]
                lines.append(f"    function probe_{token}() {{")
                lines.append(f'        measurements.push("{token}");')
                lines.append("    }")
                total += sum(len(line) + 1 for line in lines[-3:])
                counter += 1
            lines.append("})();")
            return _pad_to("\n".join(lines) + "\n", size, "/*", "*/")

        if size < 70:
            with pytest.raises(ValueError):
                loop(size, seed)
            with pytest.raises(ValueError):
                make_js(size, seed)
        else:
            assert make_js(size, seed) == loop(size, seed)

    def test_html_is_wellformed_enough(self):
        html = make_html(9 * 1024)
        assert html.startswith(b"<!DOCTYPE html>")
        assert b"</body></html>" in html

    def test_objects_above_modifiable_threshold(self):
        corpus = ContentCorpus.build()
        for kind in ObjectKind:
            assert len(corpus.body(kind)) >= MIN_MODIFIABLE_SIZE

    def test_is_modified_detects_any_change(self):
        corpus = ContentCorpus.build()
        body = corpus.body(ObjectKind.HTML)
        assert not corpus.is_modified(ObjectKind.HTML, body)
        assert corpus.is_modified(ObjectKind.HTML, body + b" ")
        assert corpus.is_modified(ObjectKind.HTML, body[:-1])

    def test_path_roundtrip(self):
        corpus = ContentCorpus.build()
        for kind in ObjectKind:
            assert corpus.kind_for_path(corpus.path(kind)) is kind
        assert corpus.kind_for_path("/nope") is None

    def test_deterministic_per_seed(self):
        assert ContentCorpus.build(seed="a").html == ContentCorpus.build(seed="a").html
        assert ContentCorpus.build(seed="a").html != ContentCorpus.build(seed="b").html


class TestMeasurementWebServer:
    def make(self):
        return MeasurementWebServer(ip=1, clock=SimClock(), corpus=ContentCorpus.build())

    def request(self, host="m1.probe.example", path="/", source=9, time=3.0):
        return HttpRequest(host=host, path=path, source_ip=source, time=time)

    def test_serves_corpus_objects(self):
        server = self.make()
        response = server.handle_http(self.request(path="/objects/page.html"))
        assert response.status == 200
        assert response.body == server.corpus.html
        assert response.header("Content-Type") == "text/html"

    def test_serves_default_page_for_probe_domains(self):
        server = self.make()
        response = server.handle_http(self.request())
        assert response.status == 200
        assert b"probe" in response.body

    def test_unknown_path_404_but_logged(self):
        server = self.make()
        response = server.handle_http(self.request(path="/missing"))
        assert response.status == 404
        assert server.log.entries[-1].status == 404

    def test_log_captures_source_and_time(self):
        server = self.make()
        server.handle_http(self.request(source=77, time=12.5))
        entry = server.log.entries[-1]
        assert (entry.source_ip, entry.time) == (77, 12.5)

    def test_serves_jpeg_content_type(self):
        server = self.make()
        response = server.handle_http(self.request(path="/objects/photo.jpg"))
        assert response.header("Content-Type") == "image/jpeg"
        assert is_jpeg(response.body)


class TestOtherServers:
    def test_hijack_page_server(self):
        policy = HijackPolicy(operator="X", landing_domain="l.example", redirect_ip=5)
        server = HijackPageServer(ip=5, policy=policy)
        response = server.handle_http(
            HttpRequest(host="typo.example", path="/", source_ip=1, time=0.0)
        )
        assert b"l.example" in response.body
        assert b"typo.example" in response.body

    def test_block_page_kinds(self):
        blocked = BlockPageServer(ip=1, kind="blocked")
        bandwidth = BlockPageServer(ip=2, kind="bandwidth")
        assert is_block_page(blocked.page)
        assert is_block_page(bandwidth.page)
        with pytest.raises(ValueError):
            BlockPageServer(ip=3, kind="weird")

    def test_normal_content_is_not_block_page(self):
        assert not is_block_page(make_html(4096))
