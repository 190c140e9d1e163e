"""Ground-truth content corpus for the HTTP modification experiment.

§5.1: "we fetch four different pieces of content through each exit node: a
9 KB HTML page, a 39 KB JPEG image, a 258 KB un-minified JavaScript library,
and a 3 KB un-minified CSS file."  The corpus generates those objects
deterministically so that a byte-level diff against what an exit node
returned is a sound modification detector.

The paper also found that objects **under 1 KB saw much less modification**
(middleboxes skip tiny objects); the simulated injectors honour the same
threshold, and :data:`MIN_MODIFIABLE_SIZE` is exported so tests can assert it.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.web.jpeg import make_jpeg

#: Objects smaller than this are ignored by simulated middleboxes, matching
#: the paper's empirical observation about sub-1 KB fetches.
MIN_MODIFIABLE_SIZE = 1024


class ObjectKind(enum.Enum):
    """The four content types measured in §5."""

    HTML = "html"
    JPEG = "jpeg"
    JS = "js"
    CSS = "css"


#: Paper §5.1 object sizes, in bytes.
PAPER_OBJECT_SIZES: dict[ObjectKind, int] = {
    ObjectKind.HTML: 9 * 1024,
    ObjectKind.JPEG: 39 * 1024,
    ObjectKind.JS: 258 * 1024,
    ObjectKind.CSS: 3 * 1024,
}

#: Content-Type header value served for each kind.
CONTENT_TYPES: dict[ObjectKind, str] = {
    ObjectKind.HTML: "text/html",
    ObjectKind.JPEG: "image/jpeg",
    ObjectKind.JS: "application/javascript",
    ObjectKind.CSS: "text/css",
}


def _filler_words(seed: str, approx_bytes: int) -> str:
    """Deterministic readable filler of roughly ``approx_bytes`` bytes."""
    words: list[str] = []
    size = 0
    counter = 0
    while size < approx_bytes:
        token = hashlib.sha256(f"{seed}:{counter}".encode("ascii")).hexdigest()[:8]
        words.append(token)
        size += len(token) + 1
        counter += 1
    return " ".join(words)


def _pad_to(text: str, size: int, comment_open: str, comment_close: str) -> bytes:
    """Pad text content with a trailing comment to hit ``size`` bytes exactly."""
    data = text.encode("ascii")
    overhead = len(comment_open) + len(comment_close)
    if len(data) + overhead > size:
        raise ValueError(f"content of {len(data)} bytes cannot fit target {size}")
    padding = size - len(data) - overhead
    return data + comment_open.encode("ascii") + b"p" * padding + comment_close.encode("ascii")


def make_html(size: int, seed: str = "tft-html") -> bytes:
    """A well-formed HTML page of exactly ``size`` bytes."""
    body = _filler_words(seed, max(0, size - 2048))
    text = (
        "<!DOCTYPE html>\n"
        "<html><head><title>TfT measurement object</title></head>\n"
        "<body>\n"
        f"<p>{body}</p>\n"
        "</body></html>\n"
    )
    return _pad_to(text, size, "<!--", "-->")


def make_js(size: int, seed: str = "tft-js") -> bytes:
    """An un-minified JavaScript file of exactly ``size`` bytes."""
    head = '(function () {\n    "use strict";\n    var measurements = [];\n'
    # Readable function bodies grow the file until it is within 512 bytes
    # of the target, then a comment pads it exactly.  Every token is 12 hex
    # characters, so every probe is the same length and their count is
    # known up front.
    probe_bytes = len(_js_probe("0" * 12))
    count = max(0, -(-(size - 512 - len(head)) // probe_bytes))
    probes = "".join(
        _js_probe(hashlib.sha256(f"{seed}:{counter}".encode("ascii")).hexdigest()[:12])
        for counter in range(count)
    )
    return _pad_to(head + probes + "})();\n", size, "/*", "*/")


def _js_probe(token: str) -> str:
    return f'    function probe_{token}() {{\n        measurements.push("{token}");\n    }}\n'


def make_css(size: int, seed: str = "tft-css") -> bytes:
    """An un-minified CSS file of exactly ``size`` bytes."""
    rules = []
    counter = 0
    total = 0
    while total < size - 256:
        token = hashlib.sha256(f"{seed}:{counter}".encode("ascii")).hexdigest()[:6]
        rule = f".probe-{token} {{\n    color: #{token};\n    margin: 0;\n}}"
        rules.append(rule)
        total += len(rule) + 1
        counter += 1
    return _pad_to("\n".join(rules) + "\n", size, "/*", "*/")


@dataclass(frozen=True)
class ContentCorpus:
    """The four ground-truth objects plus their serving paths.

    Built once per world; both the measurement web server (which serves the
    objects) and the experiment (which diffs what came back) reference the
    same instance, so detection is a pure byte comparison.
    """

    html: bytes
    jpeg: bytes
    js: bytes
    css: bytes

    PATHS = {
        ObjectKind.HTML: "/objects/page.html",
        ObjectKind.JPEG: "/objects/photo.jpg",
        ObjectKind.JS: "/objects/library.js",
        ObjectKind.CSS: "/objects/style.css",
    }

    @classmethod
    def build(cls, sizes: dict[ObjectKind, int] | None = None, seed: str = "tft") -> "ContentCorpus":
        """Generate the corpus at the paper's sizes (or custom ones)."""
        actual = dict(PAPER_OBJECT_SIZES)
        if sizes:
            actual.update(sizes)
        return cls(
            html=make_html(actual[ObjectKind.HTML], seed=f"{seed}-html"),
            jpeg=make_jpeg(actual[ObjectKind.JPEG], seed=f"{seed}-jpeg"),
            js=make_js(actual[ObjectKind.JS], seed=f"{seed}-js"),
            css=make_css(actual[ObjectKind.CSS], seed=f"{seed}-css"),
        )

    def body(self, kind: ObjectKind) -> bytes:
        """Ground-truth bytes for one object kind."""
        return getattr(self, kind.value)

    def path(self, kind: ObjectKind) -> str:
        """Serving path for one object kind."""
        return self.PATHS[kind]

    def kind_for_path(self, path: str) -> ObjectKind | None:
        """Reverse lookup from serving path to kind."""
        return _KIND_BY_PATH.get(path)

    def is_modified(self, kind: ObjectKind, received: bytes) -> bool:
        """The §5 detector: any byte-level difference counts as modification."""
        return received != self.body(kind)


_KIND_BY_PATH = {path: kind for kind, path in ContentCorpus.PATHS.items()}
