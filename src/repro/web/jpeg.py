"""A size-accurate synthetic JPEG container.

The paper's image experiment (§5.2, Table 7) measures one thing about the
JPEG it fetches: its size relative to the original, i.e. the transcoder's
compression ratio.  Real DCT coding adds nothing to that measurement, so the
substitute format makes the measured quantity explicit while remaining a
binary container that a transcoder must parse and re-encode:

``SJPG | quality:1 byte | payload-length:4 bytes BE | payload``

The payload is deterministic pseudo-noise; transcoding to a lower quality
shrinks the payload proportionally, exactly reproducing the "compressed to
lower quality levels" behaviour the paper attributes to mobile ISPs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.records import slot_init

MAGIC = b"SJPG"
HEADER_LEN = len(MAGIC) + 1 + 4


class JpegFormatError(ValueError):
    """Raised when bytes do not parse as a synthetic JPEG."""


@slot_init
@dataclass(frozen=True, slots=True)
class SyntheticJpeg:
    """Decoded form: a quality level in [1, 100] and the payload bytes."""

    quality: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 1 <= self.quality <= 100:
            raise JpegFormatError(f"quality out of range: {self.quality}")

    @property
    def encoded_size(self) -> int:
        """Size in bytes of the encoded form."""
        return HEADER_LEN + len(self.payload)


def _noise(seed: str, length: int) -> bytes:
    """Deterministic pseudo-noise payload of exactly ``length`` bytes.

    Block ``i`` is ``sha256(f"{seed}:{i}")``; the concatenation is truncated
    to ``length``.  The byte stream is pinned by stored datasets — any
    rewrite here must keep it identical.
    """
    if length <= 0:
        return b""
    prefix = f"{seed}:".encode("ascii")
    sha = hashlib.sha256
    blob = b"".join(
        sha(prefix + b"%d" % counter).digest()
        for counter in range((length + 31) // 32)
    )
    return blob[:length]


def make_jpeg(total_size: int, quality: int = 95, seed: str = "tft-image") -> bytes:
    """Encode a synthetic JPEG of exactly ``total_size`` bytes."""
    if total_size < HEADER_LEN + 1:
        raise JpegFormatError(f"total size {total_size} too small for container")
    payload = _noise(seed, total_size - HEADER_LEN)
    return encode_jpeg(SyntheticJpeg(quality=quality, payload=payload))


def encode_jpeg(image: SyntheticJpeg) -> bytes:
    """Serialize to the container format."""
    return (
        MAGIC
        + bytes([image.quality])
        + len(image.payload).to_bytes(4, "big")
        + image.payload
    )


def decode_jpeg(data: bytes) -> SyntheticJpeg:
    """Parse container bytes; raises :class:`JpegFormatError` on corruption."""
    if len(data) < HEADER_LEN:
        raise JpegFormatError("truncated header")
    if data[: len(MAGIC)] != MAGIC:
        raise JpegFormatError("bad magic")
    quality = data[len(MAGIC)]
    declared = int.from_bytes(data[len(MAGIC) + 1 : HEADER_LEN], "big")
    payload = data[HEADER_LEN:]
    if len(payload) != declared:
        raise JpegFormatError(
            f"payload length mismatch: declared {declared}, got {len(payload)}"
        )
    return SyntheticJpeg(quality=quality, payload=payload)


def is_jpeg(data: bytes) -> bool:
    """Cheap magic-byte check used by transcoders to skip non-images."""
    return data[: len(MAGIC)] == MAGIC


def transcode_to_ratio(data: bytes, ratio: float, seed: str = "transcode") -> bytes:
    """Re-encode an image so the output is ``ratio`` times the input size.

    Mirrors a lossy middlebox: the new quality is scaled down with the
    payload, and the payload is re-generated (a transcoder cannot preserve
    original bytes).  ``ratio`` must be in (0, 1]; a ratio of 1.0 still
    re-encodes (so the bytes differ), matching real proxies that decompress
    and recompress even at high quality.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"compression ratio out of range: {ratio}")
    original = decode_jpeg(data)
    target_total = max(HEADER_LEN + 1, int(round(len(data) * ratio)))
    new_quality = max(1, min(100, int(round(original.quality * ratio))))
    payload = _noise(f"{seed}:{new_quality}", target_total - HEADER_LEN)
    return encode_jpeg(SyntheticJpeg(quality=new_quality, payload=payload))


def compression_ratio(original: bytes, received: bytes) -> float:
    """Size ratio the analysis reports in Table 7 (received / original)."""
    if not original:
        raise ValueError("original image is empty")
    return len(received) / len(original)
