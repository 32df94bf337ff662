"""The frame codec: an H.264-like DCT video coder with real byte output.

Coterie's server pre-encodes panoramic far-BE frames with x264 (CRF 25,
fastdecode) and clients decode them with the hardware MediaCodec (§5.1/§6).
This module is the substitute: a genuine lossy transform codec whose output
*size* responds to frame content exactly the way the network model needs —
a far-BE frame with the busy near field stripped compresses to roughly half
the bytes of the whole-BE frame, which is the paper's observation.

Two frame types are supported:

* **I-frames** — standalone intra coding (what the far-BE prefetch store
  uses: any frame must be decodable on a cache hit without neighbours);
* **P-frames** — residual coding against a reference (what the Thin-client
  baseline's continuous stream uses).

Because the simulated displays are 4K while we raster at a reduced
resolution, :meth:`EncodedFrame.wire_bytes` reports the 4K-equivalent size
(pixel-count scaling plus a chroma overhead factor); the raw luma byte
count is kept alongside for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import perf
from .blocks import (
    BLOCK,
    join_blocks,
    join_blocks_stack,
    pad_to_blocks,
    split_blocks,
)
from .dct import forward_dct, inverse_dct
from .entropy import decode_levels, encode_levels
from .quant import DEFAULT_CRF, dequantize, quant_matrix, quantize

# Chroma + container overhead on top of luma when scaling to wire size.
_CHROMA_FACTOR = 1.35
# Our transform coder has no intra prediction, CABAC, or deblocking; x264
# achieves roughly 3.5x better rate at equal quality, so wire sizes are
# scaled down by this calibrated efficiency factor (see DESIGN.md).
X264_EFFICIENCY = 0.28
# The paper's panoramic frames are 3840x2160.
FOUR_K_PIXELS = 3840 * 2160


@dataclass(frozen=True)
class EncodedFrame:
    """A compressed frame as produced by :class:`FrameCodec`."""

    data: bytes
    width: int
    height: int
    crf: float
    is_keyframe: bool

    @property
    def luma_bytes(self) -> int:
        """Actual compressed payload size at render resolution."""
        return len(self.data)

    @property
    def bits_per_pixel(self) -> float:
        return 8.0 * len(self.data) / (self.width * self.height)

    def wire_bytes(self, target_pixels: int = FOUR_K_PIXELS) -> int:
        """Size scaled to the paper's 4K frames (chroma included).

        This is the quantity the network model transfers; see DESIGN.md's
        "4K-equivalent size" note.
        """
        if target_pixels <= 0:
            raise ValueError("target_pixels must be positive")
        scale = target_pixels / (self.width * self.height)
        return int(round(len(self.data) * scale * _CHROMA_FACTOR * X264_EFFICIENCY))


class FrameCodec:
    """Encoder/decoder pair with x264-style CRF quality control."""

    def __init__(self, crf: float = DEFAULT_CRF) -> None:
        from .quant import quant_scale  # validates the range

        quant_scale(crf)
        self.crf = crf

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _to_levels(self, pixels: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        padded = pad_to_blocks(pixels)
        blocks = split_blocks(padded)
        return quantize(forward_dct(blocks), self.crf), padded.shape

    def encode(
        self, frame: np.ndarray, reference: Optional[np.ndarray] = None
    ) -> EncodedFrame:
        """Encode a luminance frame in [0, 1].

        With ``reference`` (the previous *decoded* frame) a P-frame is
        produced; otherwise an I-frame.
        """
        if frame.ndim != 2:
            raise ValueError("expected a 2D luminance frame")
        if frame.size == 0:
            raise ValueError("empty frame")
        with perf.timed("encode"):
            pixels = np.asarray(frame, dtype=np.float64) * 255.0
            if reference is None:
                levels, _ = self._to_levels(pixels - 128.0)
                is_key = True
            else:
                if reference.shape != frame.shape:
                    raise ValueError("reference shape differs from frame shape")
                residual = pixels - np.asarray(reference, dtype=np.float64) * 255.0
                levels, _ = self._to_levels(residual)
                is_key = False
            data = encode_levels(levels)
        return EncodedFrame(
            data=data,
            width=frame.shape[1],
            height=frame.shape[0],
            crf=self.crf,
            is_keyframe=is_key,
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(
        self, encoded: EncodedFrame, reference: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Decode back to a luminance frame in [0, 1]."""
        with perf.timed("decode"):
            pad_h = (-encoded.height) % BLOCK
            pad_w = (-encoded.width) % BLOCK
            ny = (encoded.height + pad_h) // BLOCK
            nx = (encoded.width + pad_w) // BLOCK
            levels = decode_levels(encoded.data, ny, nx)
            blocks = inverse_dct(dequantize(levels, encoded.crf))
            pixels = join_blocks(blocks, (encoded.height, encoded.width))
            if encoded.is_keyframe:
                out = pixels + 128.0
            else:
                if reference is None:
                    raise ValueError("P-frame decode requires the reference frame")
                if reference.shape != (encoded.height, encoded.width):
                    raise ValueError("reference shape mismatch")
                out = pixels + np.asarray(reference, dtype=np.float64) * 255.0
            return np.clip(out / 255.0, 0.0, 1.0).astype(np.float32)

    def decode_batch(self, encoded_frames):
        """Decode many I-frames in stacked numpy passes.

        The online loop's cross-player decode: frames are grouped by
        ``(height, width, crf)`` and each group's dequantize, inverse
        DCT, block join, and scale/clip run once over an ``(N, ...)``
        stack instead of once per frame.  Entropy decoding stays
        per-frame (variable-length zlib streams cannot batch).  Results
        are bit-identical to :meth:`decode` on each frame.

        P-frames are rejected: the batch path serves the far-BE store,
        which is I-frame only.
        """
        encoded_frames = list(encoded_frames)
        results: list = [None] * len(encoded_frames)
        if not encoded_frames:
            return results
        groups: dict = {}
        for index, encoded in enumerate(encoded_frames):
            if not encoded.is_keyframe:
                raise ValueError("decode_batch only handles I-frames")
            key = (encoded.height, encoded.width, encoded.crf)
            groups.setdefault(key, []).append(index)
        with perf.timed("decode"):
            perf.count("decode.batched_frames", len(encoded_frames))
            perf.count("decode.batches", len(groups))
            for (height, width, crf), indices in groups.items():
                pad_h = (-height) % BLOCK
                pad_w = (-width) % BLOCK
                ny = (height + pad_h) // BLOCK
                nx = (width + pad_w) // BLOCK
                n = len(indices)
                levels = np.empty((n, ny, nx, BLOCK, BLOCK), np.int32)
                for row, index in enumerate(indices):
                    levels[row] = decode_levels(
                        encoded_frames[index].data, ny, nx
                    )
                # dequantize, stacked: int32 levels promote to float64
                # exactly as levels.astype(float64) * q does per frame.
                coeffs = np.empty((n, ny, nx, BLOCK, BLOCK), np.float64)
                np.multiply(levels, quant_matrix(crf), out=coeffs)
                blocks = np.empty((n, ny, nx, BLOCK, BLOCK), np.float64)
                inverse_dct(coeffs, out=blocks)
                joined = np.empty((n, ny * BLOCK, nx * BLOCK), np.float64)
                pixels = join_blocks_stack(blocks, (height, width), out=joined)
                np.add(pixels, 128.0, out=pixels)
                np.divide(pixels, 255.0, out=pixels)
                np.clip(pixels, 0.0, 1.0, out=pixels)
                stack = np.empty((n, height, width), dtype=np.float32)
                np.copyto(stack, pixels)  # same rounding as astype(float32)
                for row, index in enumerate(indices):
                    results[index] = stack[row]
        return results


@dataclass(frozen=True)
class CodecTiming:
    """Encode/decode latency model (hardware-codec speeds).

    x264 on the testbed server encodes a 4K frame in a few ms; the Pixel 2's
    MediaCodec decodes one inside the frame budget.  Latencies scale with
    pixel count of the *wire* (4K-equivalent) frame.
    """

    encode_ms_per_mpixel: float = 0.55  # GTX-class server, x264 fastdecode
    decode_ms_per_mpixel: float = 0.95  # Pixel 2 hardware decoder

    def __post_init__(self) -> None:
        if self.encode_ms_per_mpixel <= 0 or self.decode_ms_per_mpixel <= 0:
            raise ValueError("codec timing rates must be positive")

    def encode_ms(self, pixels: int = FOUR_K_PIXELS) -> float:
        """Server-side encode latency for a frame of ``pixels``."""
        if pixels <= 0:
            raise ValueError("pixels must be positive")
        return pixels / 1e6 * self.encode_ms_per_mpixel

    def decode_ms(self, pixels: int = FOUR_K_PIXELS) -> float:
        """Phone-side hardware decode latency for ``pixels``."""
        if pixels <= 0:
            raise ValueError("pixels must be positive")
        return pixels / 1e6 * self.decode_ms_per_mpixel
