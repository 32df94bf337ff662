"""H.264-like frame codec: DCT transform coding with real byte output."""

from .blocks import BLOCK, join_blocks, pad_to_blocks, split_blocks
from .dct import dct_matrix, forward_dct, inverse_dct
from .entropy import decode_levels, encode_levels, zigzag_order
from .h264like import FOUR_K_PIXELS, CodecTiming, EncodedFrame, FrameCodec
from .quant import (
    BASE_QUANT,
    DEFAULT_CRF,
    dequantize,
    quant_matrix,
    quant_scale,
    quantize,
)

__all__ = [
    "BASE_QUANT",
    "BLOCK",
    "CodecTiming",
    "DEFAULT_CRF",
    "EncodedFrame",
    "FOUR_K_PIXELS",
    "FrameCodec",
    "dct_matrix",
    "decode_levels",
    "dequantize",
    "encode_levels",
    "forward_dct",
    "inverse_dct",
    "join_blocks",
    "pad_to_blocks",
    "quant_matrix",
    "quant_scale",
    "quantize",
    "split_blocks",
    "zigzag_order",
]
