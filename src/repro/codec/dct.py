"""8x8 type-II DCT over block tensors.

Implemented as two matrix multiplications with the orthonormal DCT-II
basis, vectorized across all blocks with einsum: for a block ``B``,
``coeffs = C @ B @ C.T`` and ``B = C.T @ coeffs @ C``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .blocks import BLOCK


@lru_cache(maxsize=1)
def dct_matrix() -> np.ndarray:
    """The orthonormal 8x8 DCT-II basis matrix."""
    c = np.zeros((BLOCK, BLOCK))
    for k in range(BLOCK):
        scale = math.sqrt(1.0 / BLOCK) if k == 0 else math.sqrt(2.0 / BLOCK)
        for n in range(BLOCK):
            c[k, n] = scale * math.cos(math.pi * (2 * n + 1) * k / (2 * BLOCK))
    return c


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """DCT-II of every 8x8 block in an (ny, nx, 8, 8) tensor."""
    if blocks.shape[-2:] != (BLOCK, BLOCK):
        raise ValueError("blocks must be (..., 8, 8)")
    c = dct_matrix()
    return np.einsum("ij,...jk,lk->...il", c, blocks.astype(np.float64), c)


def inverse_dct(
    coeffs: np.ndarray, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Inverse DCT of every 8x8 coefficient block.

    Accepts any leading batch dimensions — the einsum contracts each
    block independently, so stacked decodes are bit-identical to
    per-frame ones.  ``out`` takes a preallocated float64 result buffer.
    """
    if coeffs.shape[-2:] != (BLOCK, BLOCK):
        raise ValueError("coeffs must be (..., 8, 8)")
    c = dct_matrix()
    promoted = np.asarray(coeffs, dtype=np.float64)
    if out is None:
        return np.einsum("ji,...jk,kl->...il", c, promoted, c)
    return np.einsum("ji,...jk,kl->...il", c, promoted, c, out=out)
