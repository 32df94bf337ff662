"""8x8 type-II DCT over block tensors.

Implemented as two chained matrix products with the orthonormal DCT-II
basis ``C``, broadcast over every leading block dimension: for a block
``B``, ``coeffs = (C @ B) @ C.T`` and ``B = (C.T @ coeffs) @ C``.  Each
8x8 product runs on its own block, so a stacked decode is bit-identical
to per-frame ones.

The products go through ``np.matmul`` (and so through the BLAS numpy was
built with) rather than a three-operand ``einsum``; on a (16, 32, 8, 8)
stack that is about 7x faster on a 2-CPU x86 host.  The two are not
bit-equal: on the far-BE panoramas of all nine games (20 poses each,
cutoffs 5, 15 and 40 m) they differ by up to ~6e-13 forward and ~3e-13
inverse in float64.  That difference never crossed a quantizer step or
a float32 rounding boundary there: the encoded bytes and the decoded
frames equal the ``einsum`` transform's
(``tests/codec/test_transform_equivalence.py``).  That is a measurement
on those inputs, not a proof.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .blocks import BLOCK


@lru_cache(maxsize=1)
def dct_matrix() -> np.ndarray:
    """The orthonormal 8x8 DCT-II basis matrix (shared and read-only)."""
    c = np.zeros((BLOCK, BLOCK))
    for k in range(BLOCK):
        scale = math.sqrt(1.0 / BLOCK) if k == 0 else math.sqrt(2.0 / BLOCK)
        for n in range(BLOCK):
            c[k, n] = scale * math.cos(math.pi * (2 * n + 1) * k / (2 * BLOCK))
    c.setflags(write=False)  # every transform reads this one array
    return c


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """DCT-II of every 8x8 block in an (..., 8, 8) tensor."""
    if blocks.shape[-2:] != (BLOCK, BLOCK):
        raise ValueError("blocks must be (..., 8, 8)")
    c = dct_matrix()
    return np.matmul(np.matmul(c, blocks.astype(np.float64)), c.T)


def inverse_dct(
    coeffs: np.ndarray, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Inverse DCT of every 8x8 coefficient block.

    Accepts any leading batch dimensions.  ``out`` takes a preallocated
    float64 result buffer.
    """
    if coeffs.shape[-2:] != (BLOCK, BLOCK):
        raise ValueError("coeffs must be (..., 8, 8)")
    c = dct_matrix()
    return np.matmul(np.matmul(c.T, np.asarray(coeffs, dtype=np.float64)), c, out=out)
