"""Deterministic 64-bit digests for speculation and sync validation.

Every digest in the speculation/sync subsystem is an FNV-1a hash over
little-endian byte encodings of exact values — 64-bit two's-complement
integers and IEEE-754 float64 bit patterns.  No rounding, no string
formatting: two runs that computed the same floats produce the same
digest bit-for-bit, and a single flipped mantissa bit changes it.  This
is the float64 oracle the rollback path asserts against and the state
hash the :class:`~repro.session.sync.SyncValidator` exchanges between
peers.
"""

from __future__ import annotations

import struct
from typing import Iterable

from ..geometry import GridPoint

#: FNV-1a 64-bit offset basis / prime (public-domain constants).
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a(data: bytes, seed: int = FNV_OFFSET) -> int:
    """Fold ``data`` into a running FNV-1a 64-bit hash."""
    h = seed & _MASK64
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def int_bits(*values: int) -> bytes:
    """Little-endian 64-bit two's-complement encoding of integers."""
    return struct.pack(f"<{len(values)}q", *values)


def float_bits(*values: float) -> bytes:
    """Little-endian IEEE-754 float64 bit patterns (exact, no rounding)."""
    return struct.pack(f"<{len(values)}d", *values)


def digest_ints(values: Iterable[int], seed: int = FNV_OFFSET) -> int:
    """Hash a sequence of integers (each folded as 64 unsigned bits)."""
    h = seed & _MASK64
    for value in values:
        h = fnv1a(struct.pack("<Q", value & _MASK64), h)
    return h


def stored_frame_digest(stored, grid_point: GridPoint) -> int:
    """The float64 oracle digest of one far-BE frame.

    Covers the grid point, the exact wire size, and the float64 bit
    patterns of the stored viewpoint — everything that determines what
    the emulated pipeline displays for that frame.  Recomputing it from
    the authoritative :class:`~repro.core.preprocess.PanoramaStore` and
    comparing against the digest stamped on a speculative cache entry is
    how the rollback path proves speculative and corrected state
    converge bit-identically.
    """
    h = fnv1a(int_bits(grid_point[0], grid_point[1]))
    h = fnv1a(int_bits(int(stored.wire_bytes)), h)
    h = fnv1a(float_bits(stored.viewpoint.x, stored.viewpoint.y), h)
    return h


def pose_digest(t_ms: float, x: float, y: float, heading: float) -> int:
    """Hash one viewport pose (float64 bit patterns, order-sensitive)."""
    return fnv1a(float_bits(t_ms, x, y, heading))
