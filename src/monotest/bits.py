"""Bit-packed storage for batches of hypercube points.

A point of {-1,+1}^n is stored as ceil(n/8) bytes, little-endian within each
byte: bit j of byte k holds coordinate 8*k + j, with bit value 1 meaning +1
and bit value 0 meaning -1.  A batch is a uint8 array of shape (m, nbytes(n)).
Padding bits beyond coordinate n-1 are kept at zero so packed representations
are canonical and hashable.

Packing exists purely for throughput: uniform sampling touches 8x less memory
and halfspace evaluation can run off per-byte lookup tables.  Everything here
converts losslessly to and from plain +-1 int8 vectors.

The evaluator gathers every batch with flat takes over all the bytes of
16 KiB of rows at a time (see oracle.FLAT_BLOCK_BYTES).  Loops that draw
fresh batches keep each batch within CHUNK_BYTES (see chunk_rows).
"""

from __future__ import annotations

import numpy as np

# (256, 8) matrix: row b lists the bits of byte value b, LSB first.
BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(np.int8)

# packed bytes per freshly drawn batch
CHUNK_BYTES = 16 << 20


def nbytes(n: int) -> int:
    return (n + 7) // 8


def tail_mask(n: int) -> int:
    """Byte mask keeping only the valid bits of the final byte."""
    rem = n % 8
    return 0xFF if rem == 0 else (1 << rem) - 1


def chunk_rows(rows: int, nb: int, copies: int = 1) -> int:
    """Rows per drawn batch: at most `rows`, and `copies` arrays of nb-byte
    rows within CHUNK_BYTES.

    The byte budget is rounded down to a multiple of 4 rows, so consecutive
    random_packed draws of that many rows give the same bytes as one draw of
    their total (the sampler consumes the stream in 4-byte words).
    """
    return min(rows, max(4, (CHUNK_BYTES // (nb * copies)) & ~3))


def random_packed(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m uniform points of {-1,+1}^n, packed; padding bits zeroed.

    For m >= 1 the bytes are those of rng.bytes(m * nbytes(n)), and the
    generator ends in the same state, but they are viewed in place instead
    of copied.

    rng.bytes reads 32-bit words; each 64-bit output of the bit generator
    gives its low half, then its high half.  So an even number of words,
    drawn while no half-word is buffered, is the little-endian bytes of
    random_raw(words // 2), which skips the per-word loop.  The state then
    differs only in the stale `uinteger` field, which no draw reads while
    `has_uint32` is 0.
    """
    nb = nbytes(n)
    size = m * nb
    n_words = (size + 3) // 4
    bitgen = rng.bit_generator
    if n_words % 2 == 0 and bitgen.state["has_uint32"] == 0:
        raw = bitgen.random_raw(n_words // 2).astype("<u8", copy=False)
    else:
        raw = rng.integers(0, 1 << 32, size=n_words,
                           dtype=np.uint32).astype("<u4", copy=False)
    out = raw.view(np.uint8)[:size].reshape(m, nb)
    out[:, -1] &= tail_mask(n)
    return out


def pack(points_pm: np.ndarray) -> np.ndarray:
    """Pack an (m, n) or (n,) array over {-1,+1} into bytes."""
    pm = np.atleast_2d(np.asarray(points_pm))
    bits = (pm > 0).astype(np.uint8)
    return np.packbits(bits, axis=1, bitorder="little")


def unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Unpack an (m, nbytes) batch to (m, n) int8 over {-1,+1}."""
    packed = np.atleast_2d(packed)
    bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
    return (2 * bits.astype(np.int8) - 1)


def point_to_string(point_pm: np.ndarray) -> str:
    """Render a +-1 vector as a '+-...' string."""
    return "".join("+" if b > 0 else "-" for b in np.asarray(point_pm).ravel())


def point_from_string(s: str) -> np.ndarray:
    if not s or any(c not in "+-" for c in s):
        raise ValueError(f"malformed point string: {s!r}")
    return np.array([1 if c == "+" else -1 for c in s], dtype=np.int8)
