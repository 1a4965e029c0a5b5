"""Counter-based random streams built on the Philox-4x32-10 block cipher.

Every draw is a pure function of (seed, stream id, position within the
stream), so any prefix of any stream can be regenerated bit-identically
regardless of chunking, call order, or parallel execution.  Stream ids
below 2^63 are reserved for ensemble row indices; named streams hash into
the upper half of the id space via :func:`label_stream`.

Each Philox block yields two 64-bit words, and each uniform double takes
the top 53 bits of one word, mapped to (0, 1) exclusive.  Normal variates
apply the inverse normal CDF to those uniforms; this transform is part of
the reproducibility contract.

Bulk draws run the cipher rounds, the uniform mapping and the inverse CDF
one chunk of `_LANE_BUDGET` lanes at a time, in buffers allocated once per
call, and write each chunk straight into its rows of the result.  The
result is the only full-size array, and the chunk size never changes a
value.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)

# cipher lanes per chunk, sized for L2: the rounds touch seven uint64 buffers
# of this length (1.75 MiB at 2^15), and the words and the chunk's slice of
# the result add 32 bytes a lane; any value gives the same draws
_LANE_BUDGET = 1 << 15


def label_stream(label: str) -> int:
    """Map a text label to a stream id disjoint from row-index streams."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return (1 << 63) | (int.from_bytes(digest, "little") >> 1)


def _philox10(c0, c1, c2, c3, k0, k1, p0, p1, scratch):
    # counters are uint64 arrays holding 32-bit lanes, updated in place, and
    # p0, p1, scratch are the caller's work buffers of the same length;
    # products of two 32-bit lanes are exact in 64 bits
    for _ in range(10):
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=scratch)
        np.bitwise_xor(scratch, c1, out=c0)
        np.bitwise_xor(c0, k0, out=c0)
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, _SHIFT32, out=scratch)
        np.bitwise_xor(scratch, c3, out=c2)
        np.bitwise_xor(c2, k1, out=c2)
        np.bitwise_and(p0, _MASK32, out=c3)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32


def _stream_uniforms(seed: int, stream_ids, count: int, transform=None) -> np.ndarray:
    """Uniform doubles in (0, 1), a C-contiguous (len(stream_ids), count) array.

    Row i is the first `count` values of stream (seed, stream_ids[i]);
    asking for fewer values returns a prefix of the same sequence.  The
    elementwise ufunc `transform`, if given, is applied in place to each
    chunk as it is written, so the result holds `transform(u)`.
    """
    stream_ids = np.asarray(stream_ids, dtype=np.uint64)
    if count < 0:
        raise ValueError("count must be nonnegative")
    key = np.uint64(seed)
    k0 = key & _MASK32
    k1 = key >> _SHIFT32
    n_streams = stream_ids.shape[0]
    out = np.empty((n_streams, count))
    if out.size == 0:
        return out
    blocks = (count + 1) // 2
    # a chunk is whole rows when a row fits the budget, else part of one row
    span = min(blocks, _LANE_BUDGET)
    rows = min(n_streams, max(1, _LANE_BUDGET // blocks))
    buffers = np.empty((7, rows * span), dtype=np.uint64)
    words = np.empty((rows * span, 2), dtype=np.uint64)
    ids_lo = (stream_ids & _MASK32)[:, None]
    ids_hi = (stream_ids >> _SHIFT32)[:, None]
    counter = np.arange(span, dtype=np.uint64)
    for r0 in range(0, n_streams, rows):
        r1 = min(r0 + rows, n_streams)
        for b0 in range(0, blocks, span):
            nb = min(span, blocks - b0)
            lanes = (r1 - r0) * nb
            grid = (r1 - r0, nb)
            c0, c1, c2, c3, p0, p1, scratch = buffers[:, :lanes]
            np.add(counter[:nb], np.uint64(b0), out=c0.reshape(grid))
            np.copyto(c1.reshape(grid), ids_lo[r0:r1])
            np.copyto(c2.reshape(grid), ids_hi[r0:r1])
            c3.fill(0)
            _philox10(c0, c1, c2, c3, k0, k1, p0, p1, scratch)
            pairs = words[:lanes]
            np.left_shift(c0, _SHIFT32, out=c0)
            np.bitwise_or(c0, c1, out=pairs[:, 0])
            np.left_shift(c2, _SHIFT32, out=c2)
            np.bitwise_or(c2, c3, out=pairs[:, 1])
            np.right_shift(pairs, _SHIFT11, out=pairs)
            # an odd count drops each row's last word
            lo, hi = 2 * b0, min(2 * (b0 + nb), count)
            dest = out[r0:r1, lo:hi]
            dest[...] = pairs.reshape(r1 - r0, 2 * nb)[:, :hi - lo]
            dest += 0.5
            dest *= 2.0 ** -53
            if transform is not None:
                transform(dest, out=dest)
    return out


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """`count` uniform doubles in (0, 1) from stream (seed, stream)."""
    return _stream_uniforms(seed, [stream], count)[0]


def normals(seed: int, stream: int, count: int) -> np.ndarray:
    """`count` standard normal doubles via the inverse CDF."""
    return _stream_uniforms(seed, [stream], count, ndtri)[0]


def normal_rows(seed: int, n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) standard normal matrix; row i comes from stream (seed, i)."""
    return _stream_uniforms(seed, np.arange(n_rows, dtype=np.uint64), n_cols, ndtri)
