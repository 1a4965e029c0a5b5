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

# cap on simultaneously materialized cipher lanes; keeps bulk sampling
# under a few hundred MB while leaving results chunk-invariant
_LANE_BUDGET = 1 << 21


def label_stream(label: str) -> int:
    """Map a text label to a stream id disjoint from row-index streams."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return (1 << 63) | (int.from_bytes(digest, "little") >> 1)


def _philox10(c0, c1, c2, c3, k0, k1):
    # counters are uint64 arrays holding 32-bit lanes, updated in place;
    # products of two 32-bit lanes are exact in 64 bits
    p0 = np.empty_like(c0)
    p1 = np.empty_like(c0)
    scratch = np.empty_like(c0)
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
    return c0, c1, c2, c3


def _stream_uniforms(seed: int, stream_ids: np.ndarray, count: int) -> np.ndarray:
    """Uniform doubles in (0, 1), shape (len(stream_ids), count).

    Row i is the first `count` values of stream (seed, stream_ids[i]);
    asking for fewer values returns a prefix of the same sequence.
    """
    stream_ids = np.asarray(stream_ids, dtype=np.uint64)
    if count < 0:
        raise ValueError("count must be nonnegative")
    n_streams = stream_ids.shape[0]
    blocks = (count + 1) // 2
    out = np.empty((n_streams, 2 * blocks))
    key = np.uint64(seed)
    k0 = key & _MASK32
    k1 = key >> _SHIFT32
    chunk = max(1, _LANE_BUDGET // max(blocks, 1))
    counter = np.arange(blocks, dtype=np.uint64)
    for lo in range(0, n_streams, chunk):
        ids = stream_ids[lo:lo + chunk]
        c0 = np.tile(counter, ids.shape[0])
        c1 = np.repeat(ids & _MASK32, blocks)
        c2 = np.repeat(ids >> _SHIFT32, blocks)
        c3 = np.zeros(ids.shape[0] * blocks, dtype=np.uint64)
        w0, w1, w2, w3 = _philox10(c0, c1, c2, c3, k0, k1)
        words = np.empty((ids.shape[0] * blocks, 2), dtype=np.uint64)
        np.left_shift(w0, _SHIFT32, out=w0)
        np.bitwise_or(w0, w1, out=words[:, 0])
        np.left_shift(w2, _SHIFT32, out=w2)
        np.bitwise_or(w2, w3, out=words[:, 1])
        np.right_shift(words, _SHIFT11, out=words)
        u = words.astype(np.float64)
        u += 0.5
        u *= 2.0 ** -53
        out[lo:lo + ids.shape[0]] = u.reshape(ids.shape[0], 2 * blocks)
    return out[:, :count]


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """`count` uniform doubles in (0, 1) from stream (seed, stream)."""
    return _stream_uniforms(seed, np.asarray([stream], dtype=np.uint64), count)[0]


def normals(seed: int, stream: int, count: int) -> np.ndarray:
    """`count` standard normal doubles via the inverse CDF."""
    return ndtri(uniforms(seed, stream, count))


def normal_rows(seed: int, n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) standard normal matrix; row i comes from stream (seed, i)."""
    ids = np.arange(n_rows, dtype=np.uint64)
    return ndtri(_stream_uniforms(seed, ids, n_cols))
