"""Counter-based random streams built on the Philox-4x32-10 block cipher.

Every draw is a pure function of (seed, stream id, position within the
stream), so any prefix of any stream can be regenerated bit-identically
regardless of chunking, call order, or parallel execution.  Stream ids
below 2^63 are reserved for ensemble row indices; named streams hash into
the upper half of the id space via :func:`label_stream`.

Each Philox block yields two 64-bit words, and each uniform double takes
the top 53 bits k of one word, mapped to (k + 1/2) 2^-53 in (0, 1).  The
top word would round up to 1.0, and its normal draw to +inf, so it is
clamped to 1 - 2^-53, a value no other word gives: every draw is finite.
Normal variates apply the inverse normal CDF to those uniforms; this
transform is part of the reproducibility contract.  It is Cephes' `ndtri`
written in numpy, with the same bits as `scipy.special.ndtri`.

Bulk draws run the cipher rounds, the uniform mapping and the inverse CDF
one chunk of `_LANE_BUDGET` lanes at a time, in buffers allocated once per
call, and write each chunk straight into its rows of the result.  The
result is the only full-size array, and the chunk size never changes a
value.
"""

from __future__ import annotations

from _blake2 import blake2b

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)

# cipher lanes per chunk, sized for L2: the rounds touch seven uint64 buffers
# of this length (0.875 MiB at 2^14), and the words and the chunk's slice of
# the result add 32 bytes a lane; any value gives the same draws
_LANE_BUDGET = 1 << 14

# Cephes ndtri.c: e^-2 bounds the central branch and sqrt(2 pi) scales it;
# each rational is P/Q with coefficients highest degree first, and each Q
# writes out the leading 1 that Cephes' p1evl leaves implicit (x * 1.0 is
# exact, so polevl gives the same bits).  P1/Q1 serve the tails up to x = 8,
# P2/Q2 beyond.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)

# values per pass of the inverse CDF: its temporaries stay in L2 and add
# little to a bulk draw's peak memory; any value gives the same bits
_NDTRI_SLICE = 1 << 13


def label_stream(label: str) -> int:
    """Map a text label to a stream id disjoint from row-index streams."""
    digest = blake2b(label.encode("utf-8"), digest_size=8).digest()
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


def _log(v):
    # numpy's float64 log differs from the C library's in the last bit on
    # some inputs; the real part of its complex log is the C library's
    return np.log(v + 0j).real


def _polevl(x, coef):
    # Cephes' polevl: one multiply, then one add, per coefficient
    acc = x * coef[0]
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _ndtri_slice(v):
    """Overwrite the 1-D float array `v`, values in [0, 1], with ndtri(v)."""
    upper = v > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - v, v)
    tail = np.flatnonzero(y <= _EXP_M2)
    # the central branch runs on every value, and the tails' are replaced
    t = y - 0.5
    t2 = t * t
    x = _polevl(t2, _P0)
    x *= t2
    x /= _polevl(t2, _Q0)
    x *= t
    x += t
    np.multiply(x, _S2PI, out=v)
    if not tail.size:
        return
    y = y[tail]
    # y = 0 (u = 0 or 1) takes log(0) and then inf / inf on its way to nan,
    # and is set to -inf or inf below, as in Cephes
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.sqrt(-2.0 * _log(y))
        x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = _polevl(z, _P1)
    x1 *= z
    x1 /= _polevl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        z = z[far]
        x1[far] = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x0 -= x1
    x0[y == 0.0] = np.inf
    np.negative(x0, out=x0, where=~upper[tail])
    v[tail] = x0


def ndtri(v):
    """Overwrite the C-contiguous float array `v`, values in [0, 1], with
    the inverse standard normal CDF of its values: Cephes' `ndtri` in
    numpy, with the same bits as `scipy.special.ndtri`."""
    flat = v.reshape(-1)
    for s in range(0, flat.size, _NDTRI_SLICE):
        _ndtri_slice(flat[s:s + _NDTRI_SLICE])


def _stream_uniforms(seed: int, stream_ids, count: int, transform=None) -> np.ndarray:
    """Uniform doubles in (0, 1), a C-contiguous (len(stream_ids), count) array.

    Row i is the first `count` values of stream (seed, stream_ids[i]);
    asking for fewer values returns a prefix of the same sequence.  The
    elementwise `transform`, if given, overwrites each chunk in place as it
    is written, so the result holds `transform(u)`.
    """
    stream_ids = np.asarray(stream_ids, dtype=np.uint64)
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
            # the top word's 1.0 becomes 1 - 2^-53, which no other word gives
            np.minimum(dest, 1.0 - 2.0 ** -53, out=dest)
            if transform is not None:
                # a chunk is whole rows or part of one row: C-contiguous
                transform(dest)
    return out


def normals(seed: int, stream: int, count: int) -> np.ndarray:
    """`count` standard normal doubles via the inverse CDF."""
    return _stream_uniforms(seed, [stream], count, ndtri)[0]


def normal_rows(seed: int, n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) standard normal matrix; row i comes from stream (seed, i)."""
    return _stream_uniforms(seed, np.arange(n_rows, dtype=np.uint64), n_cols, ndtri)
