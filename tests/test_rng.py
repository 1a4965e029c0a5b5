import hashlib
import math
import tracemalloc

import numpy as np
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from prbench import cdp, rng


def uniforms(seed, stream, count):
    return rng._stream_uniforms(seed, [stream], count)[0]


def test_uniforms_deterministic():
    a = uniforms(7, 3, 100)
    b = uniforms(7, 3, 100)
    assert np.array_equal(a, b)


def test_uniforms_in_open_unit_interval():
    u = uniforms(0, 0, 10_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_prefix_property():
    long = uniforms(11, 5, 64)
    short = uniforms(11, 5, 17)
    assert np.array_equal(long[:17], short)


def test_streams_disjoint():
    a = uniforms(1, 0, 50)
    b = uniforms(1, 1, 50)
    assert not np.array_equal(a, b)


def test_seeds_disjoint():
    a = uniforms(1, 0, 50)
    b = uniforms(2, 0, 50)
    assert not np.array_equal(a, b)


def test_normal_rows_matches_per_stream_draws():
    # an odd width drops each row's last word and keeps the rows contiguous
    mat = rng.normal_rows(9, 1000, 7)
    assert mat.shape == (1000, 7) and mat.flags.c_contiguous
    for i in range(1000):
        assert np.array_equal(mat[i], rng.normals(9, i, 7))


def test_label_stream_stable_and_high():
    # the package's named streams keep their ids: every auxiliary draw
    # (sphere points, power-iteration and random starts, CDP masks) depends
    # on them, while the pinned bench ensemble uses row-index streams only
    pinned = {
        "unit-sphere": 14747963221401314358,
        "power-iteration": 15912094053420908246,
        "random-init": 12060786897151602780,
        "cdp-power": 10003625933506262731,
        "cdp-mask-0": 14870648569582196210,
    }
    assert {label: rng.label_stream(label) for label in pinned} == pinned
    assert rng.label_stream("power-iteration") >= 1 << 63
    assert rng.label_stream("a") != rng.label_stream("b")


def test_chunking_invariance(monkeypatch):
    # at 64 lanes sixteen 7-wide rows share a chunk and a 301-wide row spans
    # three; at the default budget each row fits one chunk
    full = rng.normal_rows(13, 1000, 7)
    wide = rng.normal_rows(13, 3, 301)
    monkeypatch.setattr(rng, "_LANE_BUDGET", 64)
    chunked = rng.normal_rows(13, 1000, 7)
    assert chunked.flags.c_contiguous and np.array_equal(full, chunked)
    assert np.array_equal(wide, rng.normal_rows(13, 3, 301))


def test_bench_ensemble_pinned():
    # the headtohead bench's ensemble: a refactor of the sampler keeps every bit
    mat = rng.normal_rows(0, 14196, 256)
    assert hashlib.sha256(mat.tobytes()).hexdigest() == (
        "5ce12e316dcc855b11a66e1317d8fbfbf34b8f49efd10ebb8b3130ace05e890b")


def test_masks_chunking_invariance(monkeypatch):
    # each mask's 240 uniforms span two 64-lane chunks
    full = cdp.sample_masks((12, 10), 5, 3)
    monkeypatch.setattr(rng, "_LANE_BUDGET", 64)
    assert np.array_equal(full, cdp.sample_masks((12, 10), 5, 3))


def test_normal_rows_peak_memory():
    # beside the result sit only the chunk's buffers (nine uint64 words a
    # lane) and three uint64 id arrays (a word each a row), with room left for
    # numpy's cast buffers; at the bench's headtohead shape the bound is 1.09x
    # the result (the peak is 1.06x), and a chunk as large as the ensemble
    # fails the second check
    n_rows, n_cols = 14196, 256
    tracemalloc.start()
    try:
        mat = rng.normal_rows(0, n_rows, n_cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= mat.nbytes + 128 * rng._LANE_BUDGET + 32 * n_rows
    assert peak <= 1.25 * mat.nbytes


def test_top_word_gives_finite_draws(monkeypatch):
    # a cipher output of all ones is the top 53-bit word, whose uniform
    # (2^53 - 1/2) 2^-53 rounds up to 1.0: it is clamped to 1 - 2^-53, so its
    # normal is finite and its mask draw picks the last quarter turn
    def all_ones(c0, c1, c2, c3, *_):
        for c in (c0, c1, c2, c3):
            c.fill(0xFFFFFFFF)

    monkeypatch.setattr(rng, "_philox10", all_ones)
    u = uniforms(0, 0, 5)
    assert np.all(u == 1.0 - 2.0 ** -53)
    assert np.all(np.isfinite(rng.normals(0, 0, 5)))
    masks = cdp.sample_masks((2, 3), 2, 0)
    assert np.array_equal(masks, np.full((2, 2, 3), -1.0j * math.sqrt(3.0)))


def test_normal_moments():
    z = rng.normals(123, 0, 200_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       stream=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_any_seed_stream_valid(seed, stream):
    u = uniforms(seed, stream, 8)
    assert u.shape == (8,)
    assert np.all((u > 0) & (u < 1))


def _grid(ks):
    # the sampler's uniforms (k + 1/2) 2^-53 before its clamp: the top one
    # rounds up to 1.0, which ndtri maps to inf
    return (np.asarray(ks, dtype=float) + 0.5) * 2.0 ** -53


def test_ndtri_matches_scipy_bit_for_bit():
    # Philox draws; the x >= 8 tail (k < 114); the top of the grid; both
    # branch boundaries and their neighbours; and u = 1.0, which gives inf
    k = np.arange(200)
    edges = []
    for edge in (rng._EXP_M2, 1.0 - rng._EXP_M2):
        below = above = edge
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            edges += [below, above]
        edges.append(edge)
    inputs = [
        rng._stream_uniforms(5, np.arange(4096), 256).reshape(-1),
        _grid(k),
        _grid(2**53 - 200 + k),
        np.array(edges + [0.5, 1.0]),
    ]
    assert inputs[0].size >= 10**6 and inputs[2][-1] == 1.0
    for u in inputs:
        ours = u.copy()
        rng.ndtri(ours)
        assert np.array_equal(ours.view(np.int64), scipy.special.ndtri(u).view(np.int64))
    assert ours[-1] == math.inf


def test_complex_log_is_libm_log():
    # ndtri takes every log from numpy's complex log, whose real part is the
    # C library's log on the ranges it sees: y in (0, e^-2] and x in [2, 9]
    u = rng._stream_uniforms(6, np.arange(100), 2000).reshape(-1)
    y = np.concatenate([
        np.minimum(u, 1.0 - u), _grid(np.arange(1000)),
        np.geomspace(2.0 ** -54, rng._EXP_M2, 20_000),
    ])
    y = y[y <= rng._EXP_M2]
    x = np.concatenate([
        [math.sqrt(-2.0 * math.log(value)) for value in y], np.linspace(2.0, 9.0, 20_001),
    ])
    for v in (y, x):
        assert np.array_equal(rng._log(v), [math.log(value) for value in v])
