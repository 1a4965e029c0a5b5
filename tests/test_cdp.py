import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prbench.cdp as cdp
from prbench import rng as prng
from prbench.solvers import Method, Status


@pytest.fixture(scope="module")
def small_setup():
    masks = cdp.sample_masks((16,), 4, seed=2)
    rng = np.random.default_rng(0)
    z_star = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    y = cdp.cdp_observe(z_star, masks)
    return masks, z_star, y


class TestMasks:
    def test_regeneration_bit_identical(self):
        a = cdp.sample_masks((8, 8), 3, seed=5)
        b = cdp.sample_masks((8, 8), 3, seed=5)
        assert np.array_equal(a, b)

    def test_octanary_values(self):
        masks = cdp.sample_masks((64,), 2, seed=1)
        mods = np.abs(masks)
        assert np.all(
            np.isclose(mods, math.sqrt(2) / 2) | np.isclose(mods, math.sqrt(3))
        )
        phases = masks / mods
        assert np.all(
            np.isclose(phases, 1) | np.isclose(phases, -1)
            | np.isclose(phases, 1j) | np.isclose(phases, -1j)
        )

    def test_distinct_masks(self):
        masks = cdp.sample_masks((32,), 2, seed=1)
        assert not np.array_equal(masks[0], masks[1])


class TestBatchedOperator:
    """The batched transforms against a per-mask reference, bit for bit."""

    @pytest.fixture(params=[(16,), (4, 6)], ids=["1d", "2d"])
    def setup(self, request):
        shape = request.param
        masks = cdp.sample_masks(shape, 3, seed=7)
        rng = np.random.default_rng(1)
        n = math.prod(shape)
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).reshape(shape)
        w = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))).reshape(masks.shape)
        return masks, z, w

    def test_forward_matches_per_mask_fft(self, setup):
        masks, z, _ = setup
        expected = np.array([
            np.fft.fftn(d * z, norm="ortho")
            for d in masks
        ])
        before = cdp.fft_call_count()
        out = cdp._forward(z, masks)
        assert cdp.fft_call_count() - before == len(masks)
        assert np.array_equal(out, expected)

    def test_adjoint_matches_per_mask_ifft_in_mask_order(self, setup):
        masks, _, w = setup
        expected = np.zeros(masks.shape[1:], dtype=complex)
        for d, block in zip(masks, w):
            expected += np.conj(d) * np.fft.ifftn(block, norm="ortho")
        before = cdp.fft_call_count()
        out = cdp._adjoint(w, masks)
        assert cdp.fft_call_count() - before == len(masks)
        assert np.array_equal(out, expected)

    def test_masks_match_per_mask_draws(self, setup):
        masks, _, _ = setup
        n = masks[0].size
        for ell, d in enumerate(masks):
            u = prng.uniforms(7, prng.label_stream(f"cdp-mask-{ell}"), 2 * n)
            b1 = np.array([1.0, 1.0j, -1.0, -1.0j])[np.floor(4.0 * u[:n]).astype(int)]
            b2 = np.where(u[n:] < 0.8, math.sqrt(2.0) / 2.0, math.sqrt(3.0))
            assert np.array_equal(d, (b1 * b2).reshape(d.shape))


class TestObserve:
    def test_zero_signal(self, small_setup):
        masks, _, _ = small_setup
        assert np.array_equal(cdp.cdp_observe(np.zeros(16), masks), np.zeros((4, 16)))

    def test_parseval_per_block(self, small_setup):
        masks, z_star, y = small_setup
        for ell in range(len(masks)):
            block = y[ell]
            assert block.sum() == pytest.approx(
                np.linalg.norm(masks[ell] * z_star) ** 2, rel=1e-12
            )

    @given(theta=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=20, deadline=None)
    def test_global_phase_invariance(self, theta, small_setup):
        masks, z_star, y = small_setup
        rotated = cdp.cdp_observe(np.exp(1j * theta) * z_star, masks)
        assert np.allclose(rotated, y, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch(self, small_setup):
        masks, _, _ = small_setup
        with pytest.raises(ValueError):
            cdp.cdp_observe(np.zeros(15), masks)


class TestGradient:
    def test_zero_at_truth(self, small_setup):
        masks, z_star, y = small_setup
        assert np.linalg.norm(cdp.cdp_gradient(z_star, y, masks)) == 0.0

    def test_finite_differences_real_imag(self, small_setup):
        masks, z_star, y = small_setup
        rng = np.random.default_rng(3)
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        m = 4 * 16

        def f(zz):
            r = (cdp.cdp_observe(zz, masks) - y).ravel()
            return float(r @ r) / (4 * m)

        h = 1e-5 * (1 + np.linalg.norm(z))
        fd = np.zeros(16, dtype=complex)
        for i in range(16):
            e = np.zeros(16)
            e[i] = h
            fd[i] = (f(z + e) - f(z - e)) / (2 * h) + 1j * (
                f(z + 1j * e) - f(z - 1j * e)
            ) / (2 * h)
        g = cdp.cdp_gradient(z, y, masks)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6

    def test_single_ones_mask_matches_real_formula(self):
        # n = 1 with an all-ones mask degenerates to the scalar gradient
        masks = np.ones((1, 1), dtype=complex)
        y = np.array([[1.0]])
        g = cdp.cdp_gradient(np.array([2.0 + 0j]), y, masks)
        assert g == pytest.approx([6.0 + 0j])


class TestPhaseAlignedError:
    def test_zero_for_any_global_phase(self, small_setup):
        _, z_star, _ = small_setup
        for phi in (0.0, 0.7, math.pi / 2, 3.0):
            assert cdp.phase_aligned_rel_err(np.exp(1j * phi) * z_star, z_star) == (
                pytest.approx(0.0, abs=1e-12)
            )

    def test_scale(self, small_setup):
        _, z_star, _ = small_setup
        assert cdp.phase_aligned_rel_err(np.zeros(16), z_star) == pytest.approx(1.0)


class TestCdpRun:
    def test_zero_iters_records_init_error(self):
        img = cdp.synthetic_image(8, 8)
        trace = cdp.cdp_run(cdp.cdp_problem(img, 4, seed=0), Method.GD, 0)
        assert trace.rel_err.shape == (1,)
        assert trace.status is Status.MAX_ITERS

    def test_deterministic(self):
        img = cdp.synthetic_image(8, 8)
        a = cdp.cdp_run(cdp.cdp_problem(img, 4, seed=1), Method.POLYAK, 10)
        b = cdp.cdp_run(cdp.cdp_problem(img, 4, seed=1), Method.POLYAK, 10)
        assert np.array_equal(a.rel_err, b.rel_err)

    def test_fft_parity_across_methods(self):
        img = cdp.synthetic_image(8, 8)
        problem = cdp.cdp_problem(img, 4, seed=0)
        per_iter = {}
        for method in Method:
            trace = cdp.cdp_run(problem, method, 6)
            assert set(trace.fft_calls_per_iter) == {2 * 4}
            per_iter[method] = trace.fft_calls_per_iter
        assert per_iter[Method.GD] == per_iter[Method.POLYAK] == per_iter[Method.NESTEROV]

    def test_accelerated_below_gd(self):
        img = cdp.synthetic_image(16, 16)
        problem = cdp.cdp_problem(img, 8, seed=0)
        finals = {method: cdp.cdp_run(problem, method, 60).rel_err[-1] for method in Method}
        assert finals[Method.POLYAK] < finals[Method.GD]
        assert finals[Method.NESTEROV] < finals[Method.GD]

    def test_rejects_oversized_image(self):
        with pytest.raises(ValueError):
            cdp.cdp_problem(np.zeros((300, 300)), 4, seed=0)


def test_spectral_init_scaling(small_setup):
    masks, z_star, y = small_setup
    rep = cdp.cdp_spectral_init(masks, y, seed=2)
    assert np.linalg.norm(rep.x0) == pytest.approx(
        math.sqrt(y.sum() / len(masks)), rel=1e-12
    )
    assert rep.lambda1 > 0
