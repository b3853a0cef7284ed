import math

import numpy as np
import pytest

from corrpca.correntropy import all_underflowed, rank_one_weights, weighted_scatter
from corrpca.linalg import sym_evd
from corrpca import mcpi
from corrpca.mcpi import MCPIConfig
from corrpca.reference import gaussian_kernel, residual_weights


class TestGaussianKernel:
    def test_zero_error(self):
        assert gaussian_kernel(np.zeros(3), 2.0) == 1.0

    def test_analytic_exp_minus_one(self):
        # ||e||^2 = 2 sigma^2
        sigma = 1.7
        e = np.array([sigma * math.sqrt(2.0), 0.0])
        assert gaussian_kernel(e, sigma) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_analytic_3_4_5(self):
        assert gaussian_kernel(np.array([3.0, 4.0]), 5.0) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    def test_range_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = rng.standard_normal(4) * rng.uniform(0.1, 10)
            sigma = rng.uniform(0.1, 5)
            k = gaussian_kernel(e, sigma)
            assert 0.0 <= k <= 1.0
            if float(e @ e) / (2 * sigma * sigma) < 700:  # no exp underflow
                assert k > 0.0
            assert gaussian_kernel(1.5 * e, sigma) <= k

    def test_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, np.inf, np.nan, "1", True):
            with pytest.raises(ValueError):
                gaussian_kernel(np.ones(2), sigma)


class TestResidualWeights:
    def test_zero_residual_operator(self):
        X = np.random.default_rng(1).standard_normal((7, 3))
        w = residual_weights(X, np.zeros((3, 3)), 1.0)
        assert np.array_equal(w, np.ones(7))

    def test_identity_operator_equal_norms(self):
        c = 2.0
        X = np.array([[c, 0.0], [0.0, c], [-c, 0.0]])
        sigma = 1.3
        w = residual_weights(X, np.eye(2), sigma)
        assert np.allclose(w, math.exp(-c * c / (2 * sigma * sigma)))

    def test_matches_row_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 4))
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        R = np.eye(4) - np.outer(v, v)
        sigma = 0.9
        w = residual_weights(X, R, sigma)
        expected = np.array([gaussian_kernel(R @ x, sigma) for x in X])
        assert np.max(np.abs(w - expected)) <= 1e-14

    def test_large_sigma_all_ones(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 3)) * 4.0
        sigma = 1e6 * np.max(np.linalg.norm(X, axis=1))
        w = residual_weights(X, np.eye(3), sigma)
        assert np.max(np.abs(w - 1.0)) <= 1e-9

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((15, 3))
        R = np.eye(3) - 0.3 * np.ones((3, 3)) / 3
        w1 = residual_weights(X, R, 0.7)
        w2 = residual_weights(5.0 * X, R, 5.0 * 0.7)
        assert np.max(np.abs(w1 - w2)) <= 1e-12

    def test_underflow_detection(self):
        X = np.full((5, 2), 100.0)
        w = residual_weights(X, np.eye(2), 1e-3)
        assert all_underflowed(w)
        assert not all_underflowed(np.array([0.0, 1e-200]))


class TestRankOneWeights:
    def test_matches_residual_weights(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((50, 4))
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        e = np.einsum("ij,ij->i", Y, Y)
        w = rank_one_weights(e, Y @ u, 0.9)
        expected = residual_weights(Y, np.eye(4) - np.outer(u, u), 0.9)
        np.testing.assert_allclose(w, expected, rtol=1e-12, atol=0.0)

    def test_rows_parallel_to_u_stay_in_unit_interval(self):
        # for this u, e - t^2 of every row c u rounds below zero; unclamped,
        # sigma = 1e-8 would turn that into a weight of about e^53
        rng = np.random.default_rng(9)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        Y = np.outer(np.linspace(1.0, 5.0, 9), u)
        e = np.einsum("ij,ij->i", Y, Y)
        t = Y @ u
        below = e - t * t < 0.0
        assert np.any(below)
        w = rank_one_weights(e, t, 1e-8)
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        assert np.all(w[below] == 1.0)

    def test_bit_identical_to_clamped_formula(self):
        # rows 0-8 are parallel to u; for this u, e - t^2 of some of them
        # rounds below 0 (the clamp applies) and of some to exactly 0
        rng = np.random.default_rng(13)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        Y = np.vstack([np.outer(np.linspace(1.0, 5.0, 9), u), rng.standard_normal((40, 3))])
        e = np.einsum("ij,ij->i", Y, Y)
        t = Y @ u
        d = e - t * t
        assert np.any(d < 0.0) and np.any(d == 0.0) and np.any(d > 0.0)
        for sigma in (1e-8, 0.3, 2.0, 1e3):
            expected = np.exp(-np.maximum(d, 0.0) / (2.0 * sigma * sigma))
            assert rank_one_weights(e, t, sigma).tobytes() == expected.tobytes()

    def test_rejects_bad_sigma(self):
        for sigma in (0.0, "1", True):
            with pytest.raises(ValueError):
                rank_one_weights(np.ones(2), np.zeros(2), sigma)

    def test_out_buffer_gives_same_bits(self):
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((60, 3))
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        e = np.einsum("ij,ij->i", Y, Y)
        for sigma in (1e-8, 0.3, 2.0):
            expected = rank_one_weights(e, Y @ u, sigma).tobytes()
            out = np.full(60, np.nan)
            assert rank_one_weights(e, Y @ u, sigma, out=out) is out
            assert out.tobytes() == expected
            t = Y @ u  # the projections themselves as the buffer
            assert rank_one_weights(e, t, sigma, out=t) is t
            assert t.tobytes() == expected


def stops_at_floor(Y, sigma, u):
    """Whether a one-step schedule from u at this sigma reports underflow.
    Some row of Y has e - t^2 <= 0 at u, so its weight on that step is
    exactly 1 and only the kernel-size floor can stop the schedule."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mcpi, "OUTER_MAX_ITER", 1)
        return mcpi._shrinking_rounds(Y, [], u, MCPIConfig(n_decay=1, sigma0=sigma))[1].sigma_underflow


class TestExponentOverflows:
    """The floor 2 sigma^2 <= eps max e that ends a kernel schedule covers
    every sigma at which the weights' exponents overflow or 2 sigma^2 is 0."""

    def test_zero_and_overflowing_scale(self):
        Y, u = np.diag([10.0, 1.0]), np.array([1.0, 0.0])  # max e = 100
        assert stops_at_floor(Y, 1e-170, u)  # 2 sigma^2 is 0
        assert stops_at_floor(Y, 1e-155, u)  # 100 / 2 sigma^2 overflows
        assert stops_at_floor(Y, 1e-150, u)
        assert stops_at_floor(Y, 1e-7, u)  # 2 sigma^2 = 2e-14 <= eps * 100
        assert not stops_at_floor(Y, 1.1e-7, u)
        assert not stops_at_floor(Y, 1.0, u)

    def test_weights_finite_whenever_not_flagged(self):
        # sigma sweeps down across the floor, through the band where
        # 2 sigma^2 is subnormal and then 0; rows 0-8 are parallel to u, so
        # their exponents are (about) 0.  Pytest turns the RuntimeWarning of
        # an overflowing or 0/0 division into an error, so every unflagged
        # sigma must form its weights silently.
        rng = np.random.default_rng(13)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        Y = np.vstack([np.outer(np.linspace(1.0, 5.0, 9), u), 30.0 * rng.standard_normal((40, 3))])
        e = np.einsum("ij,ij->i", Y, Y)
        t = Y @ u
        sigmas = np.geomspace(1.0, 1e-170, 341)
        flags = [stops_at_floor(Y, sigma, u) for sigma in sigmas]
        assert flags == sorted(flags)  # once flagged, every smaller sigma is too
        assert 0 < sum(flags) < len(flags)
        for sigma in sigmas[~np.array(flags)]:
            w = rank_one_weights(e, t, sigma)
            assert np.all((w >= 0.0) & (w <= 1.0))


class TestWeightedScatter:
    def test_unweighted_is_gram(self):
        X = np.random.default_rng(5).standard_normal((9, 3))
        assert np.allclose(weighted_scatter(X, np.ones(9)), X.T @ X, atol=1e-12)

    def test_rank_one(self):
        x = np.array([1.0, -2.0, 0.5])
        S = weighted_scatter(x[None, :], np.array([0.3]))
        assert np.allclose(S, 0.3 * np.outer(x, x))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 2))
        w = rng.uniform(0.0, 1.0, 3)
        S = weighted_scatter(X, w)
        expected = np.zeros((2, 2))
        for k in range(3):
            for i in range(2):
                for j in range(2):
                    expected[i, j] += w[k] * X[k, i] * X[k, j]
        assert np.max(np.abs(S - expected)) <= 1e-12

    def test_symmetric_psd(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 4))
        w = rng.uniform(0.0, 1.0, 30)
        S = weighted_scatter(X, w)
        assert np.max(np.abs(S - S.T)) <= 1e-12
        vals = sym_evd(S).values
        assert np.all(vals >= -1e-9 * np.trace(S))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_scatter(np.ones((4, 2)), np.ones(3))
        with pytest.raises(ValueError):
            weighted_scatter(np.ones((4, 2)), np.ones(3), out=np.empty((4, 2)))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_out_buffer_gives_same_bits(self, order):
        rng = np.random.default_rng(15)
        X = np.asarray(rng.standard_normal((400, 3)), order=order)
        w = rng.uniform(0.0, 1.0, 400)
        out = np.full(X.shape, np.nan, order=order)
        S = weighted_scatter(X, w, out=out)
        assert S.tobytes() == weighted_scatter(X, w).tobytes()
        assert out.tobytes() == (w[:, None] * X).tobytes()
