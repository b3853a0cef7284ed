"""Unit tests of ``corrpca.reference``, the paper-literal steps that tests
elsewhere use as an oracle for ``fit``."""

import math

import numpy as np
import pytest

from corrpca.correntropy import all_underflowed
from corrpca.linalg import sym_evd
from corrpca.reference import (
    DeflationState,
    NumericalSingularityError,
    SingularDirectionError,
    build_deflated_operator,
    gaussian_kernel,
    power_iteration,
    residual_weights,
    woodbury_update,
)

DEMO_SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])


class TestPowerIteration:
    def test_dominant_axis(self):
        res = power_iteration(np.diag([3.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2), 1e-12, 500)
        assert res.converged
        assert np.allclose(np.abs(res.vector), [1.0, 0.0], atol=1e-6)

    def test_identity_fixed_point(self):
        v0 = np.array([0.6, 0.8])
        res = power_iteration(np.eye(2), v0, 1e-12, 10)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.vector, v0)

    def test_matches_evd_on_psd(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((5, 5))
        K = B @ B.T
        top = sym_evd(K).vectors[:, 0]
        v0 = rng.standard_normal(5)
        v0 /= np.linalg.norm(v0)
        res = power_iteration(K, v0, 1e-13, 5000)
        assert abs(float(res.vector @ top)) >= 1.0 - 1e-6

    def test_unit_norm_output(self):
        rng = np.random.default_rng(5)
        K = rng.standard_normal((4, 4))
        v0 = np.zeros(4)
        v0[0] = 1.0
        res = power_iteration(K, v0, 1e-10, 200)
        assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12

    def test_singular_direction(self):
        with pytest.raises(SingularDirectionError):
            power_iteration(np.zeros((2, 2)), np.array([1.0, 0.0]), 1e-10, 10)

    def test_rejects_non_unit_start(self):
        with pytest.raises(ValueError):
            power_iteration(np.eye(2), np.array([1.0, 1.0]), 1e-10, 10)

    def test_rejects_nan_start(self):
        with pytest.raises(ValueError, match="unit vector"):
            power_iteration(np.eye(3), np.array([np.nan, 0.0, 0.0]), 1e-10, 10)


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


class TestWoodburyUpdate:
    def test_identity_plus_rank_one(self):
        v = np.array([0.0, 1.0, 0.0])
        Q = woodbury_update(np.eye(3), v)
        assert np.allclose(Q, np.eye(3) - np.outer(v, v) / 2.0, atol=1e-14)

    def test_inverse_oracle(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        P = np.zeros((4, 4))
        Q = np.eye(4)
        for i in range(3):
            v = q[:, i]
            Q = woodbury_update(Q, v)
            P = P + np.outer(v, v)
            assert np.max(np.abs((np.eye(4) + P) @ Q - np.eye(4))) <= 1e-10

    def test_two_orthogonal_updates_analytic(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)))
        v1, v2 = q[:, 0], q[:, 1]
        Q = woodbury_update(woodbury_update(np.eye(5), v1), v2)
        expected = np.eye(5) - (np.outer(v1, v1) + np.outer(v2, v2)) / 2.0
        assert np.max(np.abs(Q - expected)) <= 1e-10

    def test_corrupted_state_detected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(NumericalSingularityError):
            woodbury_update(-np.eye(2), v)


class TestBuildDeflatedOperator:
    def test_empty_state_is_shifted_scatter(self):
        S = DEMO_SCATTER
        state = DeflationState.initial(3)
        K = build_deflated_operator(S, state)
        assert np.allclose(K, S + np.max(np.abs(np.diag(S))) * np.eye(3))

    def test_hand_computed_2x2(self):
        S = np.diag([4.0, 1.0])
        state = DeflationState.initial(2)
        state.add(np.array([1.0, 0.0]))
        K = build_deflated_operator(S, state)
        assert np.allclose(K, np.diag([0.0, 3.0]), atol=1e-12)
        assert np.allclose(sym_evd(K).vectors[:, 0], [0.0, 1.0])

    def test_found_component_stays_eigendirection(self):
        # with P = v v^T the pre-shift operator sends v to -(v^T S v)/2 v,
        # so v remains an eigenvector and never leaks into the complement
        rng = np.random.default_rng(2)
        B = rng.standard_normal((4, 4))
        S = B @ B.T
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v = q[:, 0]
        state = DeflationState.initial(4)
        state.add(v)
        K_pre = state.Q @ (S - state.P @ S - S @ state.P)
        expected = -0.5 * float(v @ S @ v) * v
        assert np.max(np.abs(K_pre @ v - expected)) <= 1e-8
        K = build_deflated_operator(S, state)
        leak = (np.eye(4) - state.P) @ (K @ v)
        assert np.max(np.abs(leak)) <= 1e-8
        # on the complement the operator acts as the compressed scatter
        for u in q[:, 1:].T:
            assert np.max(np.abs(K_pre @ u - (np.eye(4) - state.P) @ (S @ u))) <= 1e-8
