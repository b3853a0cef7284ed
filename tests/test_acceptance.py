"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Thresholds marked DERIVED were pinned from pilot Monte Carlo runs of this
pipeline (20 seeds, defaults) after the component operations were verified
against the brute-force oracles in the module tests.
"""

import time

import numpy as np
import pytest

import corrpca as cp
from corrpca.reference import DeflationState, gaussian_kernel, power_iteration, residual_weights, woodbury_update

DEMO_SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])
PUBLISHED_EIGVALS = np.array([10.40, 5.66, 1.94])
PUBLISHED_VECTORS = np.array(
    [
        [-0.78, 0.51, 0.37],
        [-0.49, -0.11, -0.87],
        [0.40, 0.85, -0.33],
    ]
)

N_SEEDS = 20

# DERIVED (pilot over 20 seeds, 5% outliers, nu=15): MCPI medians were
# ~[0.998, 0.995, 0.999] vs PCA's ~[0.954, 0.879, 0.897].
OUTLIER_MCPI_MEDIAN_FLOOR = 0.95


def _report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _alignment_to_truth(V_est, V_true):
    return cp.component_alignment(V_est, V_true).per_component_abs_cos


def test_criterion_1_eigendecomposition_fidelity():
    pairs = cp.sym_evd(DEMO_SCATTER)
    values_ok = bool(np.all(np.abs(pairs.values - PUBLISHED_EIGVALS) <= 0.01))
    cos = np.abs(np.sum(pairs.vectors * (PUBLISHED_VECTORS / np.linalg.norm(PUBLISHED_VECTORS, axis=0)), axis=0))
    vectors_ok = bool(np.all(cos >= 0.999))
    times = []  # best of 10 runs
    for _ in range(10):
        t0 = time.perf_counter()
        cp.sym_evd(DEMO_SCATTER)
        times.append(time.perf_counter() - t0)
    runtime_ok = min(times) < 1e-3
    _report(1, "eigendecomposition fidelity", values_ok and vectors_ok and runtime_ok)


def test_criterion_2_clean_data_agreement():
    t0 = time.perf_counter()
    cfg = cp.MCPIConfig()
    agree = np.empty((N_SEEDS, 3))
    for r in range(N_SEEDS):
        spec = cp.ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, seed=r)
        X, _ = cp.generate_experiment(spec)
        V_m = cp.fit(X, cfg).components
        V_p = cp.standard_pca(X).components
        agree[r] = cp.component_alignment(V_m, V_p).per_component_abs_cos
    elapsed = time.perf_counter() - t0
    medians = np.median(agree, axis=0)
    ok = bool(np.all(medians >= 0.99)) and elapsed < 60.0
    print(f"  clean MCPI-vs-PCA medians: {medians}, elapsed {elapsed:.1f}s")
    _report(2, "clean-data agreement", ok)


def test_criterion_3_outlier_robustness():
    t0 = time.perf_counter()
    cfg = cp.MCPIConfig()
    V_true = cp.sym_evd(DEMO_SCATTER).vectors
    mcpi_sc = np.empty((N_SEEDS, 3))
    pca_sc = np.empty((N_SEEDS, 3))
    for r in range(N_SEEDS):
        spec = cp.ExperimentSpec(
            n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05, nu=15.0, seed=r
        )
        X, _ = cp.generate_experiment(spec)
        mcpi_sc[r] = _alignment_to_truth(cp.fit(X, cfg).components, V_true)
        pca_sc[r] = _alignment_to_truth(cp.standard_pca(X).components, V_true)
    elapsed = time.perf_counter() - t0
    m_med = np.median(mcpi_sc, axis=0)
    p_med = np.median(pca_sc, axis=0)
    print(f"  outlier medians MCPI {m_med} vs PCA {p_med}, elapsed {elapsed:.1f}s")
    ok = (
        bool(m_med[0] > p_med[0])
        and bool(m_med[1] > p_med[1])
        and bool(np.all(m_med >= 0.90))
        and bool(np.all(m_med >= OUTLIER_MCPI_MEDIAN_FLOOR))
        and elapsed < 300.0
    )
    _report(3, "outlier robustness", ok)


def test_criterion_4_large_sigma_pca_reduction():
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(10):
        p = [2, 3, 5][trial % 3]
        B = rng.standard_normal((p, p))
        scatter = B @ B.T + p * np.eye(p)
        spec = cp.ExperimentSpec(n=40 * p, p=p, scatter=scatter, seed=1000 + trial)
        X = cp.sample_mvn(spec)
        sigma = 1e6 * float(np.max(np.linalg.norm(X, axis=1)))
        res = cp.fit(X, cp.MCPIConfig(sigma0=sigma))
        base = cp.standard_pca(X)
        cos = np.abs(np.sum(res.components * base.components, axis=0))
        ok = ok and bool(np.all(cos >= 1.0 - 1e-4))
    _report(4, "large-sigma PCA reduction", ok)


def test_criterion_5_woodbury_identity_suite():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        p = int(rng.integers(2, 11))
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        k = int(rng.integers(1, p))
        P = np.zeros((p, p))
        Q = np.eye(p)
        for i in range(k):
            v = q[:, i]
            Q = woodbury_update(Q, v)
            P = P + np.outer(v, v)
            dev = np.max(np.abs((np.eye(p) + P) @ Q - np.eye(p)))
            ok = ok and dev <= 1e-10
    _report(5, "Woodbury identity suite", ok)


def test_criterion_6_structural_invariants():
    cfg = cp.MCPIConfig()
    spec = cp.ExperimentSpec(n=200, p=3, scatter=DEMO_SCATTER, seed=60)
    X = cp.sample_mvn(spec)

    res1 = cp.fit(X, cfg)
    res2 = cp.fit(X, cfg)
    V = res1.components
    orth_ok = np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-6
    det_ok = res1.components.tobytes() == res2.components.tobytes()

    # DeflationState invariants after every component
    state = DeflationState.initial(3)
    state_ok = True
    for i in range(3):
        state.add(V[:, i])
        P, Q = state.P, state.Q
        state_ok = state_ok and np.max(np.abs(P @ P - P)) <= 1e-8
        state_ok = state_ok and np.max(np.abs((np.eye(3) + P) @ Q - np.eye(3))) <= 1e-8
        comps = np.column_stack(state.components)
        state_ok = state_ok and np.max(np.abs(comps.T @ comps - np.eye(i + 1))) <= 1e-8
        recon = sum(np.outer(c, c) for c in state.components)
        state_ok = state_ok and np.max(np.abs(P - recon)) <= 1e-10

    # shift invariance of dominant eigenvectors on 50 random symmetric matrices
    rng = np.random.default_rng(66)
    shift_ok = True
    for _ in range(50):
        p = int(rng.integers(2, 7))
        # random spectrum with an enforced dominant gap for a well-posed check
        vals = np.sort(rng.uniform(-5.0, 5.0, p))[::-1]
        vals[0] = vals[1] + max(0.5, vals[0] - vals[1])
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        K = q @ np.diag(vals) @ q.T
        theta = float(np.sum(np.abs(K)))  # dominates |lambda_min|, keeps order
        shifted = K + theta * np.eye(p)
        top_unshifted = cp.sym_evd(K).vectors[:, 0]
        top_shifted = cp.sym_evd(shifted).vectors[:, 0]
        v0 = np.zeros(p)
        v0[0] = 1.0
        if abs(float(v0 @ top_shifted)) < 1e-3:
            v0 = np.ones(p) / np.sqrt(p)
        pi = power_iteration(shifted, v0, 1e-13, 20000).vector
        shift_ok = shift_ok and abs(float(top_unshifted @ top_shifted)) >= 1.0 - 1e-8
        shift_ok = shift_ok and abs(float(pi @ top_shifted)) >= 1.0 - 1e-6
    _report(6, "structural invariants", orth_ok and det_ok and state_ok and shift_ok)


def test_criterion_7_oracle_equivalence_micro():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        X = rng.standard_normal((5, 3)) * rng.uniform(0.5, 3.0)
        w = rng.uniform(0.0, 1.0, 5)
        sigma = rng.uniform(0.3, 4.0)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        R = np.eye(3) - np.outer(v, v)

        # weighted_scatter vs triple loop
        S = cp.weighted_scatter(X, w)
        S_naive = np.zeros((3, 3))
        for k in range(5):
            for i in range(3):
                for j in range(3):
                    S_naive[i, j] += w[k] * X[k, i] * X[k, j]
        ok = ok and np.max(np.abs(S - S_naive)) <= 1e-10

        # residual_weights vs per-row kernel
        wts = residual_weights(X, R, sigma)
        wts_naive = np.array([gaussian_kernel(R @ x, sigma) for x in X])
        ok = ok and np.max(np.abs(wts - wts_naive)) <= 1e-10

        # reconstruction_error vs per-row loop
        V = np.column_stack([v])
        err = cp.reconstruction_error(X, V)
        err_naive = sum(float(np.linalg.norm(R @ x) ** 2) for x in X)
        ok = ok and abs(err - err_naive) <= 1e-10
    _report(7, "micro-scale oracle equivalence", ok)
