from dataclasses import replace

import numpy as np
import pytest

from corrpca.datagen import ExperimentSpec, generate_experiment, sample_mvn
from corrpca.correntropy import residual_weights, weighted_scatter
from corrpca import mcpi
from corrpca.linalg import fix_sign, orthogonalize_against, power_iteration, sym_evd
from corrpca.mcpi import (
    DeflationState,
    DegenerateInputError,
    MCPIConfig,
    NumericalSingularityError,
    SigmaTooSmallError,
    build_deflated_operator,
    fit,
    mcpi_ith_component,
    standard_pca,
    woodbury_update,
)

DEMO_SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])


def clean_data(n=400, seed=0, scatter=DEMO_SCATTER):
    spec = ExperimentSpec(n=n, p=scatter.shape[0], scatter=scatter, seed=seed)
    return sample_mvn(spec)


def huge_sigma(X):
    return 1e6 * float(np.max(np.linalg.norm(X, axis=1)))


def abs_cos(u, v):
    return abs(float(u @ v))


def axis_rows(seed=0):
    """30 rows along each coordinate axis, scaled 3, 2, 1: every fixed point
    is an axis exactly, so rows along it have squared residual exactly 0."""
    rng = np.random.default_rng(seed)
    X = np.vstack([np.outer(rng.uniform(2.0, 3.0, 30), e) for e in np.eye(3)])
    return X * np.repeat([3.0, 2.0, 1.0], 30)[:, None]


def every_round_reference(X, cfg, early_tol=None):
    """Per-round reference for ``fit``: each decay round is one
    ``mcpi_ith_component`` call started at the previous round's (signed)
    result.  Rounds before the last run to ``early_tol`` (``outer_tol`` when
    None), the last to ``outer_tol``.  Returns the iterated components as
    columns, the summed outer iterations and the number of rounds whose
    result has the opposite sign of the vector it started from."""
    pairs = sym_evd(X.T @ X / X.shape[0])
    components, outer, flips = [], 0, 0
    for i in range(X.shape[1] - 1):
        v, sigma = pairs.vectors[:, i], float(np.sqrt(X.shape[0] * pairs.values[i]))
        for r in range(cfg.n_decay):
            tol = cfg.outer_tol if early_tol is None or r == cfg.n_decay - 1 else early_tol
            v_next, diag = mcpi_ith_component(X, components, sigma, v, replace(cfg, outer_tol=tol))
            outer += diag.outer_iterations
            flips += float(v_next @ v) < 0.0
            v = v_next
            sigma *= cfg.eta
        components.append(v)
    return np.column_stack(components), outer, flips


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


class TestFirstComponent:
    def test_single_direction_data(self):
        c = 3.0
        X = np.array([[c, 0.0], [-c, 0.0], [c, 0.0], [-c, 0.0]])
        v0 = np.array([1.0, 1.0]) / np.sqrt(2)
        v, diag = mcpi_ith_component(X, [], 1.0, v0, MCPIConfig())
        assert diag.converged
        assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-8)

    def test_large_sigma_reduces_to_pca(self):
        X = clean_data(seed=3)
        top = sym_evd(X.T @ X).vectors[:, 0]
        v0 = np.array([1.0, 0.0, 0.0])
        v, diag = mcpi_ith_component(X, [], huge_sigma(X), v0, MCPIConfig())
        assert diag.converged
        assert abs_cos(v, top) >= 1.0 - 1e-6

    def test_sign_fixed_and_unit(self):
        X = clean_data(seed=4)
        v, _ = mcpi_ith_component(X, [], 5.0, np.array([0.0, 1.0, 0.0]), MCPIConfig())
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[np.argmax(np.abs(v))] > 0


class TestIthComponent:
    def test_large_sigma_second_eigenvector(self):
        X = clean_data(seed=6)
        pairs = sym_evd(X.T @ X)
        v0 = pairs.vectors[:, 1]
        v, diag = mcpi_ith_component(X, [pairs.vectors[:, 0]], huge_sigma(X), v0, MCPIConfig())
        assert diag.converged
        assert abs_cos(v, pairs.vectors[:, 1]) >= 1.0 - 1e-4

    def test_orthogonal_to_prior_components(self):
        X = clean_data(seed=7)
        pairs = sym_evd(X.T @ X)
        prior = pairs.vectors[:, 0]
        v, _ = mcpi_ith_component(X, [prior], 2.0, pairs.vectors[:, 1], MCPIConfig())
        assert abs_cos(v, prior) <= 1e-8

    def test_tiny_sigma_raises_underflow(self):
        with pytest.raises(SigmaTooSmallError):
            mcpi_ith_component(axis_rows(), [], 1e-170, np.array([1.0, 0.0, 0.0]), MCPIConfig())

    def test_underflow_carries_direction_in_original_coordinates(self):
        X = clean_data(seed=7)
        pairs = sym_evd(X.T @ X)
        prior = pairs.vectors[:, 0]
        v0 = np.ones(3) / np.sqrt(3.0)
        with pytest.raises(SigmaTooSmallError) as err:
            mcpi_ith_component(X, [prior], 1e-6, v0, MCPIConfig())
        assert np.max(np.abs(err.value.last_valid - orthogonalize_against(v0, [prior]))) <= 1e-12

    def test_eigen_step_matches_deflated_operator_reference(self):
        # one outer iteration of the production solver against power
        # iteration on the paper's shifted Woodbury operator, from the state
        # after component 1; for this seed the shift makes the complement
        # eigenvalue dominant, so the reference converges
        X = clean_data(seed=20)
        v1 = fit(X).components[:, 0]
        pairs = sym_evd(X.T @ X / X.shape[0])
        v0 = pairs.vectors[:, 1] - float(pairs.vectors[:, 1] @ v1) * v1
        v0 /= np.linalg.norm(v0)
        sigma = float(np.sqrt(X.shape[0] * pairs.values[1]))
        v, _ = mcpi_ith_component(X, [v1], sigma, v0, MCPIConfig(outer_max_iter=1))

        state = DeflationState.initial(3)
        state.add(v1)
        S = weighted_scatter(X, residual_weights(X, np.eye(3) - state.P - np.outer(v0, v0), sigma))
        ref = power_iteration(build_deflated_operator(S, state), v0, 1e-13, 20000)
        assert ref.converged
        assert 1.0 - abs_cos(v, ref.vector) <= 1e-10


class TestComplementStep:
    """One outer step in complement coordinates against the formulation in
    the original coordinates: weights of the residuals (I - P - v v^T) x,
    then the top eigenvector of (I - P) S (I - P)."""

    @pytest.mark.parametrize("p, k", [(3, 0), (3, 1), (3, 2), (10, 3)])
    def test_one_step_matches_projected_scatter(self, p, k):
        rng = np.random.default_rng(21 + p + k)
        scatter = np.diag(np.arange(p, 0, -1, dtype=float))
        X, _ = generate_experiment(ExperimentSpec(n=300, p=p, scatter=scatter, outlier_fraction=0.05,
                                                  nu=15.0, seed=22))
        components = list(np.linalg.qr(rng.standard_normal((p, p)))[0][:, :k].T)
        v0 = rng.standard_normal(p)
        v0 /= np.linalg.norm(v0)
        sigma = 0.5 * float(np.sqrt(scatter[0, 0]))
        v, _ = mcpi_ith_component(X, components, sigma, v0, MCPIConfig(outer_max_iter=1))

        C = np.eye(p)
        v_ref = v0
        if components:
            C -= np.column_stack(components) @ np.column_stack(components).T
            v_ref = orthogonalize_against(v0, components)
        S = weighted_scatter(X, residual_weights(X, C - np.outer(v_ref, v_ref), sigma))
        ref = np.linalg.eigh(C @ S @ C)[1][:, -1]
        assert 1.0 - abs_cos(v, ref) <= 1e-12


# Spectrum (100, 2, 1) in a rotated basis: the max |diag K| shift of the
# deflated operator leaves the found direction's eigenvalue dominant, so
# power iteration on it never reaches the complement's top eigenvector.
WEAK_COMPLEMENT_BASIS = np.linalg.qr(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, 0.0, -1.0]]))[0]
WEAK_COMPLEMENT_SCATTER = WEAK_COMPLEMENT_BASIS @ np.diag([100.0, 2.0, 1.0]) @ WEAK_COMPLEMENT_BASIS.T


class TestFit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weak_complement_converges(self, seed):
        X = clean_data(seed=seed, scatter=WEAK_COMPLEMENT_SCATTER)
        res = fit(X)
        assert all(d.converged for d in res.diagnostics)
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-8
        cos = np.abs(np.sum(V * standard_pca(X).components, axis=0))
        assert np.all(cos >= 0.99)

    def test_unconverged_earlier_round_reported(self):
        # round 1 stops at outer_max_iter short of even sqrt(outer_tol),
        # round 2 converges to outer_tol from where it left off; the
        # component must not report convergence
        X, _ = generate_experiment(ExperimentSpec(n=200, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.1,
                                                  nu=15.0, seed=4))
        pairs = sym_evd(X.T @ X / X.shape[0])
        cfg = MCPIConfig(sigma0=0.5 * float(np.sqrt(pairs.values[0])), n_decay=2, outer_max_iter=18)
        v, sigma, rounds = pairs.vectors[:, 0], cfg.sigma0, []
        for tol in (np.sqrt(cfg.outer_tol), cfg.outer_tol):
            v, diag = mcpi_ith_component(X, [], sigma, v, replace(cfg, outer_tol=tol))
            rounds.append(diag.converged)
            sigma *= cfg.eta
        assert rounds == [False, True]
        assert not fit(X, cfg).diagnostics[0].converged

    def test_result_is_fixed_point_at_final_sigma(self):
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05,
                                                  nu=15.0, seed=3))
        res = fit(X)
        for i, d in enumerate(res.diagnostics[:-1]):
            v = res.components[:, i]
            v_next, _ = mcpi_ith_component(X, list(res.components[:, :i].T), d.final_sigma, v, MCPIConfig())
            assert np.max(np.abs(v_next - v)) <= 1e-7

    @pytest.mark.parametrize("p", [3, 10])
    def test_matches_every_round_at_outer_tol(self, p):
        # reference: every decay round solved to outer_tol
        scatter = DEMO_SCATTER if p == 3 else np.diag(np.arange(p, 0, -1, dtype=float))
        X, _ = generate_experiment(ExperimentSpec(n=400, p=p, scatter=scatter, outlier_fraction=0.05,
                                                  nu=15.0, seed=5))
        cfg = MCPIConfig()
        ref, _, _ = every_round_reference(X, cfg)
        V = fit(X, cfg).components
        assert np.max(np.abs(V[:, :-1] - ref)) <= 1e-6

    @pytest.mark.parametrize("n_decay", [1, 2, 3])
    def test_short_schedules_match_every_round_reference(self, n_decay):
        # the last round starts from the a-priori vector, the previous fixed
        # point, or the line through the two before it
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05,
                                                  nu=15.0, seed=5))
        cfg = MCPIConfig(n_decay=n_decay)
        ref, _, _ = every_round_reference(X, cfg)
        V = fit(X, cfg).components
        assert np.max(np.abs(V[:, :-1] - ref)) <= 1e-6

    def test_predictor_cuts_outer_iterations(self):
        # against rounds started at the previous fixed point with the same
        # round tolerances
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05,
                                                  nu=15.0, seed=3))
        cfg = MCPIConfig()
        ref, ref_outer, _ = every_round_reference(X, cfg, early_tol=np.sqrt(cfg.outer_tol))
        res = fit(X, cfg)
        assert sum(d.outer_iterations for d in res.diagnostics) <= 0.6 * ref_outer
        assert np.max(np.abs(res.components[:, :-1] - ref)) <= 1e-6

    def test_sign_flips_between_rounds_match_reference(self):
        # the top direction has two near-equal largest entries of opposite
        # sign, so fix_sign flips the reported direction between rounds;
        # negating the second column makes them equal-signed, so nothing
        # flips there, and the predictor must not notice the difference
        Q = np.linalg.qr(np.array([[1.0, 0.3, 0.1], [-1.0, 0.3, 0.2], [0.2, 1.0, -0.5]]))[0]
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=Q @ np.diag([6.0, 3.0, 1.0]) @ Q.T,
                                                  outlier_fraction=0.05, nu=15.0, seed=16))
        cfg = MCPIConfig()
        ref, ref_outer, flips = every_round_reference(X, cfg, early_tol=np.sqrt(cfg.outer_tol))
        assert flips >= 2
        res = fit(X, cfg)
        assert np.max(np.abs(res.components[:, :-1] - ref)) <= 1e-6
        assert sum(d.outer_iterations for d in res.diagnostics) <= 0.6 * ref_outer

        D = np.diag([1.0, -1.0, 1.0])
        mirrored = fit(X @ D, cfg)
        assert [d.outer_iterations for d in mirrored.diagnostics] == [d.outer_iterations for d in res.diagnostics]
        cos = np.sum(res.components * (D @ mirrored.components), axis=0)
        assert np.all(1.0 - np.abs(cos) <= 1e-12)

    def test_first_step_underflow_keeps_last_fixed_point(self, monkeypatch):
        # sigma0 = 0.5, eta = 0.3: six rounds of component 1 finish, and on
        # the seventh every weight underflows at the extrapolated start
        rounds = []
        solve = mcpi._fixed_point

        def recorded(cs, sigma, u, tol, max_iter):
            try:
                result = solve(cs, sigma, u, tol, max_iter)
            except SigmaTooSmallError as err:
                rounds.append((sigma, u, None, err.steps))
                raise
            rounds.append((sigma, u, result[0], None))
            return result

        monkeypatch.setattr(mcpi, "_fixed_point", recorded)
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05,
                                                  nu=15.0, seed=0))
        res = fit(X, MCPIConfig(sigma0=0.5, eta=0.3, n_decay=30))
        finished = next(r for r, (_, _, u, _) in enumerate(rounds) if u is None)
        sigma_last, _, u_last, _ = rounds[finished - 1]
        _, start, _, steps = rounds[finished]
        assert finished >= 3 and steps == 0
        d = res.diagnostics[0]
        assert d.sigma_underflow and not d.converged and d.final_sigma == sigma_last
        v = res.components[:, 0]  # the complement of no components is the identity
        assert np.array_equal(v, fix_sign(u_last))
        assert np.max(np.abs(v - fix_sign(start))) > 1e-3

    @pytest.mark.parametrize("data", ["demo", "axis"])
    def test_tiny_sigma_ends_as_underflow(self, data):
        # the schedule reaches sigma < 1e-162, where 2 sigma^2 is 0 and a
        # row along u would get weight 0/0; on the axis data such rows keep
        # weight 1 until then
        if data == "demo":
            X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, seed=9))
        else:
            X = axis_rows()
        res = fit(X, MCPIConfig(sigma0=1.0, eta=0.3, n_decay=400))
        assert all(d.sigma_underflow and not d.converged for d in res.diagnostics[:2])
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-8

    def test_underflow_reported(self):
        res = fit(clean_data(seed=9), MCPIConfig(sigma0=1e-6, n_decay=3))
        assert all(d.sigma_underflow and not d.converged for d in res.diagnostics[:2])
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-8

    def test_underflow_after_finished_rounds_not_converged(self):
        # rounds at sigma = 1, 0.1, ... finish until every weight underflows;
        # the direction is then converged only to sqrt(outer_tol)
        res = fit(clean_data(seed=9), MCPIConfig(sigma0=1.0, eta=0.1, n_decay=30))
        d = res.diagnostics[0]
        assert d.sigma_underflow and d.final_sigma < 1.0
        assert not d.converged
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        X = clean_data(seed=8)
        X[5, 1] = bad
        with pytest.raises(DegenerateInputError):
            fit(X)

    def test_overflowing_scatter_rejected(self):
        X = 1e160 * np.random.default_rng(1).standard_normal((50, 3))
        with pytest.raises(DegenerateInputError, match="overflows"):
            fit(X)

    def test_orthonormal_components(self):
        X = clean_data(seed=8)
        res = fit(X, MCPIConfig(n_decay=10))
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-6

    def test_apriori_eigenvalues_sorted(self):
        X = clean_data(seed=9)
        res = fit(X, MCPIConfig(n_decay=5))
        assert np.all(np.diff(res.apriori_eigenvalues) <= 0)

    def test_p1_degenerate(self):
        X = np.abs(np.random.default_rng(10).standard_normal((20, 1))) + 0.5
        res = fit(X, MCPIConfig(n_decay=3))
        assert res.components.shape == (1, 1)
        assert res.components[0, 0] == pytest.approx(1.0)

    def test_frozen_huge_sigma_matches_pca(self):
        X = clean_data(seed=11)
        cfg = MCPIConfig(sigma0=huge_sigma(X), n_decay=1)
        res = fit(X, cfg)
        base = standard_pca(X)
        cos = np.abs(np.sum(res.components * base.components, axis=0))
        assert np.all(cos >= 1.0 - 1e-4)

    def test_deterministic(self):
        X = clean_data(seed=12)
        cfg = MCPIConfig(n_decay=8)
        r1 = fit(X, cfg)
        r2 = fit(X, cfg)
        assert r1.components.tobytes() == r2.components.tobytes()
        assert r1.apriori_eigenvalues.tobytes() == r2.apriori_eigenvalues.tobytes()

    def test_sigma_schedule_is_geometric(self):
        X = clean_data(seed=13)
        cfg = MCPIConfig(n_decay=7)
        res = fit(X, cfg)
        n = X.shape[0]
        for i in range(2):  # iterated components only
            sigma0 = np.sqrt(n * res.apriori_eigenvalues[i])
            expected_final = sigma0 * cfg.eta ** (cfg.n_decay - 1)
            assert res.diagnostics[i].final_sigma == pytest.approx(expected_final, rel=1e-12)

    def test_last_component_via_null_space(self):
        X = clean_data(seed=14)
        res = fit(X, MCPIConfig(n_decay=5))
        assert res.diagnostics[-1].method == "null_space"
        v_last = res.components[:, -1]
        assert np.linalg.norm(res.components[:, :2].T @ v_last) <= 1e-8

    def test_rank_deficient_rejected(self):
        X = np.ones((10, 3))
        with pytest.raises(DegenerateInputError):
            fit(X, MCPIConfig())

    def test_n_less_than_p_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit(np.ones((2, 3)), MCPIConfig())

    def test_centering_flag(self):
        rng = np.random.default_rng(15)
        X = clean_data(seed=16) + 50.0
        res = fit(X, MCPIConfig(n_decay=3, center=True))
        ref = fit(X - X.mean(axis=0), MCPIConfig(n_decay=3))
        assert np.allclose(res.components, ref.components)

    def test_weight_recompute_matches_algorithm(self):
        # one weight recomputed independently with the exact residual operator
        from corrpca.correntropy import gaussian_kernel, residual_weights

        X = clean_data(seed=17)
        pairs = sym_evd(X.T @ X / X.shape[0])
        state = DeflationState.initial(3)
        state.add(pairs.vectors[:, 0])
        v = pairs.vectors[:, 1]
        sigma = 2.5
        R = np.eye(3) - state.P - np.outer(v, v)
        w = residual_weights(X, R, sigma)
        k = 123
        assert w[k] == pytest.approx(gaussian_kernel(R @ X[k], sigma), rel=1e-13)


class TestStandardPCA:
    def test_axis_data(self):
        X = np.diag([3.0, 2.0, 1.0]) @ np.eye(3)
        X = np.vstack([X, -X])
        res = standard_pca(X)
        assert np.allclose(np.abs(res.components), np.eye(3))

    def test_definitional_match_with_sym_evd(self):
        X = clean_data(seed=18)
        res = standard_pca(X)
        pairs = sym_evd(X.T @ X / X.shape[0])
        assert np.array_equal(res.components, pairs.vectors)
        assert np.array_equal(res.apriori_eigenvalues, pairs.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        X = clean_data(seed=18)
        X[0, 0] = bad
        with pytest.raises(DegenerateInputError):
            standard_pca(X)

    def test_overflowing_scatter_rejected(self):
        X = 1e160 * np.random.default_rng(1).standard_normal((50, 3))
        with pytest.raises(DegenerateInputError, match="overflows"):
            standard_pca(X)

    def test_recovers_demo_directions_within_sampling_error(self):
        X = clean_data(n=4000, seed=19)
        truth = sym_evd(DEMO_SCATTER).vectors
        est = standard_pca(X).components
        cos = np.abs(np.sum(est * truth, axis=0))
        assert np.all(cos >= 0.97)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": 1.0},
            {"n_decay": 0},
            {"outer_tol": 0.0},
            {"outer_max_iter": 0},
            {"sigma0": -1.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            MCPIConfig(**kwargs).validate()
