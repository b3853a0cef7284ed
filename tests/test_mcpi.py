import dataclasses
import math
import warnings

import numpy as np
import pytest

from corrpca.datagen import ExperimentSpec, generate_experiment, sample_mvn
from corrpca.correntropy import all_underflowed, rank_one_weights, weighted_scatter
from corrpca import mcpi
from corrpca.linalg import complement_basis, fix_sign, sym_evd
from corrpca.mcpi import DegenerateInputError, MCPIConfig, fit, standard_pca
from corrpca.reference import (
    DeflationState,
    NumericalSingularityError,
    build_deflated_operator,
    orthogonalize_against,
    power_iteration,
    residual_weights,
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


def symmetric_rows():
    """The rows (2, +-0.1, 0), (0, 1, 0), (0, 0, 1) and their negatives: by
    symmetry e1 is the fixed point at every sigma, where the four rows
    nearest it have residual 0.1 and every weight underflows once
    0.01 / 2 sigma^2 > -log(1e-300), at sigma < 0.0027."""
    X = np.array([[2.0, 0.1, 0.0], [2.0, -0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return np.vstack([X, -X])


def with_rows_along_second_apriori(X, k=5, scale=3.0):
    """X with k rows of +-scale v2 appended, v2 its second a-priori
    eigenvector.  They leave v2 an eigenvector of X^T X in its place, so at
    component 2's start these rows have residual ~1e-15, and they keep
    weight ~1 at any sigma above the floor."""
    v2 = sym_evd(X.T @ X / X.shape[0]).vectors[:, 1]
    return np.vstack([X, np.outer(np.tile([scale, -scale], k), v2)])


def plain_fixed_point(cs, sigma, u, tol, max_iter):
    """Oracle for ``mcpi._fixed_point`` without the secant step: the plain
    loop u <- top eigenvector of the weighted scatter at u, with the same
    stop rule, sign alignment, underflow rule and return tuple."""
    for outer in range(max_iter):
        w = rank_one_weights(cs.e, cs.Y @ u, sigma)
        if all_underflowed(w):
            return u, outer, False, True
        u_new = np.linalg.eigh(weighted_scatter(cs.Y, w))[1][:, -1]
        if float(u_new @ u) < 0.0:
            u_new = -u_new
        step = np.linalg.norm(u_new - u)
        u = u_new
        if step <= tol:
            return u, outer + 1, True, False
    return u, max_iter, False, False


def one_difference_fixed_point(cs, sigma, u, tol, max_iter):
    """Oracle for ``mcpi._fixed_point`` with the one-difference secant step
    alone: with f_k = g_k - x_k and df = f_k - f_{k-1}, the next iterate is
    g_k - gamma (g_k - g_{k-1}), normalised, gamma = df.f_k / df.df, when
    gamma < 1/2, and g_k otherwise and on the first step.  Same stop rule,
    sign alignment, underflow rule and return tuple; on a complement with
    m = 2 ``_fixed_point`` runs this loop."""
    x = u
    g_prev = f_prev = None
    for outer in range(max_iter):
        w = rank_one_weights(cs.e, cs.Y @ x, sigma)
        if all_underflowed(w):
            return u, outer, False, True
        u = np.linalg.eigh(weighted_scatter(cs.Y, w))[1][:, -1]
        if float(u @ x) < 0.0:
            u = -u
        f = u - x
        if np.linalg.norm(f) <= tol:
            return u, outer + 1, True, False
        x = u
        if f_prev is not None:
            df = f - f_prev
            dd = float(df @ df)
            gamma = float(df @ f) / dd if 0.0 < dd < np.inf else np.inf
            if gamma < 0.5:
                x = u - gamma * (u - g_prev)
                x = x / np.linalg.norm(x)
        g_prev, f_prev = u, f
    return u, max_iter, False, False


def kernel_size_reference(X, components, v):
    """``mcpi.KERNEL_SCALE`` times the median norm of the residuals
    (I - P - v v^T) x at ``v`` projected off the found ``components`` (the
    RMS norm when that median is 0), in the original coordinates."""
    p = X.shape[1]
    C = np.eye(p) - sum((np.outer(c, c) for c in components), np.zeros((p, p)))
    v = orthogonalize_against(v, components)
    norms = np.linalg.norm(X @ (C - np.outer(v, v)), axis=1)
    scale = np.median(norms)
    return mcpi.KERNEL_SCALE * (scale if scale > 0.0 else np.sqrt(np.mean(norms**2)))


def complement_of(X, components):
    """The complement of the unit vectors in ``components``, built from
    scratch: the complement basis B of the whole found set, and Y = X B."""
    B = complement_basis(np.column_stack(components)) if len(components) else np.eye(X.shape[1])
    return mcpi._Complement.of(B, X @ B)


def ith_component(X, components, sigma, v):
    """The next component after the unit vectors in ``components``: a
    one-round schedule at kernel size ``sigma`` from ``v``, solved to
    ``mcpi.OUTER_TOL``.  Returns (direction, diagnostics)."""
    cs = complement_of(X, components)
    u, diag = mcpi._shrinking_rounds(cs, v, MCPIConfig(n_decay=1, sigma0=sigma), 0)
    return fix_sign(cs.B @ u), diag


def one_step(monkeypatch, X, components, sigma, v):
    """The direction after a single outer iteration of ``ith_component``."""
    monkeypatch.setattr(mcpi, "OUTER_MAX_ITER", 1)
    return ith_component(X, components, sigma, v)[0]


def every_round_reference(X, cfg):
    """Per-round reference for the schedule of ``fit``: each decay round is
    one ``ith_component`` call started at the previous round's (signed)
    result, every one solved to ``OUTER_TOL``, at the ``n_decay`` kernel
    sizes geometrically spaced from sigma_0, that of
    ``kernel_size_reference`` at the a-priori vector, to sigma_0
    ``KERNEL_SPAN``.  It runs the production corrector;
    ``TestSecantCorrector`` checks that against the plain loop.  Returns the
    iterated components as columns."""
    pairs = sym_evd(X.T @ X / X.shape[0])
    components = []
    for i in range(X.shape[1] - 1):
        v = pairs.vectors[:, i]
        sigma0 = kernel_size_reference(X, components, v)
        for sigma in np.geomspace(sigma0, sigma0 * mcpi.KERNEL_SPAN, cfg.n_decay):
            v, _ = ith_component(X, components, sigma, v)
        components.append(v)
    return np.column_stack(components)


def record_rounds(monkeypatch):
    """Patch ``mcpi._fixed_point`` to log every round as (complement set-up,
    sigma, start, u, steps, converged, underflow)."""
    rounds = []
    solve = mcpi._fixed_point

    def recorded(cs, sigma, u, tol, max_iter):
        result = solve(cs, sigma, u, tol, max_iter)
        rounds.append((cs, sigma, u, *result))
        return result

    monkeypatch.setattr(mcpi, "_fixed_point", recorded)
    return rounds


def in_input_units(sigma, X):
    """A kernel size of the run of ``fit`` on X, which works on X 2^-e with
    2^(e - 1) <= max |x| < 2^e, in the units of X."""
    return math.ldexp(sigma, math.frexp(float(np.max(np.abs(X))))[1])


def per_component(rounds):
    """Recorded rounds split by component: each has its own set-up."""
    components = []
    for round_ in rounds:
        if not components or components[-1][0][0] is not round_[0]:
            components.append([])
        components[-1].append(round_)
    return components


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
        v, diag = ith_component(X, [], 1.0, v0)
        assert diag.converged
        assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-8)

    def test_large_sigma_reduces_to_pca(self):
        X = clean_data(seed=3)
        top = sym_evd(X.T @ X).vectors[:, 0]
        v0 = np.array([1.0, 0.0, 0.0])
        v, diag = ith_component(X, [], huge_sigma(X), v0)
        assert diag.converged
        assert abs_cos(v, top) >= 1.0 - 1e-6

    def test_sign_fixed_and_unit(self):
        X = clean_data(seed=4)
        v, _ = ith_component(X, [], 5.0, np.array([0.0, 1.0, 0.0]))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[np.argmax(np.abs(v))] > 0


class TestIthComponent:
    def test_large_sigma_second_eigenvector(self):
        X = clean_data(seed=6)
        pairs = sym_evd(X.T @ X)
        v0 = pairs.vectors[:, 1]
        v, diag = ith_component(X, [pairs.vectors[:, 0]], huge_sigma(X), v0)
        assert diag.converged
        assert abs_cos(v, pairs.vectors[:, 1]) >= 1.0 - 1e-4

    def test_orthogonal_to_prior_components(self):
        X = clean_data(seed=7)
        pairs = sym_evd(X.T @ X)
        prior = pairs.vectors[:, 0]
        v, _ = ith_component(X, [prior], 2.0, pairs.vectors[:, 1])
        assert abs_cos(v, prior) <= 1e-8

    def test_tiny_sigma_raises_underflow(self):
        # far below the floor: reported before any step, at the start vector,
        # with no round finished
        v0 = np.array([0.0, -1.0, 0.0])
        v, diag = ith_component(axis_rows(), [], 1e-170, v0)
        assert diag.sigma_underflow and not diag.converged and diag.outer_iterations == 0
        assert np.isnan(diag.final_sigma)
        assert np.array_equal(v, fix_sign(v0))

    def test_underflow_carries_direction_in_original_coordinates(self):
        # above the floor, but every weight underflows on the first step
        X = clean_data(seed=7)
        pairs = sym_evd(X.T @ X)
        prior = pairs.vectors[:, 0]
        v0 = np.ones(3) / np.sqrt(3.0)
        v, diag = ith_component(X, [prior], 1e-6, v0)
        assert diag.sigma_underflow and not diag.converged and np.isnan(diag.final_sigma)
        assert np.max(np.abs(v - fix_sign(orthogonalize_against(v0, [prior])))) <= 1e-12

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DegenerateInputError, match="n x p"):
            fit(np.arange(5.0))

    def test_eigen_step_matches_deflated_operator_reference(self, monkeypatch):
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
        v = one_step(monkeypatch, X, [v1], sigma, v0)

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
    def test_one_step_matches_projected_scatter(self, monkeypatch, p, k):
        rng = np.random.default_rng(21 + p + k)
        scatter = np.diag(np.arange(p, 0, -1, dtype=float))
        X, _ = generate_experiment(ExperimentSpec(n=300, p=p, scatter=scatter, outlier_fraction=0.05,
                                                  nu=15.0, seed=22))
        components = list(np.linalg.qr(rng.standard_normal((p, p)))[0][:, :k].T)
        v0 = rng.standard_normal(p)
        v0 /= np.linalg.norm(v0)
        sigma = 0.5 * float(np.sqrt(scatter[0, 0]))
        v = one_step(monkeypatch, X, components, sigma, v0)

        C = np.eye(p)
        v_ref = v0
        if components:
            C -= np.column_stack(components) @ np.column_stack(components).T
            v_ref = orthogonalize_against(v0, components)
        S = weighted_scatter(X, residual_weights(X, C - np.outer(v_ref, v_ref), sigma))
        ref = np.linalg.eigh(C @ S @ C)[1][:, -1]
        assert 1.0 - abs_cos(v, ref) <= 1e-12


    @pytest.mark.parametrize("p, k", [(3, 0), (3, 1), (3, 2), (10, 3)])
    def test_fixed_point_step_is_the_plain_eigen_step_bit_for_bit(self, p, k):
        # one buffered step of _fixed_point, tolerance 0, against the same
        # step written with the allocating calls
        rng = np.random.default_rng(31 + p + k)
        scatter = np.diag(np.arange(p, 0, -1, dtype=float))
        X, _ = generate_experiment(ExperimentSpec(n=300, p=p, scatter=scatter, outlier_fraction=0.05,
                                                  nu=15.0, seed=32))
        components = list(np.linalg.qr(rng.standard_normal((p, p)))[0][:, :k].T)
        cs = complement_of(X, components)
        u = cs.coordinates(rng.standard_normal(p))
        sigma = 0.5 * float(np.sqrt(scatter[0, 0]))
        g, steps, _, underflow = mcpi._fixed_point(cs, sigma, u, 0.0, 1)

        ref = np.linalg.eigh(weighted_scatter(cs.Y, rank_one_weights(cs.e, cs.Y @ u, sigma)))[1][:, -1]
        if float(ref @ u) < 0.0:
            ref = -ref
        assert (steps, underflow) == (1, False)
        assert g.tobytes() == ref.tobytes()


class TestKernelSize:
    """``_kernel_size`` takes the median of r^2 by one partition and roots
    only its middle values; the median of the roots, taken by a partition at
    both middle indices, gives the same bits."""

    @staticmethod
    def two_index_reference(cs, u, floor):
        r2 = cs.e - (cs.Y @ u) ** 2
        r2[r2 <= floor] = 0.0
        r = np.sqrt(r2)
        mid = [(len(r) - 1) // 2, len(r) // 2]
        r.partition(mid)
        scale = 0.5 * float(r[mid[0]] + r[mid[1]])
        return mcpi.KERNEL_SCALE * (scale if scale > 0.0 else float(np.sqrt(np.mean(r2))))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 51, 400])
    @pytest.mark.parametrize("rows", ["normal", "tied", "zero"])
    def test_matches_median_of_roots_bit_for_bit(self, n, rows):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 3))
        if rows == "tied":  # few distinct residuals, many equal
            X = np.round(2.0 * X) / 2.0
        elif rows == "zero":  # over half the rows on the axis of u: the RMS fallback for odd n
            X[: n // 2 + 1, 1:] = 0.0
        u = np.array([1.0, 0.0, 0.0]) if rows != "normal" else rng.standard_normal(3)
        cs = mcpi._Complement.of(np.eye(3), X)
        u = cs.coordinates(u)
        floor = np.finfo(float).eps * cs.e_max
        got = mcpi._kernel_size(cs, u, floor)
        assert np.float64(got).tobytes() == np.float64(self.two_index_reference(cs, u, floor)).tobytes()


def outlier_data(n=400, p=3, fraction=0.05, seed=5):
    scatter = DEMO_SCATTER if p == 3 else np.diag(np.arange(p, 0, -1, dtype=float))
    return generate_experiment(ExperimentSpec(n=n, p=p, scatter=scatter, outlier_fraction=fraction,
                                              nu=15.0, seed=seed))[0]


def fit_with(monkeypatch, X, fixed_point):
    """``fit`` with ``fixed_point`` swapped in for ``mcpi._fixed_point``."""
    with monkeypatch.context() as m:
        m.setattr(mcpi, "_fixed_point", fixed_point)
        return fit(X)


def total_outer_iterations(res):
    return sum(d.outer_iterations for d in res.diagnostics)


ORACLE_CASES = [
    pytest.param(400, 3, 0.05, 5, id="p3-5%"),
    pytest.param(400, 3, 0.3, 5, id="p3-30%"),
    pytest.param(400, 10, 0.05, 5, id="p10"),
    # a small sample on which a secant step taken even where its model does
    # not contract never converges
    pytest.param(56, 3, 0.05, 378879, id="n56"),
]


class TestSecantCorrector:
    """``fit`` with the secant-accelerated corrector against ``fit`` with
    the plain fixed-point loop swapped in."""

    @pytest.mark.parametrize("n, p, fraction, seed", ORACLE_CASES)
    def test_matches_plain_loop(self, monkeypatch, n, p, fraction, seed):
        X = outlier_data(n, p, fraction, seed)
        ref = fit_with(monkeypatch, X, plain_fixed_point)
        res = fit(X)
        assert np.max(np.abs(res.components - ref.components)) <= 1e-6
        assert [d.converged for d in res.diagnostics] == [d.converged for d in ref.diagnostics]
        assert all(d.converged for d in res.diagnostics)

    def test_cuts_outer_iterations(self, monkeypatch):
        X = outlier_data(seed=3)
        ref = fit_with(monkeypatch, X, plain_fixed_point)
        res = fit(X)
        assert total_outer_iterations(res) <= 0.7 * total_outer_iterations(ref)

    @pytest.mark.parametrize("p", [3, 10])
    def test_plain_step_keeps_reported_components(self, p):
        # the reported direction is an image of the plain map, not a mix
        X = outlier_data(p=p, seed=3)
        res = fit(X)
        for i, d in enumerate(res.diagnostics[:-1]):
            cs = complement_of(X, list(res.components[:, :i].T))
            v = res.components[:, i]
            u, steps, _, underflow = plain_fixed_point(cs, d.final_sigma, cs.coordinates(v), 0.0, 1)
            assert steps == 1 and not underflow
            assert np.max(np.abs(cs.B @ u - v)) <= 1e-7


class TestTwoDifferenceCorrector:
    """``fit``, whose corrector mixes along two differences on complements
    with m >= 3, against ``fit`` with the one-difference loop swapped in."""

    @pytest.mark.parametrize("seed", range(4))
    def test_two_dimensional_complement_is_the_one_difference_loop(self, monkeypatch, seed):
        # p = 2 leaves only m = 2 rounds, whose tangent has one dimension
        X = outlier_data(p=2, seed=seed)
        ref = fit_with(monkeypatch, X, one_difference_fixed_point)
        res = fit(X)
        assert res.components.tobytes() == ref.components.tobytes()
        assert res.diagnostics[:-1] == ref.diagnostics[:-1]  # the last one is direct, its final_sigma NaN

    @pytest.mark.parametrize(
        "n, p, fraction, seed",
        ORACLE_CASES + [pytest.param(400, 3, 0.3, seed, id=f"p3-30%-seed{seed}") for seed in range(4)],
    )
    def test_matches_one_difference_loop(self, monkeypatch, n, p, fraction, seed):
        X = outlier_data(n, p, fraction, seed)
        ref = fit_with(monkeypatch, X, one_difference_fixed_point)
        res = fit(X)
        assert np.max(np.abs(res.components - ref.components)) <= 1e-6
        assert [d.converged for d in res.diagnostics] == [d.converged for d in ref.diagnostics]

    def test_cuts_outer_iterations(self, monkeypatch):
        X = outlier_data(seed=3)
        ref = fit_with(monkeypatch, X, one_difference_fixed_point)
        res = fit(X)
        assert total_outer_iterations(res) <= 0.85 * total_outer_iterations(ref)


class TestComplementChain:
    """``fit`` steps from the complement of k components to that of k + 1
    inside it; the same loop with every complement built from scratch from
    the found set gives the same components and diagnostics."""

    @staticmethod
    def from_scratch_fit(X, cfg):
        apriori = sym_evd(X.T @ X / X.shape[0]).vectors
        components, diags = [], []
        for i in range(X.shape[1] - 1):
            cs = complement_of(X, components)
            u, diag = mcpi._shrinking_rounds(cs, apriori[:, i], cfg, 0)
            components.append(fix_sign(cs.B @ u))
            diags.append(diag)
        components.append(fix_sign(complement_of(X, components).B[:, 0]))
        return np.column_stack(components), diags

    @pytest.mark.parametrize("p", [3, 10])
    def test_matches_complements_from_scratch(self, p):
        X = outlier_data(p=p, seed=3)
        cfg = MCPIConfig()
        V, diags = self.from_scratch_fit(X, cfg)
        res = fit(X, cfg)
        assert np.max(np.abs(res.components - V)) <= 1e-12
        # the iterated components' diagnostics; sigma_0 is a median taken in
        # another basis of the same complement, so final_sigma may differ by
        # rounding
        for got, want in zip(res.diagnostics, diags):
            assert {**got.as_dict(), "final_sigma": None} == {**want.as_dict(), "final_sigma": None}
            assert got.final_sigma == pytest.approx(want.final_sigma, rel=1e-12)


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

    def test_unconverged_earlier_round_reported(self, monkeypatch):
        # round 1 stops at OUTER_MAX_ITER short of even sqrt(OUTER_TOL),
        # round 2 converges to OUTER_TOL from where it left off; the
        # component must not report convergence
        X, _ = generate_experiment(ExperimentSpec(n=200, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.1,
                                                  nu=15.0, seed=4))
        pairs = sym_evd(X.T @ X / X.shape[0])
        monkeypatch.setattr(mcpi, "OUTER_MAX_ITER", 10)
        rounds = record_rounds(monkeypatch)
        res = fit(X, MCPIConfig(sigma0=0.5 * float(np.sqrt(pairs.values[0])), n_decay=2))
        assert [round_[5] for round_ in per_component(rounds)[0]] == [False, True]
        assert not res.diagnostics[0].converged

    def test_result_is_fixed_point_at_final_sigma(self):
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05,
                                                  nu=15.0, seed=3))
        res = fit(X)
        for i, d in enumerate(res.diagnostics[:-1]):
            v = res.components[:, i]
            v_next, _ = ith_component(X, list(res.components[:, :i].T), d.final_sigma, v)
            assert np.max(np.abs(v_next - v)) <= 1e-7

    @pytest.mark.parametrize(
        "p, fraction, basis",
        [
            pytest.param(3, 0.05, "literal", id="3"),
            pytest.param(10, 0.05, "literal", id="10"),
            (3, 0.1, "literal"),
            (3, 0.1, "rotated"),
            (3, 0.3, "literal"),
            (3, 0.3, "rotated"),
        ],
    )
    def test_matches_every_round_at_outer_tol(self, p, fraction, basis):
        # reference: every decay round solved to OUTER_TOL
        scatter = DEMO_SCATTER if p == 3 else np.diag(np.arange(p, 0, -1, dtype=float))
        X, _ = generate_experiment(ExperimentSpec(n=400, p=p, scatter=scatter, outlier_fraction=fraction,
                                                  nu=15.0, seed=5, outlier_basis=basis))
        cfg = MCPIConfig()
        ref = every_round_reference(X, cfg)
        V = fit(X, cfg).components
        assert np.max(np.abs(V[:, :-1] - ref)) <= 1e-6

    @pytest.mark.parametrize("n_decay", [1, 2, 3])
    def test_short_schedules_match_every_round_reference(self, n_decay):
        # each round starts from the fixed point of the round before, the
        # first from the a-priori vector
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05,
                                                  nu=15.0, seed=5))
        cfg = MCPIConfig(n_decay=n_decay)
        ref = every_round_reference(X, cfg)
        V = fit(X, cfg).components
        assert np.max(np.abs(V[:, :-1] - ref)) <= 1e-6

    def test_each_round_starts_at_the_last_fixed_point(self, monkeypatch):
        # every grid point is visited, in order, and hands its fixed point on
        rounds = record_rounds(monkeypatch)
        X = outlier_data(seed=3)
        cfg = MCPIConfig(n_decay=4)
        res = fit(X, cfg)
        components = per_component(rounds)
        assert [len(component) for component in components] == [cfg.n_decay] * 2
        for component, d in zip(components, res.diagnostics):
            for before, after in zip(component, component[1:]):
                assert after[1] < before[1]
                assert np.array_equal(after[2], before[3])
            assert d.final_sigma == in_input_units(component[-1][1], X)
            assert d.outer_iterations == sum(round_[4] for round_ in component)

    def test_sign_flips_between_rounds_match_reference(self):
        # the top direction has two near-equal largest entries of opposite
        # sign, so fix_sign would flip a direction between rounds; negating
        # the second column makes them equal-signed, so nothing flips there,
        # and the fit of the mirrored data is the reference
        Q = np.linalg.qr(np.array([[1.0, 0.3, 0.1], [-1.0, 0.3, 0.2], [0.2, 1.0, -0.5]]))[0]
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=Q @ np.diag([6.0, 3.0, 1.0]) @ Q.T,
                                                  outlier_fraction=0.05, nu=15.0, seed=16))
        cfg = MCPIConfig()
        res = fit(X, cfg)
        D = np.diag([1.0, -1.0, 1.0])
        mirrored = fit(X @ D, cfg)
        assert [d.outer_iterations for d in mirrored.diagnostics] == [d.outer_iterations for d in res.diagnostics]
        cos = np.sum(res.components * (D @ mirrored.components), axis=0)
        assert np.all(1.0 - np.abs(cos) <= 1e-12)

    def test_zero_median_residual_falls_back_to_rms(self):
        # component 2 starts at e2 in the complement of e1: the 30 rows along
        # e1 and the 30 along e2 have residual 0, so the median is 0 and
        # sigma_0 is KERNEL_SCALE times the RMS of the residuals x_3
        X = axis_rows()
        res = fit(X, MCPIConfig(n_decay=1))
        assert np.array_equal(np.abs(res.components), np.eye(3))
        rms = np.sqrt(np.mean(X[:, 2] ** 2))
        assert res.diagnostics[1].final_sigma == pytest.approx(mcpi.KERNEL_SCALE * rms, rel=1e-12)
        assert res.diagnostics[0].final_sigma == pytest.approx(
            mcpi.KERNEL_SCALE * np.median(np.linalg.norm(X[:, 1:], axis=1)), rel=1e-12)

    @pytest.mark.parametrize("fraction", [0.05, 0.3])
    def test_robustness_does_not_fall_with_n(self, fraction):
        # the kernel is in residual units, so a larger sample sharpens the
        # estimate: per-component median |cos| to the truth over four seeds
        # may not fall by more than 0.01 from one n to the next (a kernel
        # sized by the data norm fell by 0.01-0.08 at 5% and at 30%)
        truth = sym_evd(DEMO_SCATTER).vectors
        medians = [
            np.median([np.abs(np.sum(fit(outlier_data(n, fraction=fraction, seed=seed)).components * truth,
                                     axis=0)) for seed in range(4)], axis=0)
            for n in (400, 4000, 20000)
        ]
        assert np.all(np.diff(medians, axis=0) >= -0.01), medians

    def test_first_step_underflow_keeps_last_fixed_point(self, monkeypatch):
        # sigma_r = 0.0125 KERNEL_SPAN^(r / 5): the rounds at r = 0, 1, 2 keep
        # weights (sigma >= 0.0034), every weight underflows on the first step
        # of the fourth round (sigma = 0.0018), so component 1 keeps the
        # fixed point of the third
        rounds = record_rounds(monkeypatch)
        X = symmetric_rows()
        res = fit(X, MCPIConfig(sigma0=0.0125, n_decay=6))
        *earlier, (_, _, start, u, steps, converged, underflow) = per_component(rounds)[0]
        assert underflow and not converged and steps == 0 and len(earlier) == 3
        assert all(round_[5] and not round_[6] for round_ in earlier)
        _, sigma_last, _, u_last, _, _, _ = earlier[-1]
        assert np.array_equal(start, u_last) and np.array_equal(u, u_last)
        d = res.diagnostics[0]
        assert d.sigma_underflow and not d.converged
        assert d.final_sigma == in_input_units(sigma_last, X)
        assert np.array_equal(res.components[:, 0], fix_sign(u_last))
        assert np.array_equal(np.abs(u_last), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "data, n_decay, stopped",
        [("clean", 200, [1]), ("axis", 400, [0, 1]), ("outliers", 200, [1])],
    )
    def test_floor_stop_reports_last_grid_sigma_above_floor(self, data, n_decay, stopped):
        # a grid from 1e-6 to 4e-8 straddles the floor sqrt(eps max e / 2)
        # ~ 1e-7; rows along the fixed point keep their weight down to it
        # (on the axis data exactly, elsewhere rows along the second
        # a-priori vector), while on the clean and outlier data every weight
        # of component 1 underflows at once
        if data == "axis":
            X = axis_rows()
        else:
            X = clean_data(seed=9) if data == "clean" else outlier_data(fraction=0.05, seed=0)
            X = with_rows_along_second_apriori(X)
        cfg = MCPIConfig(sigma0=1e-6, n_decay=n_decay)
        res = fit(X, cfg)
        grid = cfg.sigma0 * mcpi.KERNEL_SPAN ** (np.arange(n_decay) / (n_decay - 1))
        for i in stopped:
            floor = np.finfo(float).eps * complement_of(X, list(res.components[:, :i].T)).e_max
            above = grid[2.0 * grid * grid > floor]
            assert 0 < len(above) < n_decay
            d = res.diagnostics[i]
            assert d.sigma_underflow and not d.converged and d.final_sigma == above[-1]

    @pytest.mark.parametrize("data", ["demo", "axis"])
    def test_tiny_sigma_ends_as_underflow(self, data):
        # at sigma0 = 1e-170, 2 sigma^2 is 0 and a row along u would get
        # weight 0/0; on the axis data such rows keep weight 1 at any sigma,
        # so only the floor stops the schedule
        if data == "demo":
            X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, seed=9))
        else:
            X = axis_rows()
        res = fit(X, MCPIConfig(sigma0=1e-170))
        assert all(d.sigma_underflow and not d.converged for d in res.diagnostics[:2])
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-8

    def test_floor_stops_schedule_on_clean_data(self):
        # the rows along the second a-priori vector have e - t^2 at rounding
        # level, so they would keep weight below the floor too and the round
        # at 4e-8 would report convergence, its direction set by those rows
        # and the rounding of e - t^2 alone; the floor stops the schedule
        X = with_rows_along_second_apriori(clean_data(seed=9))
        res = fit(X, MCPIConfig(sigma0=1e-6))
        d = res.diagnostics[1]
        assert d.sigma_underflow and not d.converged and d.final_sigma == 1e-6
        cs = complement_of(X, [res.components[:, 0]])
        assert 2.0 * (1e-6 * mcpi.KERNEL_SPAN) ** 2 <= np.finfo(float).eps * cs.e_max
        w = rank_one_weights(cs.e, cs.Y @ cs.coordinates(res.components[:, 1]), 1e-6 * mcpi.KERNEL_SPAN)
        assert not all_underflowed(w)

    def test_underflow_reported(self):
        res = fit(clean_data(seed=9), MCPIConfig(sigma0=1e-6, n_decay=3))
        assert all(d.sigma_underflow and not d.converged for d in res.diagnostics[:2])
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-8

    def test_no_finished_round_reports_nan_sigma(self):
        # every weight of component 1 underflows on the first step at 1e-6,
        # so no round finishes and no kernel size is reported
        d = fit(clean_data(seed=9), MCPIConfig(sigma0=1e-6)).diagnostics[0]
        assert d.sigma_underflow and d.outer_iterations == 0 and np.isnan(d.final_sigma)

    def test_underflow_after_finished_rounds_not_converged(self):
        # the round at sigma0 finishes to sqrt(OUTER_TOL), every weight
        # underflows in the last one, at 0.04 sigma0; the direction is then
        # converged only to sqrt(OUTER_TOL)
        res = fit(symmetric_rows(), MCPIConfig(sigma0=0.0125))
        d = res.diagnostics[0]
        assert d.sigma_underflow and d.final_sigma == 0.0125 and d.outer_iterations > 0
        assert not d.converged
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-8

    @pytest.mark.parametrize("n_decay", [3, 4, 10])
    @pytest.mark.parametrize("fraction", [0.0, 0.05])
    def test_longer_schedules_end_at_the_residual_scale(self, fraction, n_decay):
        # more rounds only subdivide the span: every component still ends
        # converged at KERNEL_SPAN sigma_0, where the final weights spread
        # over many rows, and at the default fit's answer
        X = clean_data(seed=13) if fraction == 0.0 else outlier_data(fraction=fraction, seed=5)
        res = fit(X, MCPIConfig(n_decay=n_decay))
        apriori = sym_evd(X.T @ X / X.shape[0]).vectors
        for i, d in enumerate(res.diagnostics[:-1]):
            assert d.converged and not d.sigma_underflow
            found = list(res.components[:, :i].T)
            sigma0 = kernel_size_reference(X, found, apriori[:, i])
            assert d.final_sigma == pytest.approx(sigma0 * mcpi.KERNEL_SPAN, rel=1e-12)
            w = residual_weights(X, np.eye(3) - res.components[:, :i + 1] @ res.components[:, :i + 1].T,
                                 d.final_sigma)
            assert np.sum(w) ** 2 / np.sum(w * w) >= X.shape[0] / 4
        assert np.max(np.abs(res.components - fit(X).components)) <= 1e-6

    def test_longer_schedules_keep_robustness(self):
        # median over 40 seeds of the worst |cos| to the truth at 30% outliers
        truth = sym_evd(DEMO_SCATTER).vectors
        data = [outlier_data(fraction=0.3, seed=seed) for seed in range(40, 80)]

        def median_min_cos(cfg):
            return np.median([np.min(np.abs(np.sum(fit(X, cfg).components * truth, axis=0))) for X in data])

        default = median_min_cos(MCPIConfig())
        for n_decay in (3, 4, 10):
            assert median_min_cos(MCPIConfig(n_decay=n_decay)) >= default - 0.01, n_decay

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        X = clean_data(seed=8)
        X[5, 1] = bad
        with pytest.raises(DegenerateInputError):
            fit(X)

    def test_complex_rejected(self):
        # rejected before any cast, so no ComplexWarning drops the imaginary part
        X = clean_data(seed=8) + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="complex128"):
                fit(X)

    def test_overflowing_scatter_rejected(self):
        # X^T X of the input overflows float64 (at n=400 to inf - inf = NaN),
        # but fit runs at unit scale: the same components, sigma times c, and
        # eigenvalues of order 1e320 rounded to inf
        for n in (50, 400):
            X = np.random.default_rng(1).standard_normal((n, 3))
            res, ref = fit(1e160 * X), fit(X)
            assert np.max(np.abs(res.components - ref.components)) <= 1e-12
            assert [d.final_sigma for d in res.diagnostics[:2]] == pytest.approx(
                [1e160 * d.final_sigma for d in ref.diagnostics[:2]], rel=1e-12)
            assert np.all(res.apriori_eigenvalues == np.inf)

    @pytest.mark.parametrize("c", [1e-170, 1e-200, 1e-300])
    def test_underflowing_scatter_rejected(self, c):
        # X^T X / n of the input is exactly 0 (subnormal at 1e-160, where the
        # components drifted), but at unit scale it is not
        X = outlier_data(seed=1)
        assert np.max(np.abs(fit(c * X).components - fit(X).components)) <= 1e-12

    def test_sigma0_beyond_float64_at_unit_scale(self):
        # fit works on X 2^995 here, where sigma0 = 1e300 overflows; a
        # sigma0 that stays finite there gives plain PCA, the large-kernel limit
        X = 2.0**-1000 * outlier_data(seed=1)
        with pytest.raises(ValueError, match=r"sigma0 = 1e\+300 is beyond float64"):
            fit(X, MCPIConfig(sigma0=1e300))
        res = fit(X, MCPIConfig(sigma0=1e5))
        assert np.max(np.abs(res.components - standard_pca(X).components)) <= 1e-12
        assert [d.final_sigma for d in res.diagnostics[:2]] == [1e5 * mcpi.KERNEL_SPAN] * 2

    def test_sigma0_underflowing_at_unit_scale_stops_at_floor(self):
        # fit works on X 2^-997 here, where sigma0 = 1e-300 is 0
        res = fit(1e300 * outlier_data(seed=1), MCPIConfig(sigma0=1e-300))
        for d in res.diagnostics[:2]:
            assert d.sigma_underflow and not d.converged and d.outer_iterations == 0
            assert np.isnan(d.final_sigma)

    def test_orthonormal_components(self):
        for scatter in (DEMO_SCATTER, np.diag(np.arange(10, 0, -1, dtype=float))):
            V = fit(clean_data(seed=8, scatter=scatter)).components
            assert np.max(np.abs(V.T @ V - np.eye(len(scatter)))) <= 1e-12

    def test_apriori_eigenvalues_sorted(self):
        X = clean_data(seed=9)
        res = fit(X)
        assert np.all(np.diff(res.apriori_eigenvalues) <= 0)

    def test_p1_degenerate(self):
        # the only component is the complement of none, for either sign of X
        X = np.abs(np.random.default_rng(10).standard_normal((20, 1))) + 0.5
        for data in (X, -X):
            res = fit(data)
            assert np.array_equal(res.components, [[1.0]])
            assert [d.method for d in res.diagnostics] == ["null_space"]

    def test_frozen_huge_sigma_matches_pca(self):
        X = clean_data(seed=11)
        cfg = MCPIConfig(sigma0=huge_sigma(X), n_decay=1)
        res = fit(X, cfg)
        base = standard_pca(X)
        cos = np.abs(np.sum(res.components * base.components, axis=0))
        assert np.all(cos >= 1.0 - 1e-4)

    def test_deterministic(self):
        X = clean_data(seed=12)
        cfg = MCPIConfig()
        r1 = fit(X, cfg)
        r2 = fit(X, cfg)
        assert r1.components.tobytes() == r2.components.tobytes()
        assert r1.apriori_eigenvalues.tobytes() == r2.apriori_eigenvalues.tobytes()

    def test_sigma_schedule_is_geometric(self, monkeypatch):
        # n_decay sizes geometrically spaced from sigma_0 to KERNEL_SPAN sigma_0
        rounds = record_rounds(monkeypatch)
        X = clean_data(seed=13)
        cfg = MCPIConfig(n_decay=7)
        res = fit(X, cfg)
        apriori = sym_evd(X.T @ X / X.shape[0]).vectors
        for i, component in enumerate(per_component(rounds)):  # iterated components only
            sigma0 = kernel_size_reference(X, list(res.components[:, :i].T), apriori[:, i])
            expected = np.geomspace(sigma0, sigma0 * mcpi.KERNEL_SPAN, cfg.n_decay)
            sigmas = [in_input_units(round_[1], X) for round_ in component]
            assert sigmas == pytest.approx(expected, rel=1e-12)
            assert res.diagnostics[i].final_sigma == pytest.approx(expected[-1], rel=1e-12)

    def test_last_component_via_null_space(self):
        X = clean_data(seed=14)
        res = fit(X)
        assert res.diagnostics[-1].method == "null_space"
        v_last = res.components[:, -1]
        assert np.linalg.norm(res.components[:, :2].T @ v_last) <= 1e-8

    def test_rank_deficient_rejected(self):
        # all-zero data have scale 2^0, so they reach the rank check too
        for X in (np.ones((10, 3)), np.zeros((10, 3))):
            with pytest.raises(DegenerateInputError, match="rank deficient"):
                fit(X, MCPIConfig())

    def test_collinear_columns_rejected_with_ratio(self):
        X = clean_data(seed=8)
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        with pytest.raises(DegenerateInputError, match=r"lambda_min / lambda_max = .*collinear"):
            fit(X)

    def test_n_less_than_p_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit(np.ones((2, 3)), MCPIConfig())

    def test_centering_flag(self):
        rng = np.random.default_rng(15)
        X = clean_data(seed=16) + 50.0
        res = fit(X, MCPIConfig(center=True))
        ref = fit(X - X.mean(axis=0))
        assert np.allclose(res.components, ref.components)

    def test_weight_recompute_matches_algorithm(self):
        # one weight recomputed independently with the exact residual operator
        from corrpca.reference import gaussian_kernel, residual_weights

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

    def test_complex_rejected(self):
        X = clean_data(seed=18).astype(np.complex64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="complex64"):
                standard_pca(X)

    def test_overflowing_scatter_rejected(self):
        # X^T X of the input overflows; its eigenvalues round to inf
        for n in (50, 400):
            X = np.random.default_rng(1).standard_normal((n, 3))
            res = standard_pca(1e160 * X)
            assert np.max(np.abs(res.components - standard_pca(X).components)) <= 1e-12
            assert np.all(res.apriori_eigenvalues == np.inf)

    @pytest.mark.parametrize("c", [1e-170, 1e-200, 1e-300])
    def test_underflowing_scatter_rejected(self, c):
        # a zero scatter would return components far from the unscaled ones;
        # the eigenvalues, of order c^2, round to 0
        X = outlier_data(seed=1)
        res = standard_pca(c * X)
        assert np.max(np.abs(res.components - standard_pca(X).components)) <= 1e-12
        assert np.all(res.apriori_eigenvalues == 0.0)

    def test_no_columns_rejected(self):
        with pytest.raises(DegenerateInputError):
            standard_pca(np.empty((5, 0)))

    @pytest.mark.parametrize("center", ["no", 1, None])
    def test_bad_center_rejected(self, center):
        # the same check, and message, as fit's
        X = clean_data(seed=18)
        with pytest.raises(ValueError, match="center must be a bool"):
            standard_pca(X, center)
        with pytest.raises(ValueError, match="center must be a bool"):
            fit(X, MCPIConfig(center=center))

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
            {"n_decay": 0},
            {"sigma0": 0.0},
            {"sigma0": -np.inf},
            {"sigma0": -1.0},
            {"n_decay": np.nan},
            {"n_decay": None},
            {"n_decay": np.inf},
            {"sigma0": np.nan},
            {"sigma0": np.inf},
            {"n_decay": 2.5},
            {"n_decay": 3.0},
            {"n_decay": "2"},
            {"center": 0},
            {"center": "no"},
            {"center": 1},
            {"center": None},
            {"center": np.int64(0)},
            {"sigma0": "1"},
            {"sigma0": True},
            {"sigma0": np.bool_(True)},
            {"n_decay": True},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            fit(clean_data(n=20, seed=1), MCPIConfig(**kwargs))

    def test_frozen_and_checked_on_replace(self):
        cfg = MCPIConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_decay = 3
        with pytest.raises(ValueError, match="sigma0"):
            dataclasses.replace(cfg, sigma0=-1.0)

    def test_accepts_numpy_bool_center(self):
        X = clean_data(seed=16) + 50.0
        assert np.array_equal(fit(X, MCPIConfig(center=np.bool_(True))).components,
                              fit(X, MCPIConfig(center=True)).components)
        assert np.array_equal(standard_pca(X, np.bool_(True)).components, standard_pca(X, True).components)

    def test_accepts_numpy_integers(self):
        cfg = MCPIConfig(n_decay=np.int64(3))
        assert fit(clean_data(seed=1), cfg).diagnostics[0].final_sigma > 0.0
