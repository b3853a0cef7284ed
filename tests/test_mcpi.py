import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from corrpca.datagen import ExperimentSpec, generate_experiment, sample_mvn
from corrpca.correntropy import all_underflowed, rank_one_weights, weighted_scatter
from corrpca import linalg, mcpi
from corrpca.linalg import complement_basis, fix_sign, sym_evd
from corrpca.mcpi import DegenerateInputError, MCPIConfig, fit, standard_pca
from corrpca.metrics import component_alignment
from corrpca.reference import (
    DeflationState,
    build_deflated_operator,
    orthogonalize_against,
    power_iteration,
    residual_weights,
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


def plain_fixed_point(cs, sigma, u, max_iter):
    """Oracle for ``mcpi._fixed_point`` without the secant step: the plain
    loop u <- top eigenvector of the weighted scatter at u, with the same
    stop rule, sign alignment, underflow rule and return tuple (the last
    step's eigenvector matrix V last)."""
    V = None
    for outer in range(max_iter):
        w = rank_one_weights(cs.e, cs.Y @ u, sigma)
        if all_underflowed(w):
            return u, outer, False, True, V
        V = linalg.eigh_vectors(weighted_scatter(cs.Y, w))
        u_new = V[:, -1]
        if float(u_new @ u) < 0.0:
            u_new = -u_new
        step = np.linalg.norm(u_new - u)
        u = u_new
        if step <= mcpi.OUTER_TOL:
            return u, outer + 1, True, False, V
    return u, max_iter, False, False, V


def one_difference_fixed_point(cs, sigma, u, max_iter):
    """Oracle for ``mcpi._fixed_point`` with the one-difference secant step
    alone: with f_k = g_k - x_k and df = f_k - f_{k-1}, the next iterate is
    g_k - gamma (g_k - g_{k-1}), normalised, gamma = df.f_k / df.df, when
    gamma < 1/2, and g_k otherwise and on the first step.  Same stop rule,
    sign alignment, underflow rule and return tuple (the last step's
    eigenvector matrix V last); on a complement with m = 2 ``_fixed_point``
    runs this loop."""
    x = u
    V = g_prev = f_prev = None
    for outer in range(max_iter):
        w = rank_one_weights(cs.e, cs.Y @ x, sigma)
        if all_underflowed(w):
            return u, outer, False, True, V
        V = linalg.eigh_vectors(weighted_scatter(cs.Y, w))
        u = V[:, -1]
        if float(u @ x) < 0.0:
            u = -u
        f = u - x
        if np.linalg.norm(f) <= mcpi.OUTER_TOL:
            return u, outer + 1, True, False, V
        x = u
        if f_prev is not None:
            df = f - f_prev
            dd = float(df @ df)
            gamma = float(df @ f) / dd if 0.0 < dd < np.inf else np.inf
            if gamma < 0.5:
                x = u - gamma * (u - g_prev)
                x = x / np.linalg.norm(x)
        g_prev, f_prev = u, f
    return u, max_iter, False, False, V


def two_difference_fixed_point(cs, sigma, u, max_iter):
    """Oracle for ``mcpi._fixed_point`` written with the checked, allocating
    public helpers: ``rank_one_weights`` checks sigma on every step,
    ``weighted_scatter`` allocates its scaled rows, ``np.linalg.norm`` takes
    the step norms, and each mixing step recomputes its differences.  Its
    eigen-step is ``linalg.eigh_vectors``, a primitive here as in
    ``_fixed_point``, which ``tests/test_linalg.py`` checks against
    ``np.linalg.eigh``.  The
    next iterate is, normalised, the depth-2 mix g_k - g1 (g_k - g_{k-1})
    - g2 (g_{k-1} - g_{k-2}) when m >= 3, two differences exist, their Gram
    determinant is above 1e-2 of the product of their squared norms and
    g1 < 1, g1 + g2 < 1/2; else the secant mix when gamma < 1/2; else g_k.
    Same stop rule, sign alignment, underflow rule and return tuple (the
    last step's eigenvector matrix V last)."""
    x = u
    V = None
    g = []  # the images g_k, newest last
    f = []  # the steps f_k = g_k - x_k, newest last
    for outer in range(max_iter):
        w = rank_one_weights(cs.e, cs.Y @ x, sigma)
        if all_underflowed(w):
            return u, outer, False, True, V
        V = linalg.eigh_vectors(weighted_scatter(cs.Y, w))
        u = V[:, -1]
        if float(u @ x) < 0.0:
            u = -u
        g.append(u)
        f.append(u - x)
        if np.linalg.norm(f[-1]) <= mcpi.OUTER_TOL:
            return u, outer + 1, True, False, V
        x = u
        if len(f) >= 2:
            df = f[-1] - f[-2]
            dd = float(df @ df)
            c = float(df @ f[-1])
            mixed = False
            if cs.Y.shape[1] >= 3 and len(f) >= 3:
                df_prev = f[-2] - f[-3]
                bb = float(df_prev @ df_prev)
                a = float(df @ df_prev)
                det = dd * bb - a * a
                if det > 1e-2 * dd * bb:
                    c_prev = float(df_prev @ f[-1])
                    g1 = (c * bb - c_prev * a) / det
                    g2 = (dd * c_prev - a * c) / det
                    if g1 < 1.0 and g1 + g2 < 0.5:
                        x = u - g1 * (g[-1] - g[-2]) - g2 * (g[-2] - g[-3])
                        x = x / np.linalg.norm(x)
                        mixed = True
            if not mixed:
                gamma = c / dd if 0.0 < dd < np.inf else np.inf
                if gamma < 0.5:
                    x = u - gamma * (g[-1] - g[-2])
                    x = x / np.linalg.norm(x)
    return u, max_iter, False, False, V


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


def handed_down(cs, V):
    """The start ``fit`` hands to the next component, in the original
    coordinates: the second eigenvector of the last eigen-step's weighted
    scatter in the complement ``cs``; None when no eigen-step finished or
    the complement has one dimension, so that nothing is left to hand down."""
    return None if V is None or len(V) < 2 else cs.B @ V[:, -2]


def ith_component(X, components, sigma, v):
    """The next component after the unit vectors in ``components``: the
    round at kernel size ``sigma`` from ``v``, solved to ``mcpi.OUTER_TOL``.
    Returns (direction, diagnostics, the start it hands down:
    ``handed_down``)."""
    cs = complement_of(X, components)
    u, V, diag = mcpi._solve_component(cs, v, sigma, None)
    return fix_sign(cs.B @ u), diag, handed_down(cs, V)


def one_step(monkeypatch, X, components, sigma, v):
    """The direction after a single outer iteration of ``ith_component``."""
    monkeypatch.setattr(mcpi, "OUTER_MAX_ITER", 1)
    return ith_component(X, components, sigma, v)[0]


def one_round_reference(X):
    """Reference for ``fit``: one ``ith_component`` call per component, at
    the kernel size of ``kernel_size_reference`` at the a-priori vector.
    Component 1 starts at its a-priori vector, each later one at the start
    handed down by the component before, or at its a-priori vector when
    that finished no eigen-step.
    It runs the production corrector; ``TestSecantCorrector`` checks that
    against the plain loop.  Returns the iterated components as columns."""
    pairs = sym_evd(X.T @ X / X.shape[0])
    components = []
    start = None
    for i in range(X.shape[1] - 1):
        v = pairs.vectors[:, i]
        sigma = kernel_size_reference(X, components, v)
        v, _, start = ith_component(X, components, sigma, v if start is None else start)
        components.append(v)
    return np.column_stack(components)


def record_rounds(monkeypatch):
    """Patch ``mcpi._fixed_point`` to log every round as (complement set-up,
    sigma, start, u, steps, converged, underflow, V).  The log keeps a copy of
    each complement, since ``fit``'s next chain step overwrites its Y."""
    rounds = []
    solve = mcpi._fixed_point

    def recorded(cs, sigma, u, max_iter):
        result = solve(cs, sigma, u, max_iter)
        rounds.append((dataclasses.replace(cs, Y=cs.Y.copy(order="F")), sigma, u, *result))
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


class TestFirstComponent:
    def test_single_direction_data(self):
        c = 3.0
        X = np.array([[c, 0.0], [-c, 0.0], [c, 0.0], [-c, 0.0]])
        v0 = np.array([1.0, 1.0]) / np.sqrt(2)
        v, diag, _ = ith_component(X, [], 1.0, v0)
        assert diag.converged
        assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-8)

    def test_large_sigma_reduces_to_pca(self):
        X = clean_data(seed=3)
        top = sym_evd(X.T @ X).vectors[:, 0]
        v0 = np.array([1.0, 0.0, 0.0])
        v, diag, _ = ith_component(X, [], huge_sigma(X), v0)
        assert diag.converged
        assert abs_cos(v, top) >= 1.0 - 1e-6

    def test_sign_fixed_and_unit(self):
        X = clean_data(seed=4)
        v, _, _ = ith_component(X, [], 5.0, np.array([0.0, 1.0, 0.0]))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[np.argmax(np.abs(v))] > 0


class TestIthComponent:
    def test_large_sigma_second_eigenvector(self):
        X = clean_data(seed=6)
        pairs = sym_evd(X.T @ X)
        v0 = pairs.vectors[:, 1]
        v, diag, _ = ith_component(X, [pairs.vectors[:, 0]], huge_sigma(X), v0)
        assert diag.converged
        assert abs_cos(v, pairs.vectors[:, 1]) >= 1.0 - 1e-4

    def test_orthogonal_to_prior_components(self):
        X = clean_data(seed=7)
        pairs = sym_evd(X.T @ X)
        prior = pairs.vectors[:, 0]
        v, _, _ = ith_component(X, [prior], 2.0, pairs.vectors[:, 1])
        assert abs_cos(v, prior) <= 1e-8

    def test_tiny_sigma_raises_underflow(self):
        # far below the floor: reported before any step, at the start vector,
        # with no round finished
        v0 = np.array([0.0, -1.0, 0.0])
        v, diag, _ = ith_component(axis_rows(), [], 1e-170, v0)
        assert diag.sigma_underflow and not diag.converged and diag.outer_iterations == 0
        assert np.isnan(diag.final_sigma)
        assert np.array_equal(v, fix_sign(v0))

    def test_underflow_carries_direction_in_original_coordinates(self):
        # above the floor, but every weight underflows on the first step
        X = clean_data(seed=7)
        pairs = sym_evd(X.T @ X)
        prior = pairs.vectors[:, 0]
        v0 = np.ones(3) / np.sqrt(3.0)
        v, diag, _ = ith_component(X, [prior], 1e-6, v0)
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
        # one buffered step of _fixed_point against the same
        # step written with the allocating calls
        rng = np.random.default_rng(31 + p + k)
        scatter = np.diag(np.arange(p, 0, -1, dtype=float))
        X, _ = generate_experiment(ExperimentSpec(n=300, p=p, scatter=scatter, outlier_fraction=0.05,
                                                  nu=15.0, seed=32))
        components = list(np.linalg.qr(rng.standard_normal((p, p)))[0][:, :k].T)
        cs = complement_of(X, components)
        u = cs.coordinates(rng.standard_normal(p))
        sigma = 0.5 * float(np.sqrt(scatter[0, 0]))
        g, steps, _, underflow, V = mcpi._fixed_point(cs, sigma, u, 1)

        V_ref = linalg.eigh_vectors(weighted_scatter(cs.Y, rank_one_weights(cs.e, cs.Y @ u, sigma)))
        ref = V_ref[:, -1]
        if float(ref @ u) < 0.0:
            ref = -ref
        assert (steps, underflow) == (1, False)
        assert g.tobytes() == ref.tobytes()
        assert V.tobytes() == V_ref.tobytes()


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


def axis_data():
    """807 x 4 rows, each nonzero in one column, with a few rows far out on
    the first and third axes.  Every axis is a robust fixed point, and
    components 1 and 2 end on the axis of component 3's a-priori vector, so
    its projection onto their complement is 0, or rounding noise in a
    rotated copy of the data."""
    rng = np.random.default_rng(1)
    blocks = [(0, 155, 7.6), (0, 24, 22.0), (1, 284, 3.4), (2, 80, 4.4), (2, 12, 46.0), (3, 252, 2.7)]
    return np.vstack([np.outer(scale * rng.standard_normal(k), np.eye(4)[col]) for col, k, scale in blocks])


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
            u, steps, _, underflow, _ = plain_fixed_point(cs, d.final_sigma, cs.coordinates(v), 1)
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

    @pytest.mark.xfail(strict=True, reason="_fixed_point mixes along two differences when m >= 3 "
                       "coordinates, not when the data span 3 dimensions: zero columns change the "
                       "rule, and component 4 reaches another fixed point")
    def test_zero_columns_leave_the_fit_unchanged(self):
        spec = ExperimentSpec(n=21, p=5, scatter=np.diag([5.0, 4.0, 3.0, 2.0, 1.0]),
                              outlier_fraction=0.1, seed=20)
        X, _ = generate_experiment(spec)
        res = fit(X, MCPIConfig(center=True))
        padded = fit(np.hstack([X, np.zeros((21, 11))]), MCPIConfig(center=True))
        assert not padded.components[5:, :5].any()
        assert np.max(np.abs(padded.components[:5, :5] - res.components)) <= 1e-10


class TestLeanLoop:
    """``_fixed_point`` checks sigma and forms 2 sigma^2 once per round and
    reuses its buffers; the same loop written with the checked, allocating
    public helpers gives every output bit for bit."""

    @pytest.mark.parametrize(
        "n, p, fraction, seed",
        ORACLE_CASES + [pytest.param(2000, 10, 0.05, seed, id=f"p10-n2000-seed{seed}") for seed in range(2)],
    )
    def test_fit_matches_checked_loop_bit_for_bit(self, monkeypatch, n, p, fraction, seed):
        # every p >= 3 case starts its chain in a complement of m >= 3
        X = outlier_data(n, p, fraction, seed)
        ref = fit_with(monkeypatch, X, two_difference_fixed_point)
        res = fit(X)
        assert res.components.tobytes() == ref.components.tobytes()
        assert res.apriori_eigenvalues.tobytes() == ref.apriori_eigenvalues.tobytes()
        assert res.diagnostics[:-1] == ref.diagnostics[:-1]  # the last one is direct, its final_sigma NaN
        assert res.diagnostics[-1].method == ref.diagnostics[-1].method == "null_space"

    def test_every_eigen_step_goes_through_the_linalg_attribute(self, monkeypatch):
        # so a tracer that wraps linalg.eigh_vectors sees each one
        sizes = []
        step = linalg.eigh_vectors
        monkeypatch.setattr(linalg, "eigh_vectors", lambda S: sizes.append(len(S)) or step(S))
        res = fit(outlier_data(seed=1))
        assert len(sizes) == total_outer_iterations(res)
        assert sorted(set(sizes)) == [2, 3]

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_bad_kernel_size_rejected_before_any_step(self, monkeypatch, sigma):
        def no_step(*args, **kwargs):
            raise AssertionError("an outer step ran")

        monkeypatch.setattr(mcpi, "weighted_scatter", no_step)
        cs = mcpi._Complement.of(np.eye(3), outlier_data(seed=1))
        u = cs.coordinates(np.ones(3))
        for max_iter in (0, mcpi.OUTER_MAX_ITER):
            with pytest.raises(ValueError, match="kernel size"):
                mcpi._fixed_point(cs, sigma, u, max_iter)


class TestWorkingMemory:
    """Besides the caller's input, ``fit`` holds one n x p array, O(n)
    vectors and one block of the scatter's scaled rows; numpy reports its
    allocations to tracemalloc."""

    @staticmethod
    def traced_peak(X):
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fit(X)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()

    @pytest.mark.parametrize("p, bound", [(3, 2.4), (10, 1.6), (30, 1.3)])
    def test_traced_peak_is_one_array_vectors_and_a_block(self, p, bound):
        # one n x p array, the vectors e and t and a 256 KiB block: 2.22,
        # 1.48 and 1.17 times the input at p = 3, 10 and 30 (two n x p arrays
        # read 2.68 and 2.21 at p = 3 and 10)
        X = outlier_data(n=20000, p=p, seed=1)
        fit(X[:2000])  # first calls out of the way
        assert self.traced_peak(X) <= bound * X.nbytes


class TestComplementChain:
    """``fit`` steps from the complement of k components to that of k + 1
    inside it, along the other eigenvectors of the last eigen-step; the same
    loop with every complement built from scratch from the found set, and
    each later component started at the handed-down vector, gives the same
    components and diagnostics."""

    @staticmethod
    def from_scratch_fit(X):
        apriori = sym_evd(X.T @ X / X.shape[0]).vectors
        components, diags = [], []
        start = None
        for i in range(X.shape[1] - 1):
            cs = complement_of(X, components)
            u, V, diag = mcpi._solve_component(cs, apriori[:, i], None,
                                               None if start is None else cs.coordinates(start))
            components.append(fix_sign(cs.B @ u))
            diags.append(diag)
            start = handed_down(cs, V)
        components.append(fix_sign(complement_of(X, components).B[:, 0]))
        return np.column_stack(components), diags

    @pytest.mark.parametrize("p", [3, 10])
    def test_matches_complements_from_scratch(self, p):
        X = outlier_data(p=p, seed=3)
        V, diags = self.from_scratch_fit(X)
        res = fit(X)
        assert np.max(np.abs(res.components - V)) <= 1e-12
        # the iterated components' diagnostics; the kernel size is a median
        # taken in another basis of the same complement, so final_sigma may
        # differ by rounding
        for got, want in zip(res.diagnostics, diags):
            assert {**got.as_dict(), "final_sigma": None} == {**want.as_dict(), "final_sigma": None}
            assert got.final_sigma == pytest.approx(want.final_sigma, rel=1e-12)

    @pytest.mark.parametrize("p", [3, 10, 30])
    def test_chain_bases_are_orthonormal(self, monkeypatch, p):
        # every complement basis the chain builds from the eigen-steps is
        # orthonormal and orthogonal to the components found before it
        rounds = record_rounds(monkeypatch)
        X = outlier_data(n=max(400, 20 * p), p=p, seed=3)
        V = fit(X).components
        components = per_component(rounds)
        assert len(components) == p - 1
        for k, component in enumerate(components):
            B = component[0][0].B
            assert B.shape == (p, p - k)
            assert np.max(np.abs(B.T @ B - np.eye(p - k))) <= 1e-14
            assert np.max(np.abs(V[:, :k].T @ B), initial=0.0) <= 1e-14
        assert np.max(np.abs(V.T @ V - np.eye(p))) <= 1e-14

    @pytest.mark.parametrize("seed", [1, 3])
    def test_later_components_start_at_the_handed_down_axis(self, monkeypatch, seed):
        # the round of component k >= 2 starts at the last coordinate axis of
        # its complement, whose basis vector there is the second eigenvector
        # of component k - 1's last eigen-step
        rounds = record_rounds(monkeypatch)
        X = outlier_data(p=10, seed=seed)
        fit(X)
        components = per_component(rounds)
        assert [len(component) for component in components] == [1] * 9
        for (before,), (after,) in zip(components, components[1:]):
            cs, _, start = after[:3]
            m = cs.B.shape[1]
            assert np.array_equal(start, np.eye(m)[-1])
            last_cs, last_V = before[0], before[7]
            assert np.max(np.abs(cs.B[:, -1] - last_cs.B @ last_V[:, -2])) <= 1e-14

    def test_no_eigen_step_hands_down_the_apriori_start(self, monkeypatch):
        # every weight of component 1 underflows on the first step at 1e-6:
        # no eigen-step finished, so component 2 starts at its a-priori vector
        rounds = record_rounds(monkeypatch)
        X = clean_data(seed=9)
        res = fit(X, MCPIConfig(sigma0=1e-6))
        (first,), (second,) = per_component(rounds)
        assert first[4] == 0 and first[6] and first[7] is None
        apriori = mcpi._scatter_evd(X, False)[2].vectors
        cs, _, start = second[:3]
        assert np.array_equal(start, cs.coordinates(apriori[:, 1]))
        assert np.array_equal(res.components[:, 0], fix_sign(apriori[:, 0]))

    @pytest.mark.parametrize("sigma0", [None, 1.0])
    @pytest.mark.parametrize("data", ["zeros", "ones", "collinear"])
    def test_stopped_components_keep_their_apriori_direction(self, data, sigma0):
        # a component that stopped before any eigen-step keeps its
        # a-priori vector projected off the components before it, and the
        # flags of each case are those of a fit that hands nothing down
        X = {"zeros": np.zeros((10, 3)), "ones": np.ones((10, 3))}.get(data)
        if X is None:
            X = clean_data(seed=8)
            X = np.column_stack([X, X[:, 0] + X[:, 1]])
        res = fit(X, MCPIConfig(sigma0=sigma0))
        # (converged, sigma_underflow, iterated) per iterated component
        expected = {
            ("zeros", None): [(False, True, False)] * 2,
            ("zeros", 1.0): [(False, True, False)] * 2,
            ("ones", None): [(False, True, False)] * 2,
            ("ones", 1.0): [(True, False, True), (False, True, False)],
            ("collinear", None): [(True, False, True)] * 2 + [(False, True, False)],
            ("collinear", 1.0): [(True, False, True)] * 3,
        }[data, sigma0]
        diags = res.diagnostics[:-1]
        assert [(d.converged, d.sigma_underflow, d.outer_iterations > 0) for d in diags] == expected
        apriori = mcpi._scatter_evd(X, False)[2].vectors
        for i, d in enumerate(diags):
            if d.outer_iterations == 0:
                ref = fix_sign(orthogonalize_against(apriori[:, i], list(res.components[:, :i].T)))
                assert np.max(np.abs(res.components[:, i] - ref)) <= 1e-12
        assert np.max(np.abs(res.components.T @ res.components - np.eye(X.shape[1]))) <= 1e-12
        if data == "collinear":
            null = np.array([1.0, 1.0, 0.0, -1.0]) / np.sqrt(3.0)
            assert abs(res.components[:, -1] @ null) == pytest.approx(1.0, abs=1e-12)


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

    def test_result_is_fixed_point_at_final_sigma(self):
        X, _ = generate_experiment(ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05,
                                                  nu=15.0, seed=3))
        res = fit(X)
        for i, d in enumerate(res.diagnostics[:-1]):
            v = res.components[:, i]
            v_next, _, _ = ith_component(X, list(res.components[:, :i].T), d.final_sigma, v)
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
        # reference: each component's one round, solved to OUTER_TOL
        scatter = DEMO_SCATTER if p == 3 else np.diag(np.arange(p, 0, -1, dtype=float))
        X, _ = generate_experiment(ExperimentSpec(n=400, p=p, scatter=scatter, outlier_fraction=fraction,
                                                  nu=15.0, seed=5, outlier_basis=basis))
        ref = one_round_reference(X)
        V = fit(X).components
        assert np.max(np.abs(V[:, :-1] - ref)) <= 1e-6

    @pytest.mark.parametrize("p", [3, 10])
    def test_default_is_one_round_at_the_final_size(self, monkeypatch, p):
        # one round per iterated component, at the kernel size taken at the
        # a-priori vector, bit for bit; component 1 starts at its a-priori
        # vector, every later one at the last axis of its complement, the
        # axis the component before handed down.  At that size the final
        # weights spread over many rows.
        rounds = record_rounds(monkeypatch)
        X = outlier_data(p=p)
        res = fit(X)
        components = per_component(rounds)
        assert [len(component) for component in components] == [1] * (p - 1)
        apriori = mcpi._scatter_evd(X, False)[2].vectors
        for i, ((round_,), d) in enumerate(zip(components, res.diagnostics)):
            cs, sigma, start = round_[:3]
            prior = cs.coordinates(apriori[:, i])
            assert np.array_equal(start, prior if i == 0 else np.eye(p - i)[-1])
            assert sigma == mcpi._kernel_size(cs, prior, mcpi.EPS * cs.e_max)
            assert d.final_sigma == in_input_units(sigma, X)
            assert d.outer_iterations == round_[4] and d.converged and not d.sigma_underflow
            ref = kernel_size_reference(X, list(res.components[:, :i].T), apriori[:, i])
            assert d.final_sigma == pytest.approx(ref, rel=1e-12)
            found = res.components[:, :i + 1]
            w = residual_weights(X, np.eye(p) - found @ found.T, d.final_sigma)
            assert np.sum(w) ** 2 / np.sum(w * w) >= X.shape[0] / 4

    def test_small_samples_converge(self):
        # n = 20..80 at 5% outliers, where the final-size objective can have
        # several attracting fixed points: every iterated component converges
        for seed in range(1000, 1200):
            res = fit(outlier_data(n=20 + (seed - 1000) % 61, seed=seed))
            assert all(d.converged and not d.sigma_underflow for d in res.diagnostics[:-1]), seed

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
        # the kernel size is KERNEL_SCALE times the RMS of the residuals x_3
        X = axis_rows()
        res = fit(X)
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

    @pytest.mark.parametrize("data", ["demo", "axis"])
    def test_tiny_sigma_ends_as_underflow(self, data):
        # at sigma0 = 1e-170, 2 sigma^2 is 0 and a row along u would get
        # weight 0/0; on the axis data such rows keep weight 1 at any sigma,
        # so only the floor stops the component
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
        # level, so they would keep weight below the floor too and a round
        # at 4e-8 would report convergence, its direction set by those rows
        # and the rounding of e - t^2 alone; the floor stops component 2
        # before that round
        X = with_rows_along_second_apriori(clean_data(seed=9))
        res = fit(X, MCPIConfig(sigma0=4e-8))
        d = res.diagnostics[1]
        assert d.sigma_underflow and not d.converged and d.outer_iterations == 0 and np.isnan(d.final_sigma)
        cs = complement_of(X, [res.components[:, 0]])
        assert 2.0 * 4e-8**2 <= np.finfo(float).eps * cs.e_max
        w = rank_one_weights(cs.e, cs.Y @ cs.coordinates(res.components[:, 1]), 4e-8)
        assert not all_underflowed(w)

    def test_underflow_reported(self):
        res = fit(clean_data(seed=9), MCPIConfig(sigma0=1e-6))
        assert all(d.sigma_underflow and not d.converged for d in res.diagnostics[:2])
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-8

    def test_no_finished_round_reports_nan_sigma(self):
        # every weight of component 1 underflows on the first step at 1e-6,
        # so the round does not finish and no kernel size is reported
        d = fit(clean_data(seed=9), MCPIConfig(sigma0=1e-6)).diagnostics[0]
        assert d.sigma_underflow and d.outer_iterations == 0 and np.isnan(d.final_sigma)

    @pytest.mark.parametrize("seed", [0, 8])
    def test_handed_down_start_keeps_the_robust_fixed_point(self, seed):
        # n=400 at 30% outliers: components 2-3 have several converged fixed
        # points here, and a start at the second a-priori vector ended at the
        # worse one (min |cos| 0.781 on seed 0, 0.903 on seed 8)
        truth = sym_evd(DEMO_SCATTER).vectors
        res = fit(outlier_data(fraction=0.3, seed=seed))
        assert all(d.converged for d in res.diagnostics)
        assert component_alignment(res.components, truth).min_abs_cos >= 0.94

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

    def test_overflowing_scatter_fitted(self):
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
    def test_underflowing_scatter_fitted(self, c):
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
        res = fit(X, MCPIConfig(sigma0=4e3))
        assert np.max(np.abs(res.components - standard_pca(X).components)) <= 1e-12
        assert [d.final_sigma for d in res.diagnostics[:2]] == [4e3] * 2

    @pytest.mark.parametrize("c", [1e-200, 1.0, 1e200])
    def test_sigma0_is_the_kernel_size_of_the_round(self, monkeypatch, c):
        # the round runs at sigma0 2^-e on X 2^-e and reports sigma0 itself,
        # bit for bit, at any scale of the data
        rounds = record_rounds(monkeypatch)
        X = c * outlier_data(seed=1)
        sigma0 = 2.5 * c
        res = fit(X, MCPIConfig(sigma0=sigma0))
        assert [in_input_units(round_[1], X) for round_ in rounds] == [sigma0] * 2
        for d in res.diagnostics[:-1]:
            assert d.converged and d.final_sigma == sigma0

    def test_underflow_within_the_round_keeps_the_last_step_with_weights(self, monkeypatch):
        # every weight underflows on step 3 of component 1 (patched): it keeps
        # the image of step 2, reports sigma_underflow and no kernel size, and
        # hands step 2's eigenvectors down the chain; a round cut at two
        # steps ends at the same image but keeps its kernel size and reports
        # only that it did not converge
        X = outlier_data(seed=3)
        with monkeypatch.context() as m:
            m.setattr(mcpi, "OUTER_MAX_ITER", 2)
            cut = fit(X)
        step = itertools.count(1)
        monkeypatch.setattr(mcpi, "all_underflowed", lambda w: next(step) == 3)
        rounds = record_rounds(monkeypatch)
        res = fit(X)
        cs, sigma, start = rounds[0][:3]
        g, steps, _, _, V = two_difference_fixed_point(cs, sigma, start, 2)
        assert steps == 2
        assert np.array_equal(res.components[:, 0], fix_sign(cs.B @ g))
        assert np.array_equal(rounds[1][0].B, cs.B @ V[:, :-1])
        d = res.diagnostics[0]
        assert (d.outer_iterations, d.converged, d.sigma_underflow) == (2, False, True)
        assert np.isnan(d.final_sigma)
        d = cut.diagnostics[0]
        assert (d.outer_iterations, d.converged, d.sigma_underflow) == (2, False, False)
        assert d.final_sigma == in_input_units(sigma, X)
        assert np.array_equal(cut.components[:, 0], res.components[:, 0])

    def test_sigma0_beyond_float64_raises_before_any_component(self, monkeypatch):
        def solved(*args):
            raise AssertionError("a component was solved before sigma0 was checked")

        monkeypatch.setattr(mcpi, "_solve_component", solved)
        with pytest.raises(ValueError, match="beyond float64"):
            fit(2.0**-1000 * outlier_data(seed=1), MCPIConfig(sigma0=1e300))

    def test_apriori_vector_in_the_span_of_found_components(self):
        # component 3's a-priori vector projects to 0 on the complement of
        # components 1 and 2; it is sized and started at the handed-down axis
        res = fit(axis_data())
        assert all(d.converged for d in res.diagnostics)
        V = res.components
        assert np.max(np.abs(V.T @ V - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_axis_data_rotation_equivariant(self, seed):
        # in a rotated copy that projection is rounding noise, not 0; it
        # must not set the kernel size
        X = axis_data()
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))[0]
        res, rotated = fit(X), fit(X @ Q.T)
        back = Q.T @ rotated.components
        back *= np.sign(np.sum(back * res.components, axis=0))  # equal up to sign
        assert np.max(np.abs(back - res.components)) <= 1e-12
        for got, want in zip(rotated.diagnostics[:-1], res.diagnostics[:-1]):
            assert got.final_sigma == pytest.approx(want.final_sigma, rel=1e-12)

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
        cfg = MCPIConfig(sigma0=huge_sigma(X))
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

    def test_last_component_via_null_space(self):
        X = clean_data(seed=14)
        res = fit(X)
        assert res.diagnostics[-1].method == "null_space"
        v_last = res.components[:, -1]
        assert np.linalg.norm(res.components[:, :2].T @ v_last) <= 1e-8

    @staticmethod
    def stopped_before_any_round(d):
        return (d.sigma_underflow and not d.converged and d.outer_iterations == 0
                and np.isnan(d.final_sigma))

    def test_rank_deficient_fitted(self):
        for sigma0 in (None, 1.0):
            # all-zero data (scale 2^0): no complement holds variance, so
            # every iterated component stops before any round, whatever
            # sigma0 is, and the fit is the identity
            res = fit(np.zeros((10, 3)), MCPIConfig(sigma0=sigma0))
            assert np.array_equal(res.components, np.eye(3))
            assert all(self.stopped_before_any_round(d) for d in res.diagnostics[:2])
            last = res.diagnostics[2]
            assert last.method == "null_space" and not last.sigma_underflow
            # rank-1 data: the one direction with variance comes first; the
            # complement after it holds only the chain's rounding (row
            # energies ~1e-31), which stops component 2 before any round
            res = fit(np.ones((10, 3)), MCPIConfig(sigma0=sigma0))
            assert np.max(np.abs(res.components.T @ res.components - np.eye(3))) <= 1e-12
            assert abs(res.components[:, 0] @ np.ones(3)) == pytest.approx(np.sqrt(3.0), rel=1e-12)
            first, second, last = res.diagnostics
            if sigma0 is None:
                # its residuals are 0, so the default kernel size is 0: it
                # stops at the floor on its a-priori vector
                assert self.stopped_before_any_round(first)
            else:
                # every weight is 1 at any sigma, and the round keeps that vector
                assert first.converged and not first.sigma_underflow
            assert self.stopped_before_any_round(second)
            assert last.method == "null_space" and not last.sigma_underflow

    def test_collinear_columns_fitted(self):
        # x4 = x1 + x2: the direction without variance is the last component,
        # and the component before it, whose residuals are 0, stops at the floor
        X = clean_data(seed=8)
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        res = fit(X)
        null = np.array([1.0, 1.0, 0.0, -1.0]) / np.sqrt(3.0)
        assert abs(res.components[:, -1] @ null) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(res.components.T @ res.components - np.eye(4))) <= 1e-12
        assert [d.sigma_underflow for d in res.diagnostics] == [False, False, True, False]
        assert [d.converged for d in res.diagnostics] == [True, True, False, True]

    def test_columns_differing_in_scale_fitted(self):
        # lambda_min / lambda_max of X^T X is ~1e-13 here, yet no column is
        # collinear: every component converges and the small column is its own axis
        X = clean_data(seed=8)
        X[:, 2] *= 1e-6
        res = fit(X)
        assert all(d.converged and not d.sigma_underflow for d in res.diagnostics)
        assert abs(res.components[2, 2]) == pytest.approx(1.0, abs=1e-10)
        ref = standard_pca(X).components
        assert np.min(np.abs(np.sum(res.components * ref, axis=0))) >= 0.99

    def test_n_less_than_p_fitted(self):
        # n < p is rank-deficient data: at rank r, components r to p - 1 stop
        # at the floor, and the last p - r are orthogonal to every row
        for X, r, flags in [(np.ones((2, 3)), 1, [True, True, False]),
                            (np.random.default_rng(3).standard_normal((2, 3)), 2, [False, True, False])]:
            res = fit(X, MCPIConfig())
            V = res.components
            assert np.max(np.abs(V.T @ V - np.eye(3))) <= 1e-12
            assert np.max(np.abs(X @ V[:, r:])) <= 1e-12 * np.max(np.abs(X))
            assert [d.sigma_underflow for d in res.diagnostics] == flags

    @pytest.mark.xfail(strict=True, reason="the floor is one ulp of a complement's e_max, but e - t^2 "
                       "is off by a few ulps of e: a kernel sized at rounding runs a round that "
                       "leaves the row span")
    def test_rank_deficient_data_on_spread_column_scales_keep_the_row_span(self):
        rng = np.random.default_rng(904)
        X = rng.standard_normal((3, 6)) * 10.0 ** rng.integers(-5, 6, size=6)
        X = np.vstack([X, X])  # n = p = 6, rank 3
        V = fit(X).components
        assert np.max(np.abs(X @ V[:, 3:])) <= 1e-8 * np.max(np.abs(X))

    def test_centering_flag(self):
        rng = np.random.default_rng(15)
        X = clean_data(seed=16) + 50.0
        res = fit(X, MCPIConfig(center=True))
        ref = fit(X - X.mean(axis=0))
        assert np.allclose(res.components, ref.components)

    @pytest.mark.parametrize("seed", range(5))
    def test_centred_fit_is_independent_of_the_input_layout(self, seed):
        # the unit-scale copy is column-major whatever the input's layout, so
        # the column means, and every output after them, have the same bits
        X = outlier_data(seed=seed) + 5.0
        F = np.asfortranarray(X)
        for a, b in [(fit(X, MCPIConfig(center=True)), fit(F, MCPIConfig(center=True))),
                     (standard_pca(X, center=True), standard_pca(F, center=True))]:
            assert a.components.tobytes() == b.components.tobytes()
            assert a.apriori_eigenvalues.tobytes() == b.apriori_eigenvalues.tobytes()
            assert repr(a.diagnostics) == repr(b.diagnostics)  # repr: NaN != NaN

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
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

    def test_overflowing_scatter_fitted(self):
        # X^T X of the input overflows; its eigenvalues round to inf
        for n in (50, 400):
            X = np.random.default_rng(1).standard_normal((n, 3))
            res = standard_pca(1e160 * X)
            assert np.max(np.abs(res.components - standard_pca(X).components)) <= 1e-12
            assert np.all(res.apriori_eigenvalues == np.inf)

    @pytest.mark.parametrize("c", [1e-170, 1e-200, 1e-300])
    def test_underflowing_scatter_fitted(self, c):
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
            {"sigma0": 0},
            {"sigma0": 0.0},
            {"sigma0": -np.inf},
            {"sigma0": -1.0},
            {"sigma0": -0.0},
            {"sigma0": -1},
            {"sigma0": np.float32(np.inf)},
            {"sigma0": np.nan},
            {"sigma0": np.inf},
            {"sigma0": np.int64(0)},
            {"sigma0": 1.0 + 0.0j},
            {"sigma0": [1.0]},
            {"center": 0},
            {"center": "no"},
            {"center": 1},
            {"center": None},
            {"center": np.int64(0)},
            {"sigma0": "1"},
            {"sigma0": True},
            {"sigma0": np.bool_(True)},
            {"center": 1.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            fit(clean_data(n=20, seed=1), MCPIConfig(**kwargs))

    def test_frozen_and_checked_on_replace(self):
        cfg = MCPIConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.center = True
        with pytest.raises(ValueError, match="sigma0"):
            dataclasses.replace(cfg, sigma0=-1.0)

    def test_accepts_numpy_bool_center(self):
        X = clean_data(seed=16) + 50.0
        assert np.array_equal(fit(X, MCPIConfig(center=np.bool_(True))).components,
                              fit(X, MCPIConfig(center=True)).components)
        assert np.array_equal(standard_pca(X, np.bool_(True)).components, standard_pca(X, True).components)

    def test_accepts_numpy_integers(self):
        cfg = MCPIConfig(sigma0=np.int64(3))
        assert fit(clean_data(seed=1), cfg).diagnostics[0].final_sigma == 3.0
