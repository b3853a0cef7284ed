"""Invariances of ``fit`` under row order, row signs, repeated rows, data
scale and rotations, checked with hypothesis on small contaminated samples.
Each draw gives one sample of p = 3 and one of p = 2: a p = 2 fit is a
single round in a complement of m = 2, whose eigen-step is in closed form.
Fewer rows than columns are checked on their own draws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpca.datagen import ExperimentSpec, generate_experiment
from corrpca.mcpi import MCPIConfig, fit, standard_pca

DEMO_SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])
TWO_SCATTER = np.array([[3.0, 1.0], [1.0, 2.0]])
TOL = 1e-9

samples = st.builds(
    lambda n, seed: [
        generate_experiment(
            ExperimentSpec(n=n, p=len(scatter), scatter=scatter, outlier_fraction=0.05, nu=15.0, seed=seed)
        )[0]
        for scatter in (DEMO_SCATTER, TWO_SCATTER)
    ],
    n=st.integers(min_value=20, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
few = settings(max_examples=5, deadline=None, derandomize=True)


@few
@given(Xs=samples, perm_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_row_permutation(Xs, perm_seed):
    for X in Xs:
        perm = np.random.default_rng(perm_seed).permutation(X.shape[0])
        assert np.max(np.abs(fit(X[perm]).components - fit(X).components)) <= TOL


@few
@given(Xs=samples, flip_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_row_sign_flips(Xs, flip_seed):
    for X in Xs:
        D = np.random.default_rng(flip_seed).choice([-1.0, 1.0], size=(X.shape[0], 1))
        assert np.max(np.abs(fit(D * X).components - fit(X).components)) <= TOL


@few
@given(Xs=samples)
def test_stacked_rows(Xs):
    # every row twice: the same empirical distribution, so the same kernel
    # sizes and fixed points for any n
    for X in Xs:
        assert np.max(np.abs(fit(np.vstack([X, X])).components - fit(X).components)) <= TOL


@few
@given(Xs=samples, c=st.floats(min_value=1e-3, max_value=1e3))
def test_scale(Xs, c):
    # fit works on X scaled to max |x| < 1 by a power of two, so scales that
    # take X^T X past either end of float64 give the same components too
    for X in Xs:
        ref = fit(X).components
        for scale in (c, 2.0**500, 2.0**-500, 1e160, 1e-160, 1e300, 1e-300):
            assert np.max(np.abs(fit(scale * X).components - ref)) <= TOL, scale


@few
@given(Xs=samples, rot_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_rotation(Xs, rot_seed):
    # rows x R are the samples R^T x, so the components are R^T V, each up
    # to the sign that fix_sign picks
    for X in Xs:
        p = X.shape[1]
        R = np.linalg.qr(np.random.default_rng(rot_seed).standard_normal((p, p)))[0]
        W = fit(X @ R).components
        RV = R.T @ fit(X).components
        assert np.max(np.abs(W * np.sign(np.sum(W * RV, axis=0)) - RV)) <= TOL


@st.composite
def wide(draw):
    """1 <= n < p <= 12 rows: Gaussian about a random mean, or integers in
    [-2, 2], with ties, repeated rows and zero columns; times 2^k."""
    p = draw(st.integers(min_value=2, max_value=12))
    n = draw(st.integers(min_value=1, max_value=p - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if draw(st.booleans()):
        X = rng.standard_normal((n, p)) + 3.0 * rng.standard_normal(p)
    else:
        X = rng.integers(-2, 3, size=(n, p)).astype(float)
    return X * 2.0 ** draw(st.integers(min_value=-600, max_value=600))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(X=wide(), center=st.booleans())
def test_fewer_rows_than_columns(X, center):
    # rank r < p is a state, not an error: finite orthonormal components, and
    # the last p - r orthogonal to every (centred) row
    p = X.shape[1]
    robust = fit(X, MCPIConfig(center=center))
    for res in (robust, standard_pca(X, center)):
        V = res.components
        assert np.isfinite(V).all() and np.max(np.abs(V.T @ V - np.eye(p))) <= 1e-10
    Xc = X - X.mean(axis=0) if center else X
    null = robust.components[:, np.linalg.matrix_rank(Xc):]
    assert np.max(np.abs(Xc @ null), initial=0.0) <= 1e-10 * np.max(np.abs(X))
