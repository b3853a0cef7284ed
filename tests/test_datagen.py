import dataclasses
import math
import warnings

import numpy as np
import pytest

from corrpca.datagen import (
    ExperimentSpec,
    NotPositiveDefiniteError,
    cholesky,
    generate_experiment,
    sample_mvn,
)
from corrpca.linalg import sym_evd

DEMO_SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(4)), np.eye(4))

    def test_hand_computed_2x2(self):
        L = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])

    def test_demo_scatter_reconstruction(self):
        L = cholesky(DEMO_SCATTER)
        assert np.max(np.abs(L @ L.T - DEMO_SCATTER)) <= 1e-10
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSampleMvn:
    def test_moment_check_identity(self):
        spec = ExperimentSpec(n=100_000, p=3, scatter=np.eye(3), seed=0)
        X = sample_mvn(spec)
        emp = X.T @ X / spec.n
        assert np.max(np.abs(emp - np.eye(3))) <= 0.05

    def test_deterministic(self):
        spec = ExperimentSpec(n=50, p=3, scatter=DEMO_SCATTER, seed=99)
        assert np.array_equal(sample_mvn(spec), sample_mvn(spec))

    def test_demo_scale_sanity(self):
        spec = ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, seed=1)
        X = sample_mvn(spec)
        emp = X.T @ X / spec.n
        assert np.max(np.abs(emp - DEMO_SCATTER)) <= 1.5


class TestInjectOutliers:
    """The outlier replacement of ``generate_experiment``."""

    def test_zero_fraction_unchanged(self):
        spec = ExperimentSpec(n=40, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.0, seed=2)
        Y, idx = generate_experiment(spec)
        assert np.array_equal(sample_mvn(spec), Y)
        assert idx.size == 0

    def test_full_replacement(self):
        spec = ExperimentSpec(n=40, p=3, scatter=DEMO_SCATTER, outlier_fraction=1.0, seed=3)
        Y, idx = generate_experiment(spec)
        assert idx.size == 40
        assert not np.any(np.all(sample_mvn(spec) == Y, axis=1))

    def test_five_percent_of_400_is_20(self):
        spec = ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05, seed=4)
        _, idx = generate_experiment(spec)
        assert idx.size == 20
        assert np.unique(idx).size == 20

    def test_untouched_rows_bit_identical(self):
        spec = ExperimentSpec(n=200, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.1, seed=5)
        X = sample_mvn(spec)
        Y, idx = generate_experiment(spec)
        keep = np.setdiff1d(np.arange(200), idx)
        assert np.array_equal(X[keep], Y[keep])
        assert Y.shape == X.shape

    def test_outlier_covariance_literal(self):
        spec = ExperimentSpec(
            n=100_000, p=3, scatter=DEMO_SCATTER, outlier_fraction=1.0, nu=15.0, seed=6
        )
        lam = sym_evd(DEMO_SCATTER).values
        Y, idx = generate_experiment(spec)
        emp = Y.T @ Y / spec.n
        target = spec.nu * np.diag(lam)
        diag_rel = np.abs(np.diag(emp) - np.diag(target)) / np.diag(target)
        assert np.max(diag_rel) <= 0.05

    def test_outlier_covariance_rotated(self):
        spec = ExperimentSpec(
            n=100_000, p=3, scatter=DEMO_SCATTER, outlier_fraction=1.0, nu=15.0, seed=7,
            outlier_basis="rotated",
        )
        Y, _ = generate_experiment(spec)
        emp = Y.T @ Y / spec.n
        target = spec.nu * DEMO_SCATTER
        assert np.max(np.abs(emp - target) / np.abs(target)) <= 0.05

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError, match="outlier_basis"):
            ExperimentSpec(n=10, p=3, scatter=DEMO_SCATTER, seed=8, outlier_basis="sideways")

    def test_outliers_continue_the_sample_stream(self):
        # samples, then replacement indices, then outlier normals, all from one stream
        spec = ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05, seed=7)
        Y, idx = generate_experiment(spec)
        rng = np.random.default_rng(7)
        rng.standard_normal((400, 3))
        assert np.array_equal(idx, np.sort(rng.choice(400, size=20, replace=False)))
        Z = rng.standard_normal((20, 3))
        assert np.array_equal(Y[idx], Z * np.sqrt(spec.nu * sym_evd(DEMO_SCATTER).values))


class TestGenerateExperiment:
    def test_single_stream_determinism(self):
        spec = ExperimentSpec(
            n=100, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05, nu=15.0, seed=9
        )
        X1, i1 = generate_experiment(spec)
        X2, i2 = generate_experiment(spec)
        assert np.array_equal(X1, X2)
        assert np.array_equal(i1, i2)

    def test_clean_path_matches_sample_mvn(self):
        spec = ExperimentSpec(n=100, p=3, scatter=DEMO_SCATTER, seed=10)
        X, idx = generate_experiment(spec)
        assert np.array_equal(X, sample_mvn(spec))
        assert idx.size == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, p=3, scatter=DEMO_SCATTER, outlier_fraction=1.5)
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, p=2, scatter=DEMO_SCATTER)
        for nu in (-1.0, np.nan, np.inf, "2", True):
            with pytest.raises(ValueError, match="nu must be positive and finite"):
                ExperimentSpec(n=10, p=3, scatter=DEMO_SCATTER, nu=nu)
        for fraction in ("0.1", True, np.nan):
            with pytest.raises(ValueError, match="outlier_fraction"):
                ExperimentSpec(n=10, p=3, scatter=DEMO_SCATTER, outlier_fraction=fraction)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n": 2.5}, {"n": 10.0}, {"n": "10"}, {"p": 3.0}, {"seed": 1.5}, {"seed": -1}, {"seed": None},
         {"n": True}, {"seed": False}],
    )
    def test_spec_rejects_non_integer_counts(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            ExperimentSpec(**{"n": 10, "p": 3, "scatter": DEMO_SCATTER, **kwargs})

    def test_spec_accepts_numpy_integers(self):
        spec = ExperimentSpec(n=np.int64(10), p=np.int32(3), scatter=DEMO_SCATTER, seed=np.uint8(4))
        assert generate_experiment(spec)[0].shape == (10, 3)

    @pytest.mark.parametrize("kind", ["non_pd", "non_symmetric", "nan", "wrong_shape", "not_a_matrix"])
    def test_bad_scatter_rejected_at_construction(self, kind):
        scatter = {
            "non_pd": [[1.0, 2.0], [2.0, 1.0]],
            "non_symmetric": [[2.0, 1.0], [0.0, 2.0]],
            "nan": [[2.0, 0.0], [0.0, np.nan]],
            "wrong_shape": np.eye(3),
            "not_a_matrix": {"a": 1},
        }[kind]
        with pytest.raises(ValueError, match="^bad scatter matrix: "):
            ExperimentSpec(n=10, p=2, scatter=scatter)

    def test_complex_scatter_rejected_before_cast(self):
        # its real part, 2 I, is a valid scatter, so a cast would pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^bad scatter matrix: expected a real matrix"):
                ExperimentSpec(n=10, p=2, scatter=[[2, 1j], [1j, 2]])

    def test_frozen_and_checked_on_replace(self):
        spec = ExperimentSpec(n=10, p=3, scatter=DEMO_SCATTER)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.nu = 2.0
        with pytest.raises(ValueError):  # the scatter is a read-only copy
            spec.scatter[0, 0] = 1.0
        with pytest.raises(ValueError, match="nu must be positive"):
            dataclasses.replace(spec, nu=-1.0)
        assert dataclasses.replace(spec, seed=3).seed == 3

    @pytest.mark.parametrize("basis", ["literal", "rotated"])
    def test_cached_factors_keep_draws_bit_identical(self, basis):
        kwargs = dict(n=300, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.1, seed=12,
                      outlier_basis=basis)
        spec = ExperimentSpec(**kwargs)
        first, second = generate_experiment(spec)[0], generate_experiment(spec)[0]
        fresh = generate_experiment(ExperimentSpec(**kwargs))[0]
        assert first.tobytes() == second.tobytes() == fresh.tobytes()
        assert sample_mvn(spec).tobytes() == sample_mvn(ExperimentSpec(**kwargs)).tobytes()

    @pytest.mark.parametrize("basis", ["literal", "rotated"])
    def test_nu_whose_outliers_overflow_rejected(self, basis):
        # trace(DEMO_SCATTER) = 18 bounds every entry of nu DEMO_SCATTER and
        # its eigenvalues, so the largest nu with a finite nu * 18 draws
        # finite outlier rows, and the next float up is rejected
        kwargs = dict(n=40, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.5, outlier_basis=basis)
        nu = float(np.finfo(float).max) / 18.0
        while not nu * 18.0 < np.inf:
            nu = math.nextafter(nu, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, idx = generate_experiment(ExperimentSpec(**kwargs, nu=nu))
        assert idx.size == 20 and np.isfinite(X).all()
        for big in (math.nextafter(nu, np.inf), 1e308):
            with pytest.raises(ValueError, match=r"^nu \* trace\(scatter\) must be finite"):
                ExperimentSpec(**kwargs, nu=big)


def checked_experiment(spec):
    """``generate_experiment`` as its formulas read, every factor computed
    on the call through the checked ``sym_evd`` and ``cholesky``."""
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, spec.p)) @ cholesky(spec.scatter).T
    idx = np.sort(rng.choice(spec.n, size=spec.n_outliers, replace=False))
    Z = rng.standard_normal((idx.size, spec.p))
    if spec.outlier_basis == "literal":
        X[idx] = Z * np.sqrt(spec.nu * sym_evd(spec.scatter).values)
    else:
        X[idx] = Z @ cholesky(spec.nu * spec.scatter).T
    return X, idx


class TestOutlierFactors:
    """A literal-basis draw takes the eigenvalues of the spec's scatter,
    checked when the spec was built, from ``eigh`` alone, without
    ``sym_evd``'s checks, sort and sign rule."""

    @pytest.mark.parametrize("basis", ["literal", "rotated"])
    @pytest.mark.parametrize("seed", range(3))
    def test_draws_match_checked_formulas(self, basis, seed):
        spec = ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05, nu=15.0,
                              seed=seed, outlier_basis=basis)
        X, idx = checked_experiment(spec)
        Y, idy = generate_experiment(spec)
        assert Y.tobytes() == X.tobytes() and idy.tobytes() == idx.tobytes()

    @pytest.mark.parametrize("scatter", [np.eye(3), np.diag([2.0, 2.0, 1.0]), np.diag([4.0, 1.0, 4.0]),
                                         np.eye(10)])
    @pytest.mark.parametrize("seed", range(4))
    def test_tied_eigenvalues(self, scatter, seed):
        # only the sequence of values is used, so the order of tied
        # eigenvectors cannot change a draw
        spec = ExperimentSpec(n=200, p=len(scatter), scatter=scatter, outlier_fraction=0.2,
                              seed=seed)
        X, idx = checked_experiment(spec)
        Y, idy = generate_experiment(spec)
        assert Y.tobytes() == X.tobytes() and idy.tobytes() == idx.tobytes()

    def test_nearly_symmetric_scatter(self):
        # asymmetry within SYMMETRY_TOL passes the spec's check, and the
        # eigensolver reads the same triangle with or without sym_evd's check
        S = np.array(DEMO_SCATTER, dtype=float)
        S[0, 1] += 5e-10
        spec = ExperimentSpec(n=200, p=3, scatter=S, outlier_fraction=0.1, seed=6)
        X, idx = checked_experiment(spec)
        Y, idy = generate_experiment(spec)
        assert Y.tobytes() == X.tobytes() and idy.tobytes() == idx.tobytes()


class TestSpecEquality:
    def test_compare_and_hash_by_identity(self):
        kwargs = dict(n=10, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.3, seed=4)
        a, b = ExperimentSpec(**kwargs), ExperimentSpec(**kwargs)
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1
        generate_experiment(a)
        assert hash(a) == hash(a) and repr(a) == repr(b)
