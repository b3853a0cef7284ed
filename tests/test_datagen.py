import numpy as np
import pytest

from corrpca.datagen import (
    ExperimentSpec,
    NotPositiveDefiniteError,
    cholesky,
    generate_experiment,
    inject_outliers,
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
    def eigvals(self):
        return sym_evd(DEMO_SCATTER).values

    def test_zero_fraction_unchanged(self):
        spec = ExperimentSpec(n=40, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.0, seed=2)
        X = sample_mvn(spec)
        Y, idx = inject_outliers(X, spec, self.eigvals())
        assert np.array_equal(X, Y)
        assert idx.size == 0

    def test_full_replacement(self):
        spec = ExperimentSpec(n=40, p=3, scatter=DEMO_SCATTER, outlier_fraction=1.0, seed=3)
        X = sample_mvn(spec)
        Y, idx = inject_outliers(X, spec, self.eigvals())
        assert idx.size == 40
        assert not np.any(np.all(X == Y, axis=1))

    def test_five_percent_of_400_is_20(self):
        spec = ExperimentSpec(n=400, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.05, seed=4)
        X = sample_mvn(spec)
        Y, idx = inject_outliers(X, spec, self.eigvals())
        assert idx.size == 20
        assert np.unique(idx).size == 20

    def test_untouched_rows_bit_identical(self):
        spec = ExperimentSpec(n=200, p=3, scatter=DEMO_SCATTER, outlier_fraction=0.1, seed=5)
        X = sample_mvn(spec)
        Y, idx = inject_outliers(X, spec, self.eigvals())
        keep = np.setdiff1d(np.arange(200), idx)
        assert np.array_equal(X[keep], Y[keep])
        assert Y.shape == X.shape

    def test_outlier_covariance_literal(self):
        spec = ExperimentSpec(
            n=100_000, p=3, scatter=DEMO_SCATTER, outlier_fraction=1.0, nu=15.0, seed=6
        )
        X = sample_mvn(spec)
        lam = self.eigvals()
        Y, idx = inject_outliers(X, spec, lam)
        emp = Y.T @ Y / spec.n
        target = spec.nu * np.diag(lam)
        diag_rel = np.abs(np.diag(emp) - np.diag(target)) / np.diag(target)
        assert np.max(diag_rel) <= 0.05

    def test_outlier_covariance_rotated(self):
        spec = ExperimentSpec(
            n=100_000, p=3, scatter=DEMO_SCATTER, outlier_fraction=1.0, nu=15.0, seed=7
        )
        X = sample_mvn(spec)
        Y, _ = inject_outliers(X, spec, self.eigvals(), basis="rotated")
        emp = Y.T @ Y / spec.n
        target = spec.nu * DEMO_SCATTER
        assert np.max(np.abs(emp - target) / np.abs(target)) <= 0.05

    def test_rejects_bad_basis(self):
        spec = ExperimentSpec(n=10, p=3, scatter=DEMO_SCATTER, seed=8)
        with pytest.raises(ValueError):
            inject_outliers(sample_mvn(spec), spec, self.eigvals(), basis="sideways")


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
            ExperimentSpec(n=10, p=3, scatter=DEMO_SCATTER, outlier_fraction=1.5).validate()
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, p=2, scatter=DEMO_SCATTER).validate()
        for nu in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="nu must be positive and finite"):
                ExperimentSpec(n=10, p=3, scatter=DEMO_SCATTER, nu=nu).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [{"n": 2.5}, {"n": 10.0}, {"n": "10"}, {"p": 3.0}, {"seed": 1.5}, {"seed": -1}, {"seed": None}],
    )
    def test_spec_rejects_non_integer_counts(self, kwargs):
        spec = ExperimentSpec(**{"n": 10, "p": 3, "scatter": DEMO_SCATTER, **kwargs})
        with pytest.raises(ValueError, match="must be an integer"):
            spec.validate()

    def test_spec_accepts_numpy_integers(self):
        spec = ExperimentSpec(n=np.int64(10), p=np.int32(3), scatter=DEMO_SCATTER, seed=np.uint8(4))
        assert generate_experiment(spec)[0].shape == (10, 3)
