"""Seeded synthetic data: Gaussian samples with a given scatter matrix and
i.i.d. outlier replacement.

All randomness for one dataset comes from a single PCG64 stream seeded by
the spec, drawn in a fixed order: the n x p sample block (row-major), then
the replacement indices, then the outlier block.  Normal deviates use
numpy's ziggurat via ``Generator.standard_normal``, so a seed pins the
dataset bit-for-bit within this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_integer, check_symmetric, sym_evd


class NotPositiveDefiniteError(ValueError):
    """Cholesky found the matrix not positive definite."""


@dataclass
class ExperimentSpec:
    n: int
    p: int
    scatter: np.ndarray
    outlier_fraction: float = 0.0
    nu: float = 15.0
    seed: int = 0

    def validate(self) -> None:
        check_integer("n", self.n, 1)
        check_integer("p", self.p, 1)
        check_integer("seed", self.seed, 0)
        scatter = np.asarray(self.scatter, dtype=float)
        if scatter.shape != (self.p, self.p):
            raise ValueError(f"scatter must be {self.p} x {self.p}, got {scatter.shape}")
        check_symmetric(scatter)
        if not (0.0 <= self.outlier_fraction <= 1.0):
            raise ValueError("outlier_fraction must be in [0, 1]")
        if not (0.0 < self.nu < np.inf):
            raise ValueError(f"nu must be positive and finite, got {self.nu}")

    @property
    def n_outliers(self) -> int:
        return int(round(self.outlier_fraction * self.n))


def cholesky(A: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = A for symmetric positive definite A."""
    check_symmetric(A)
    try:
        return np.linalg.cholesky(np.asarray(A, dtype=float))
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(str(err)) from err


def sample_mvn(spec: ExperimentSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """n rows drawn from N(0, scatter): each row is L z with z standard normal."""
    spec.validate()
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    L = cholesky(np.asarray(spec.scatter, dtype=float))
    Z = rng.standard_normal((spec.n, spec.p))
    return Z @ L.T


def inject_outliers(
    X: np.ndarray,
    spec: ExperimentSpec,
    true_eigvals: np.ndarray,
    rng: np.random.Generator | None = None,
    basis: str = "literal",
) -> tuple[np.ndarray, np.ndarray]:
    """Replace round(fraction * n) rows with draws from the outlier law.

    ``basis="literal"`` draws from N(0, nu * diag(eigvals)) in data
    coordinates; ``basis="rotated"`` uses the full covariance nu * scatter
    instead.  Returns (new matrix, sorted replaced indices); untouched rows
    are bit-identical to the input.
    """
    spec.validate()
    if basis not in ("literal", "rotated"):
        raise ValueError(f"basis must be 'literal' or 'rotated', got {basis!r}")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    X = np.asarray(X, dtype=float)
    eigvals = np.asarray(true_eigvals, dtype=float)
    if np.any(eigvals <= 0):
        raise ValueError("true eigenvalues must be positive")

    k = spec.n_outliers
    out = X.copy()
    if k == 0:
        return out, np.empty(0, dtype=int)
    idx = np.sort(rng.choice(X.shape[0], size=k, replace=False))
    Z = rng.standard_normal((k, spec.p))
    if basis == "literal":
        eps = Z * np.sqrt(spec.nu * eigvals)[None, :]
    else:
        eps = Z @ cholesky(spec.nu * np.asarray(spec.scatter, dtype=float)).T
    out[idx] = eps
    return out, idx


def generate_experiment(
    spec: ExperimentSpec, basis: str = "literal"
) -> tuple[np.ndarray, np.ndarray]:
    """Samples plus outliers from one seeded stream; returns (X, outlier idx)."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    X = sample_mvn(spec, rng)
    eigvals = sym_evd(np.asarray(spec.scatter, dtype=float)).values
    return inject_outliers(X, spec, eigvals, rng, basis)
