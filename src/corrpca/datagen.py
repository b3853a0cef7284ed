"""Seeded synthetic data: Gaussian samples with a given scatter matrix and
i.i.d. outlier replacement.

An ``ExperimentSpec`` describes one dataset completely and is checked when
it is built; ``generate_experiment`` draws it.  All randomness for one
dataset comes from a single PCG64 stream seeded by the spec, drawn in a
fixed order: the n x p sample block (row-major), then the replacement
indices, then the outlier block.  Normal deviates use numpy's ziggurat via
``Generator.standard_normal``, so a seed pins the dataset bit-for-bit within
this implementation.

A spec's scatter is checked once, when the spec is built, so a literal-basis
draw takes the scatter's eigenvalues straight from ``numpy.linalg.eigh``,
without ``sym_evd``'s checks and without sorting or sign-fixing the
eigenvectors it does not use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import as_real, check_integer, check_positive, check_symmetric, is_real


# The values of ``ExperimentSpec.outlier_basis``, and the choices of the CLI's
# ``--outlier-basis``.
OUTLIER_BASES = ("literal", "rotated")


class NotPositiveDefiniteError(ValueError):
    """Cholesky found the matrix not positive definite."""


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One synthetic dataset, frozen and checked on construction (and so on
    ``dataclasses.replace``): each bad field raises ``ValueError``.

    ``n`` rows are drawn from N(0, ``scatter``), a p x p symmetric positive
    definite matrix kept as a read-only float copy, and round(
    ``outlier_fraction`` * n) of them are replaced by outliers, all from the
    stream seeded by ``seed``.  ``outlier_basis`` is one of ``OUTLIER_BASES``:
    the literal basis draws outliers from N(0, nu diag(eigvals)), the
    scatter's eigenvalues on the data axes; the rotated one from
    N(0, nu scatter).  ``nu`` times the scatter's trace must be finite: for a
    positive definite scatter the trace bounds every entry of nu scatter and
    its largest eigenvalue, so either basis draws finite rows.

    Specs compare and hash by identity.  The scatter's Cholesky factor,
    computed by the check, is kept for the draws.
    """

    n: int
    p: int
    scatter: np.ndarray
    outlier_fraction: float = 0.0
    nu: float = 15.0
    seed: int = 0
    outlier_basis: str = "literal"

    def __post_init__(self) -> None:
        check_integer("n", self.n, 1)
        check_integer("p", self.p, 1)
        check_integer("seed", self.seed, 0)
        try:
            object.__setattr__(self, "scatter", _read_only(np.array(as_real(self.scatter))))
            if self.scatter.shape != (self.p, self.p):
                raise ValueError(f"must be {self.p} x {self.p}, got {self.scatter.shape}")
            self._scatter_factor  # cholesky rejects non-finite, non-symmetric and non-PD scatters
        except ValueError as err:
            raise ValueError(f"bad scatter matrix: {err}") from err
        if not (is_real(self.outlier_fraction) and 0.0 <= self.outlier_fraction <= 1.0):
            raise ValueError(f"outlier_fraction must be in [0, 1], got {self.outlier_fraction!r}")
        if not check_positive("nu", self.nu) * float(np.trace(self.scatter)) < np.inf:
            raise ValueError(f"nu * trace(scatter) must be finite, got nu={self.nu!r}")
        if self.outlier_basis not in OUTLIER_BASES:
            raise ValueError(f"outlier_basis must be {' or '.join(map(repr, OUTLIER_BASES))}, "
                             f"got {self.outlier_basis!r}")

    @property
    def n_outliers(self) -> int:
        return int(round(self.outlier_fraction * self.n))

    @functools.cached_property
    def _scatter_factor(self) -> np.ndarray:
        """L with L L^T = scatter, read-only."""
        return _read_only(cholesky(self.scatter))


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, no longer writeable: a spec shares its arrays with every draw."""
    a.flags.writeable = False
    return a


def cholesky(A: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = A for symmetric positive definite A."""
    A = check_symmetric(A)
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(str(err)) from err


def sample_mvn(spec: ExperimentSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """n rows drawn from N(0, scatter): each row is L z with z standard normal."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    return rng.standard_normal((spec.n, spec.p)) @ spec._scatter_factor.T


def generate_experiment(spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    """The dataset of ``spec`` and the sorted indices of its outlier rows;
    every other row equals ``sample_mvn(spec)`` bit for bit."""
    rng = np.random.default_rng(spec.seed)
    X = sample_mvn(spec, rng)
    k = spec.n_outliers
    if k == 0:
        return X, np.empty(0, dtype=int)
    idx = np.sort(rng.choice(spec.n, size=k, replace=False))
    Z = rng.standard_normal((k, spec.p))
    if spec.outlier_basis == "literal":
        # the spec's scatter is real, finite and symmetric: its check passed.
        # eigh's ascending values reversed; tied values are equal, so their order is moot
        X[idx] = Z * np.sqrt(spec.nu * np.linalg.eigh(spec.scatter)[0][::-1])
    else:
        X[idx] = Z @ cholesky(spec.nu * spec.scatter).T
    return X, idx
