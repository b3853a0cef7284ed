"""The paper-literal reference: the steps as the paper states them, kept as
an oracle for ``mcpi.fit``, which never calls them.

Each piece, and the production step that replaces it:

- ``gaussian_kernel`` is the kernel of one error vector;
  ``residual_weights`` applies it to every row's residual R x_k for a p x p
  residual operator R.  ``fit`` computes the same weights in complement
  coordinates with ``correntropy.rank_one_weights``, from the row energies
  and one projection per row.
- ``power_iteration`` (with its start-vector check ``check_unit`` and its
  ``PowerIterationResult``) iterates the deflated operator K to its dominant
  eigenvector.  ``fit`` takes the top eigenvector of the small weighted
  scatter directly, with ``numpy.linalg.eigh``.
- ``orthogonalize_against`` is one Gram-Schmidt pass against the found
  components.  ``fit`` projects onto the complement instead, with the basis
  of ``linalg.complement_basis``.
- ``DeflationState``, ``woodbury_update`` and ``build_deflated_operator``
  are the paper's deflation, and ``NumericalSingularityError`` their failure.
  ``fit`` works in the coordinates of the complement of the found
  components (``mcpi._Complement``) instead.

The paper removes found components through the shifted operator
K = Q (S - P S - S P) + theta I with Q = (I + P)^-1 kept by rank-one
Woodbury updates.  For the orthogonal projector P that ``fit`` builds,
Q = I - P/2 and K acts as (I - P) S on the complement of range(P), so its
intended fixed point is the eigenvector ``fit`` computes directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SingularDirectionError, check_positive


def gaussian_kernel(e: np.ndarray, sigma: float) -> float:
    """exp(-||e||^2 / (2 sigma^2)); equals 1 exactly when e = 0."""
    sigma = check_positive("kernel size", sigma)
    e = np.asarray(e, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ValueError("error vector has non-finite entries")
    return float(np.exp(-float(e @ e) / (2.0 * sigma * sigma)))


def residual_weights(X: np.ndarray, R: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel weight of each row's residual R x_k.

    R is the p x p residual operator (e.g. I - P - v v^T).  Returns a
    length-n vector with entries in (0, 1]; entries can underflow to
    exactly 0 for tiny sigma, which callers detect via all_underflowed.
    """
    sigma = check_positive("kernel size", sigma)
    X = np.asarray(X, dtype=float)
    R = np.asarray(R, dtype=float)
    resid = X @ R.T  # row k is R x_k
    sq = np.einsum("ij,ij->i", resid, resid)
    return np.exp(-sq / (2.0 * sigma * sigma))


def check_unit(v: np.ndarray) -> np.ndarray:
    """v as a float array, or ValueError unless it has unit norm (to 1e-8);
    a NaN entry fails."""
    v = np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-8:
        raise ValueError("v0 must be a unit vector")
    return v


@dataclass(frozen=True)
class PowerIterationResult:
    vector: np.ndarray
    iterations: int
    converged: bool


def power_iteration(
    K: np.ndarray, v0: np.ndarray, tol: float, max_iter: int
) -> PowerIterationResult:
    """Iterate v <- K v / ||K v|| from a unit start vector.

    Stops when the displacement ||v_new - v_old|| falls below ``tol``.
    K need not be symmetric.
    """
    K = np.asarray(K, dtype=float)
    v = check_unit(v0)
    if not np.all(np.isfinite(K)):
        raise ValueError("K has non-finite entries")

    for it in range(1, max_iter + 1):
        w = K @ v
        nrm = np.linalg.norm(w)
        if nrm <= 1e-300:
            raise SingularDirectionError("K v vanished; direction undefined")
        v_new = w / nrm
        if np.linalg.norm(v_new - v) <= tol:
            return PowerIterationResult(v_new, it, True)
        v = v_new
    return PowerIterationResult(v, max_iter, False)


def orthogonalize_against(v: np.ndarray, basis: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """One Gram-Schmidt pass of v against a set of unit vectors, renormalized."""
    v = np.asarray(v, dtype=float).copy()
    for b in list(basis):
        v -= float(v @ b) * b
    nrm = np.linalg.norm(v)
    if nrm <= 1e-300:
        raise SingularDirectionError("vector vanished after orthogonalization")
    return v / nrm


class NumericalSingularityError(RuntimeError):
    """Woodbury denominator collapsed; deflation state is corrupted."""


@dataclass
class DeflationState:
    """Projection P onto found components, its companion Q = (I+P)^-1,
    and the components themselves (the paper's deflation bookkeeping)."""

    P: np.ndarray
    Q: np.ndarray
    components: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def initial(cls, p: int) -> "DeflationState":
        return cls(P=np.zeros((p, p)), Q=np.eye(p), components=[])

    def add(self, v: np.ndarray) -> None:
        v = np.asarray(v, dtype=float)
        self.Q = woodbury_update(self.Q, v)
        self.P = self.P + np.outer(v, v)
        self.components.append(v)


def woodbury_update(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rank-one inverse update: from (I+P)^-1 to (I + P + v v^T)^-1."""
    Q = np.asarray(Q, dtype=float)
    v = np.asarray(v, dtype=float)
    q = Q @ v
    denom = 1.0 + float(v @ q)
    if denom <= 1e-12:
        raise NumericalSingularityError(f"update denominator {denom:g} <= 1e-12")
    return Q - np.outer(q, q) / denom


def build_deflated_operator(S: np.ndarray, state: DeflationState) -> np.ndarray:
    """K = Q (S - P S - S P), shifted by max |diag K| so the dominant
    eigenvalue in magnitude is the most positive one."""
    S = np.asarray(S, dtype=float)
    K = state.Q @ (S - state.P @ S - S @ state.P)
    theta = float(np.max(np.abs(np.diag(K))))
    return K + theta * np.eye(K.shape[0])
