"""Dense symmetric eigensolver, power iteration, and null-space extraction.

``sym_evd`` wraps LAPACK's symmetric solver (``numpy.linalg.eigh``) with a
descending order and a sign convention.  ``power_iteration`` is the
paper-literal reference for the deflated eigen-step that ``mcpi.fit`` solves
directly.  All eigenvector outputs follow a single sign convention: each
vector is flipped so that its entry of largest absolute value is positive
(lowest index wins ties), which makes results deterministic and
regression-testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularDirectionError(ValueError):
    """Power iteration hit K v = 0; the next direction is undefined."""


class DegenerateBasisError(ValueError):
    """No basis seed produced a usable null-space residual."""


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude entry is positive (ties: lowest index)."""
    idx = int(np.argmax(np.abs(v)))
    if v[idx] < 0.0:
        return -v
    return v


def check_symmetric(A: np.ndarray, tol: float = 1e-9) -> None:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    dev = np.max(np.abs(A - A.T)) if A.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix not symmetric: max |A - A^T| = {dev:g} > {tol:g}")


@dataclass(frozen=True)
class EigenPairs:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending.

    ``vectors[:, i]`` pairs with ``values[i]``; columns are orthonormal and
    sign-fixed.
    """

    values: np.ndarray
    vectors: np.ndarray


def sym_evd(A: np.ndarray, sym_tol: float = 1e-9) -> EigenPairs:
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come back in non-increasing order with ties broken by
    LAPACK's ascending column order, so output is deterministic.
    """
    check_symmetric(A, sym_tol)
    values, V = np.linalg.eigh(np.asarray(A, dtype=float))
    order = np.argsort(-values, kind="stable")
    V = V[:, order]
    for k in range(V.shape[1]):
        V[:, k] = fix_sign(V[:, k])
    return EigenPairs(values=values[order], vectors=V)


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
    v = np.asarray(v0, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("v0 must be a unit vector")
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


def null_space_vector(V: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to the p-1 orthonormal columns of V.

    Each standard basis vector is Gram-Schmidt orthogonalized against the
    columns; the candidate with the largest residual norm wins.  Cheaper
    than an SVD for a rank-one complement.
    """
    V = np.asarray(V, dtype=float)
    p, m = V.shape
    if m != p - 1:
        raise ValueError(f"expected p x (p-1) matrix, got {V.shape}")
    gram_dev = np.max(np.abs(V.T @ V - np.eye(m))) if m else 0.0
    if gram_dev > 1e-8:
        raise ValueError(f"columns not orthonormal: max |V^T V - I| = {gram_dev:g}")

    best_res = None
    best_norm = -1.0
    for i in range(p):
        e = np.zeros(p)
        e[i] = 1.0
        r = e - V @ (V.T @ e)
        nrm = np.linalg.norm(r)
        if nrm > best_norm:
            best_norm = nrm
            best_res = r
    if best_norm < 1e-12:
        raise DegenerateBasisError("every basis seed collapsed; basis is degenerate")
    v = best_res / best_norm
    # Second pass kills first-order round-off against the columns.
    v -= V @ (V.T @ v)
    v /= np.linalg.norm(v)
    return fix_sign(v)
