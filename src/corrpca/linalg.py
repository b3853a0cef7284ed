"""Dense symmetric eigensolver, power iteration, and complement bases.

``sym_evd`` wraps LAPACK's symmetric solver (``numpy.linalg.eigh``) with a
descending order and a sign convention.  ``complement_basis`` is the one
source of orthonormal complements: ``mcpi`` iterates in it and
``null_space_vector`` reads the last component off it.  ``power_iteration``
is the paper-literal reference for the deflated eigen-step that ``mcpi.fit``
solves directly.  All eigenvector outputs follow a single sign convention:
each vector is flipped so that its entry of largest absolute value is
positive (lowest index wins ties), which makes results deterministic and
regression-testable.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


# Largest max |A - A^T| that check_symmetric (and so sym_evd) accepts.
SYMMETRY_TOL = 1e-9


class SingularDirectionError(ValueError):
    """Power iteration hit K v = 0, or a start vector lies in the span of the
    found components; the next direction is undefined."""


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude entry is positive (ties: lowest index)."""
    return -v if v[np.argmax(np.abs(v))] < 0.0 else v


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real scalar other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(name: str, value, minimum: int) -> None:
    """ValueError unless ``value`` is a non-bool integer (numpy's too) >= ``minimum``."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_positive(name: str, value) -> float:
    """``value`` as a float, or ValueError unless it is a positive finite real
    scalar (``is_real``; NaN is not positive)."""
    if not (is_real(value) and 0.0 < value < np.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_unit(v: np.ndarray) -> np.ndarray:
    """v as a float array, or ValueError unless it has unit norm (to 1e-8);
    a NaN entry fails."""
    v = np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-8:
        raise ValueError("v0 must be a unit vector")
    return v


def check_orthonormal(V: np.ndarray, tol: float) -> np.ndarray:
    """V as a float array, or ValueError unless max |V^T V - I| <= tol; a NaN
    entry fails."""
    V = np.asarray(V, dtype=float)
    dev = np.max(np.abs(V.T @ V - np.eye(V.shape[1])), initial=0.0)
    if not dev <= tol:
        raise ValueError(f"columns not orthonormal: max |V^T V - I| = {dev:g}")
    return V


def check_symmetric(A: np.ndarray) -> None:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    dev = np.max(np.abs(A - A.T)) if A.size else 0.0
    if dev > SYMMETRY_TOL:
        raise ValueError(f"matrix not symmetric: max |A - A^T| = {dev:g} > {SYMMETRY_TOL:g}")


@dataclass(frozen=True)
class EigenPairs:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending.

    ``vectors[:, i]`` pairs with ``values[i]``; columns are orthonormal and
    sign-fixed.
    """

    values: np.ndarray
    vectors: np.ndarray


def sym_evd(A: np.ndarray) -> EigenPairs:
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come back in non-increasing order with ties broken by
    LAPACK's ascending column order, so output is deterministic.
    """
    check_symmetric(A)
    values, V = np.linalg.eigh(np.asarray(A, dtype=float))
    order = np.argsort(-values, kind="stable")
    V = V[:, order]
    # fix_sign on every column at once: argmax picks the lowest index on ties
    V[:, V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0.0] *= -1.0
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


def complement_basis(F: np.ndarray) -> np.ndarray:
    """Orthonormal p x (p - k) basis of the complement of range(F), for a
    p x k matrix F of full column rank: the trailing columns of its complete
    QR.  The identity when k = 0, which is what that QR gives, bit for bit."""
    if F.shape[1] == 0:
        return np.eye(F.shape[0])
    return np.linalg.qr(F, mode="complete")[0][:, F.shape[1]:]


def null_space_vector(V: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to the p-1 orthonormal columns of V, sign-fixed."""
    V = np.asarray(V, dtype=float)
    p, m = V.shape
    if m != p - 1:
        raise ValueError(f"expected p x (p-1) matrix, got {V.shape}")
    return fix_sign(complement_basis(check_orthonormal(V, 1e-8))[:, 0])
