"""Dense symmetric eigensolver, complement bases, and argument checks.

``sym_evd`` wraps LAPACK's symmetric solver (``numpy.linalg.eigh``) with a
descending order and a sign convention.  ``complement_basis`` is the one
source of orthonormal complements, also through ``eigh``: the eigenvectors
of the projector F F^T for its zero eigenvalues.  ``mcpi`` steps its chain
of complements with it, one found component at a time, and
``null_space_vector`` gives the unit vector orthogonal to p - 1 given
orthonormal columns.  All eigenvector outputs follow a single sign
convention: each vector is flipped so that its entry of largest absolute
value is positive (lowest index wins ties), which makes results
deterministic and regression-testable.

These helpers run several times per fit on 3 x 3 matrices, where numpy's
fixed cost per call outweighs the arithmetic, so they use few calls:
ndarray-method reductions, a reversal instead of a sort, and one ``eigh`` per
complement step.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


# Largest max |A - A^T| that check_symmetric (and so sym_evd) accepts.
SYMMETRY_TOL = 1e-9


class SingularDirectionError(ValueError):
    """A start vector lies in the span of the found components; the next
    direction is undefined."""


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude entry is positive (ties: lowest index)."""
    return -v if v[abs(v).argmax()] < 0.0 else v


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


def check_orthonormal(V: np.ndarray, tol: float) -> np.ndarray:
    """V as a float array, or ValueError unless max |V^T V - I| <= tol; a NaN
    entry fails."""
    V = np.asarray(V, dtype=float)
    dev = abs(V.T @ V - np.eye(V.shape[1])).max(initial=0.0)
    if not dev <= tol:
        raise ValueError(f"columns not orthonormal: max |V^T V - I| = {dev:g}")
    return V


def as_real(A, error: type[ValueError] = ValueError) -> np.ndarray:
    """A as a float array, or ``error`` for a complex dtype, raised before
    the cast, which would keep only the real part."""
    A = np.asarray(A)
    if np.iscomplexobj(A):
        raise error(f"expected a real matrix, got dtype {A.dtype}")
    return np.asarray(A, dtype=float)


def check_symmetric(A: np.ndarray) -> np.ndarray:
    """A as a float array, or ValueError unless it is a real, finite, square
    matrix with max |A - A^T| <= ``SYMMETRY_TOL``."""
    A = as_real(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    # finiteness first: inf - inf in the symmetry test would warn
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    dev = abs(A - A.T).max() if A.size else 0.0
    if dev > SYMMETRY_TOL:
        raise ValueError(f"matrix not symmetric: max |A - A^T| = {dev:g} > {SYMMETRY_TOL:g}")
    return A


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
    LAPACK's ascending column order, so output is deterministic: ``eigh``'s
    ascending output reversed, or stably sorted when two eigenvalues are
    exactly equal.  The vectors are a new Fortran-ordered array.  A complex
    matrix is a ValueError, not cast to its real part.
    """
    values, V = np.linalg.eigh(check_symmetric(A))
    tied = len(set(values.tolist())) < len(values)
    order = np.argsort(-values, kind="stable") if tied else slice(None, None, -1)
    V = V[:, order]
    # fix_sign on every column at once: argmax picks the lowest index on ties
    V = np.multiply(V, np.copysign(1.0, V[abs(V).argmax(axis=0), np.arange(V.shape[1])]), order="F")
    return EigenPairs(values=values[order], vectors=V)


def complement_basis(F: np.ndarray) -> np.ndarray:
    """Orthonormal p x (p - k) basis of the complement of range(F), for a
    p x k matrix F of orthonormal columns: the eigenvectors of the projector
    F F^T for its p - k zero eigenvalues, which ``eigh`` lists first.  The
    identity when k = 0, since LAPACK returns it for the zero matrix."""
    return np.linalg.eigh(F @ F.T)[1][:, :F.shape[0] - F.shape[1]]


def null_space_vector(V: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to the p-1 orthonormal columns of V, sign-fixed."""
    V = np.asarray(V, dtype=float)
    p, m = V.shape
    if m != p - 1:
        raise ValueError(f"expected p x (p-1) matrix, got {V.shape}")
    return fix_sign(complement_basis(check_orthonormal(V, 1e-8))[:, 0])


def __getattr__(name):
    # bench/tracing.py resolves these two reference names on this module;
    # imported on use, since reference imports this module.
    if name in ("power_iteration", "orthogonalize_against"):
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
