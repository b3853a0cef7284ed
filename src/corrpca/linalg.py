"""Dense symmetric eigensolver, complement bases, and argument checks.

``sym_evd`` wraps LAPACK's symmetric solver (``numpy.linalg.eigh``) with a
descending order and a sign convention.  It checks its argument with
``check_symmetric`` and then calls ``eigh_descending``, the unchecked core,
which callers use on a matrix symmetric and finite by construction (``mcpi``
on its X^T X / n at unit scale).  ``complement_basis`` is the one
source of orthonormal complements, also through ``eigh``: the eigenvectors
of the projector F F^T for its zero eigenvalues.  ``mcpi`` steps its chain
of complements with it past a component that stopped before any
eigen-step (every other step reuses that step's eigenvectors), and
``null_space_vector`` gives the unit vector orthogonal to p - 1 given
orthonormal columns.  All eigenvector outputs follow a single sign
convention: each vector is flipped so that its entry of largest absolute
value is positive (lowest index wins ties), which makes results
deterministic and regression-testable.  The tie rule sees exact ties only:
where the largest magnitudes agree only up to rounding, as in the direction
(1, 1, 0, -1)/sqrt(3), their last bits pick the entry, so two equivalent
computations of one direction can come out with opposite signs.

``eigh_vectors`` is the eigen-step of ``mcpi``'s outer iterations: the
eigenvectors of a small weighted scatter, unchecked and unsigned, as
``np.linalg.eigh`` returns them.  Every fit with p >= 2 runs one round in a
complement of two coordinates, where ``eigh``'s cost is mostly its Python
wrapper, so m = 2 takes a closed form; its bits depend only on S, not on
the LAPACK build.  m >= 3 calls ``eigh``.

These helpers run several times per fit on 3 x 3 matrices, where numpy's
fixed cost per call outweighs the arithmetic, so they use few calls:
ndarray-method reductions, one stable sort and one sign fix for all of
``eigh_descending``'s columns, and a chain of complements that steps with
the last eigen-step's other eigenvectors, not a new ``eigh``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


# Largest max |A - A^T| that check_symmetric (and so sym_evd) accepts.
SYMMETRY_TOL = 1e-9


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude entry is positive (ties: lowest index).

    Only exact ties go to the lowest index.  Entries whose magnitudes tie up
    to rounding, like those of (1, 1, 0, -1)/sqrt(3), are ranked by their last
    bits, so equivalent arithmetic can give either sign."""
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
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``):
    ``check_symmetric`` (a complex matrix is a ValueError, not cast to its
    real part), then ``eigh_descending``."""
    return eigh_descending(check_symmetric(A))


def eigh_descending(A: np.ndarray) -> EigenPairs:
    """``sym_evd`` of a real, finite, symmetric float matrix, unchecked.

    Eigenvalues come back in non-increasing order with ties broken by
    LAPACK's ascending column order (a stable sort), so output is
    deterministic.  The vectors are a new Fortran-ordered array.
    """
    values, V = np.linalg.eigh(A)
    order = np.argsort(-values, kind="stable")
    V = V[:, order]
    # fix_sign on every column at once: argmax picks the lowest index on ties
    V = np.multiply(V, np.copysign(1.0, V[abs(V).argmax(axis=0), np.arange(V.shape[1])]), order="F")
    return EigenPairs(values=values[order], vectors=V)


def eigh_vectors(S: np.ndarray) -> np.ndarray:
    """The eigenvectors of a real, finite, symmetric m x m float matrix S,
    unchecked, as ``np.linalg.eigh(S)[1]`` gives them: orthonormal columns
    in ascending eigenvalue order, read from the lower triangle.

    For m = 2 the symmetric Schur rotation (Golub & Van Loan, "Matrix
    Computations", section 8.5, symSchur2) of S = [[a, b], [b, c]]:
    tau = (c - a) / 2b, t = sign(tau) / (|tau| + sqrt(1 + tau^2)) (hypot,
    so a huge tau gives t ~ 1 / 2 tau, not 0), cos = 1 / sqrt(1 + t^2) and
    sin = t cos; the identity when b = 0.  The columns (cos, -sin) and
    (sin, cos) have eigenvalues a - t b and c + t b, swapped when the first
    is the larger.  Each is within a few ulps of ``eigh``'s column up to
    sign, and a diagonal matrix gives ``eigh``'s bits: the identity, or the
    exchange of the two axes when a > c.  2 b must not overflow, which
    holds for entries below 8.9e307."""
    if len(S) != 2:
        return np.linalg.eigh(S)[1]
    (a, _), (b, c) = S.tolist()
    t = 0.0
    cos, sin = 1.0, 0.0
    if b != 0.0:
        tau = (c - a) / (2.0 * b)
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
        cos = 1.0 / math.sqrt(1.0 + t * t)
        sin = t * cos
    minus_sin = 0.0 - sin  # +0, not -0, when sin is 0, as in eigh's output
    if a - t * b > c + t * b:
        return np.array([[sin, cos], [cos, minus_sin]])
    return np.array([[cos, sin], [minus_sin, cos]])


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


# Reference names that bench/tracing.py resolves here; imported last, since
# reference imports this module.
from .reference import orthogonalize_against, power_iteration  # noqa: E402
