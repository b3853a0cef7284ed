"""Correntropy weights of the samples, and the weighted scatter.

The weight of a sample is the isotropic Gaussian kernel
exp(-||r||^2 / 2 sigma^2) of its residual r off the current direction.
``rank_one_weights`` computes it for every row at once from the row energies
and projections, ``all_underflowed`` tells when the kernel has shrunk past
every sample, and the weighted scatter sum_k w_k x_k x_k^T is what the
eigen-step acts on.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_positive
from .reference import residual_weights  # bench/tracing.py resolves it here

# Below this, exp() has underflowed to zero for every practical purpose;
# an all-underflow weight vector means the kernel size shrank too far.
UNDERFLOW_FLOOR = 1e-300


def rank_one_weights(e: np.ndarray, t: np.ndarray, sigma: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Kernel weight of each residual y_k - t_k u for a unit vector u.

    ``e`` holds the energies ||y_k||^2 and ``t`` the projections y_k . u, so
    the squared residual is e_k - t_k^2.  That difference cancels when y_k
    is nearly parallel to u; it is clamped at 0 so rounding cannot push a
    weight above 1.  Equals the kernel of (I - u u^T) y_k computed directly, up
    to an exponent error of about eps ||y_k||^2 / (2 sigma^2).

    ``out``, a float array of t's shape (it may be ``t`` itself), receives
    the weights and is returned; without it a new array is.  Both give the
    same bits, since every step is elementwise and in place.
    """
    sigma = check_positive("kernel size", sigma)
    # One temporary, updated in place.  t^2 - e = -(e - t^2) exactly, so
    # exp(min(t^2 - e, 0) / 2 sigma^2) equals exp(-max(e - t^2, 0) / 2 sigma^2)
    # bit for bit.
    w = np.multiply(t, t, out=out)
    w -= e
    np.minimum(w, 0.0, out=w)
    w /= 2.0 * sigma * sigma
    return np.exp(w, out=w)


def all_underflowed(w: np.ndarray) -> bool:
    """True when every weight is numerically zero (scatter would vanish)."""
    return bool(w.max() < UNDERFLOW_FLOOR)


def weighted_scatter(X: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k x_k x_k^T, i.e. X^T diag(w) X.  Symmetric PSD.

    ``out``, a float array of X's shape, receives the scaled rows w_k x_k,
    and a new p x p matrix is returned either way.  The rows are scaled
    through the transposed views, X^T w, which walk a column-major X
    contiguously.  The product's bits depend on the layout of those rows:
    without ``out`` they take X's, so an ``out`` in the same order (Fortran
    for a column-major X) gives the bits of a call without it.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (X.shape[0],):
        raise ValueError(f"need one weight per row: {w.shape} vs {X.shape}")
    return np.multiply(X.T, w, out=None if out is None else out.T) @ X
