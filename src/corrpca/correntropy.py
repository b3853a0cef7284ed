"""Gaussian correntropy kernel, per-sample weights, and the weighted scatter.

Only the isotropic kernel exp(-||e||^2 / 2 sigma^2) is implemented; the
weight of a sample is the kernel of its projection residual, and the
weighted scatter sum_k w_k x_k x_k^T is what the eigen-step acts on.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_positive

# Below this, exp() has underflowed to zero for every practical purpose;
# an all-underflow weight vector means the kernel size shrank too far.
UNDERFLOW_FLOOR = 1e-300


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


def rank_one_weights(e: np.ndarray, t: np.ndarray, sigma: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Kernel weight of each residual y_k - t_k u for a unit vector u.

    ``e`` holds the energies ||y_k||^2 and ``t`` the projections y_k . u, so
    the squared residual is e_k - t_k^2.  That difference cancels when y_k
    is nearly parallel to u; it is clamped at 0 so rounding cannot push a
    weight above 1.  Equals ``residual_weights(Y, I - u u^T, sigma)`` up to
    an exponent error of about eps ||y_k||^2 / (2 sigma^2).

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
    and a new p x p matrix is returned either way.  The product's bits
    depend on the layout of those rows: ``w[:, None] * X`` takes X's, so an
    ``out`` in the same order (Fortran for a column-major X) gives the bits
    of a call without it.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (X.shape[0],):
        raise ValueError(f"need one weight per row: {w.shape} vs {X.shape}")
    return np.multiply(w[:, None], X, out=out).T @ X
