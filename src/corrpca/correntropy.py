"""Correntropy weights of the samples, and the weighted scatter.

The weight of a sample is the isotropic Gaussian kernel
exp(-||r||^2 / 2 sigma^2) of its residual r off the current direction.
``rank_one_weights`` computes it for every row at once from the row energies
and projections, ``all_underflowed`` tells when the kernel is too narrow
for every sample, and the weighted scatter sum_k w_k x_k x_k^T is what the
eigen-step acts on.  ``rank_one_weights`` checks sigma on every call;
``rank_one_kernel`` is its arithmetic alone, for a loop that runs many
steps at one kernel size and checks it once.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_positive
from .reference import residual_weights  # bench/tracing.py resolves it here

# Below this, exp() has underflowed to zero for every practical purpose;
# an all-underflow weight vector means the kernel is too narrow for every sample.
UNDERFLOW_FLOOR = 1e-300
# The bytes of one block of rows of the weighted scatter, so that the scaled
# block is still in a 2 MiB L2 cache when the product reads it (cache
# blocking as in Goto & van de Geijn, "Anatomy of high-performance matrix
# multiplication", ACM TOMS 2008).
BLOCK_BYTES = 256 * 1024


def rank_one_weights(e: np.ndarray, t: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel weight of each residual y_k - t_k u for a unit vector u.

    ``e`` holds the energies ||y_k||^2 and ``t`` the projections y_k . u, so
    the squared residual is e_k - t_k^2.  That difference cancels when y_k
    is nearly parallel to u; it is clamped at 0 so rounding cannot push a
    weight above 1.  Equals the kernel of (I - u u^T) y_k computed directly, up
    to an exponent error of about eps ||y_k||^2 / (2 sigma^2).  ValueError
    unless ``sigma`` is positive and finite; the arithmetic is
    ``rank_one_kernel``'s.
    """
    sigma = check_positive("kernel size", sigma)
    return rank_one_kernel(e, t, 2.0 * sigma * sigma)


def rank_one_kernel(e: np.ndarray, t: np.ndarray, two_sigma2: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``rank_one_weights`` at 2 sigma^2 = ``two_sigma2``, unchecked: the
    caller has checked sigma and formed 2 sigma^2 once, as ``mcpi`` does for
    each component's round of outer iterations.

    ``out``, a float array of t's shape (it may be ``t`` itself), receives
    the weights and is returned; without it a new array is.  Both give the
    same bits, since every step is elementwise and in place."""
    # One temporary, updated in place.  t^2 - e = -(e - t^2) exactly, so
    # exp(min(t^2 - e, 0) / 2 sigma^2) equals exp(-max(e - t^2, 0) / 2 sigma^2)
    # bit for bit.
    w = np.multiply(t, t, out=out)
    w -= e
    np.minimum(w, 0.0, out=w)
    w /= two_sigma2
    return np.exp(w, out=w)


def all_underflowed(w: np.ndarray) -> bool:
    """True when every weight is numerically zero (scatter would vanish)."""
    return bool(w.max() < UNDERFLOW_FLOOR)


def block_rows(m: int) -> int:
    """Rows of an m-column float64 block of ``BLOCK_BYTES``, at least one."""
    return max(1, BLOCK_BYTES // (8 * max(m, 1)))


def weighted_scatter(X: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k x_k x_k^T, i.e. X^T diag(w) X.  Symmetric PSD.

    The rows are scaled and multiplied one block of ``block_rows(m)`` rows
    (``BLOCK_BYTES``) at a time, so the scaled block is still in cache when
    the product reads it, and the m x m products of the blocks are summed.
    When n is at most one block's rows there is one product, X^T diag(w) X
    formed whole, and only then are the bits those of the one-product
    scatter; with more blocks they differ by rounding (a few ulps of the
    sum).

    ``out``, a float array of min(n, ``block_rows(m)``) x m, receives the
    scaled rows w_k x_k of the last block, and a new m x m matrix is
    returned either way.  The rows are scaled through the transposed views,
    X^T w, which walk a column-major X contiguously.  The product's bits
    depend on the layout of those rows: without ``out`` they take X's, so an
    ``out`` in the same order (Fortran for a column-major X) gives the bits
    of a call without it.  ValueError when w does not hold one weight per
    row or ``out`` has another shape.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    n, m = X.shape
    if w.shape != (n,):
        raise ValueError(f"need one weight per row: {w.shape} vs {X.shape}")
    rows = block_rows(m)
    if n <= rows:
        return np.multiply(X.T, w, out=None if out is None else out.T) @ X
    if out is None:
        out = np.empty_like(X[:rows])  # X's layout
    elif out.shape != (rows, m):
        raise ValueError(f"need a {rows} x {m} buffer of scaled rows, got {out.shape}")
    S = np.zeros((m, m))
    for i in range(0, n, rows):
        Xb = X[i:i + rows]
        S += np.multiply(Xb.T, w[i:i + rows], out=out[:len(Xb)].T) @ Xb
    return S
