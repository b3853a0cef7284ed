"""Comparison metrics: component alignment and reconstruction error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_orthonormal

ORTHONORMAL_TOL = 1e-6


@dataclass(frozen=True)
class AlignmentReport:
    per_component_abs_cos: np.ndarray
    min_abs_cos: float
    mean_abs_cos: float
    component_order: np.ndarray  # estimated column i matched true column order[i]


def component_alignment(V_est: np.ndarray, V_true: np.ndarray) -> AlignmentReport:
    """|cos| between each estimated component and its greedily matched true one.

    Estimated columns pick, in order, the best unmatched true column by
    absolute cosine (ties go to the lowest index).  Sign flips and column
    permutations of either argument leave the values unchanged.
    """
    V_est = check_orthonormal(V_est, ORTHONORMAL_TOL)
    V_true = check_orthonormal(V_true, ORTHONORMAL_TOL)
    if V_est.shape != V_true.shape:
        raise ValueError(f"shape mismatch: {V_est.shape} vs {V_true.shape}")
    p = V_est.shape[1]
    cos = abs(V_est.T @ V_true)
    matched: list[int] = []
    scores = np.empty(p)
    for i in range(p):
        row = cos[i].copy()
        row[matched] = -1.0
        j = int(row.argmax())
        matched.append(j)
        scores[i] = min(cos[i, j], 1.0)
    return AlignmentReport(
        per_component_abs_cos=scores,
        min_abs_cos=float(scores.min()),
        mean_abs_cos=float(scores.sum() / p),  # scores.mean()'s arithmetic, without its overhead
        component_order=np.array(matched, dtype=int),
    )


def reconstruction_error(X: np.ndarray, V: np.ndarray) -> float:
    """sum_k ||(I - V V^T) x_k||^2 for orthonormal columns V."""
    V = check_orthonormal(V, ORTHONORMAL_TOL)
    X = np.asarray(X, dtype=float)
    E = X - (X @ V) @ V.T
    return float(np.sum(E * E))
