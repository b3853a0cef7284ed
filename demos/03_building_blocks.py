"""Tour of the building blocks beneath the fit driver.

Walks through the pieces one at a time: the symmetric eigensolver, the
correntropy weights and weighted scatter, the paper's deflated operator with
its rank-one inverse update (from ``corrpca.reference``, the paper-literal
steps that the fit's direct eigen-step is equivalent to), the fit's step in
the coordinates of the complement of the found component, and the
null-space extraction of the last component.
"""

import numpy as np

import corrpca as cp
from corrpca.correntropy import rank_one_weights
from corrpca.linalg import null_space_vector
from corrpca.reference import DeflationState, build_deflated_operator, power_iteration, residual_weights

SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])


def main():
    rng = np.random.default_rng(0)

    print("-- symmetric eigendecomposition (LAPACK eigh) --")
    pairs = cp.sym_evd(SCATTER)
    print("eigenvalues:", np.round(pairs.values, 4))
    recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
    print("reconstruction error:", np.max(np.abs(recon - SCATTER)))

    print("\n-- correntropy weights downweight far-out samples --")
    X = cp.sample_mvn(cp.ExperimentSpec(n=8, p=3, scatter=SCATTER, seed=5))
    X[0] *= 10.0  # plant one wild row
    v = pairs.vectors[:, 0]
    R = np.eye(3) - np.outer(v, v)
    w = residual_weights(X, R, sigma=3.0)
    for k, (wk, row) in enumerate(zip(w, X)):
        print(f"  sample {k}: |residual|={np.linalg.norm(R @ row):6.2f}  weight={wk:.4f}")
    S = cp.weighted_scatter(X, w)
    print("weighted scatter diagonal:", np.round(np.diag(S), 2))

    print("\n-- one deflation step: reference operator vs direct eigen-step --")
    state = DeflationState.initial(3)
    state.add(v)
    print("(I+P) Q - I max deviation:", np.max(np.abs((np.eye(3) + state.P) @ state.Q - np.eye(3))))
    K = build_deflated_operator(S, state)
    res = power_iteration(K, np.array([0.0, 1.0, 0.0]), tol=1e-12, max_iter=1000)
    print(f"power iteration on the shifted operator: {res.iterations} steps, converged={res.converged}")
    print("next direction:", np.round(res.vector, 4))
    print("orthogonality to first component:", abs(float(res.vector @ v)))
    C = np.eye(3) - state.P
    direct = np.linalg.eigh(C @ S @ C)[1][:, -1]
    print("top eigenvector of (I-P) S (I-P), |cos| to it:", round(abs(float(direct @ res.vector)), 12))
    # fit's step: an orthonormal basis B of the complement of v, Y = X B,
    # rank-one weights from ||y||^2 - (y.u)^2 and the m x m scatter of Y
    B = np.linalg.qr(v[:, None], mode="complete")[0][:, 1:]
    Y = X @ B
    u = B.T @ np.array([0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    w_c = rank_one_weights(np.einsum("ij,ij->i", Y, Y), Y @ u, sigma=3.0)
    w_ref = residual_weights(X, C - np.outer(B @ u, B @ u), sigma=3.0)
    print("complement weights vs residual_weights, max |diff|:", float(np.max(np.abs(w_c - w_ref))))
    step = B @ np.linalg.eigh(cp.weighted_scatter(Y, w_c))[1][:, -1]
    S_ref = cp.weighted_scatter(X, w_ref)
    ref_step = np.linalg.eigh(C @ S_ref @ C)[1][:, -1]
    print("complement-coordinate step vs (I-P) S (I-P) step, |cos|:", round(abs(float(step @ ref_step)), 12))

    print("\n-- last component from the null space --")
    v2 = res.vector - float(res.vector @ v) * v
    v2 /= np.linalg.norm(v2)
    v3 = null_space_vector(np.column_stack([v, v2]))
    print("null-space vector:", np.round(v3, 4))
    print("max |V^T v3|:", float(np.max(np.abs(np.column_stack([v, v2]).T @ v3))))


if __name__ == "__main__":
    main()
