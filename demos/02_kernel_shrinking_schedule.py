"""How many rounds the kernel-shrinking schedule takes, and what they cost.

Runs the fit with n_decay = 1, 2, 3 and 5 on the same contaminated dataset.
Every schedule ends at ``KERNEL_SCALE`` (30) times ``KERNEL_SPAN`` (0.04),
1.2 times the median residual norm of each component's a-priori vector,
where the kernel still weights many samples but discounts the outliers.
The default n_decay = 1 runs one round there, started at the a-priori
vector for component 1 and, for each later component, at the second
eigenvector of the last weighted scatter of the one before; a longer
schedule starts at 30 times the residual scale and cuts the span into
n_decay rounds.  The printed final sigma over the median
residual reads 1.2 for every schedule and component, and every schedule
ends at the same answer; the earlier rounds only add outer iterations (the
Anderson-accelerated corrector steps of all rounds of the two iterated
components).
"""

import numpy as np

import corrpca as cp

SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])


def median_residual(X, found, v):
    """Median norm of the rows' residuals off the ``found`` components and
    the a-priori vector ``v`` projected off them: the residual scale a
    component's kernel size is measured in."""
    P = sum((np.outer(c, c) for c in found), np.zeros((X.shape[1], X.shape[1])))
    v = v - P @ v
    v = v / np.linalg.norm(v)
    return float(np.median(np.linalg.norm(X - X @ (P + np.outer(v, v)), axis=1)))


def main():
    truth = cp.sym_evd(SCATTER)
    spec = cp.ExperimentSpec(
        n=400, p=3, scatter=SCATTER, outlier_fraction=0.05, nu=15.0, seed=3
    )
    X, _ = cp.generate_experiment(spec)
    apriori = cp.standard_pca(X).components

    pca_cos = cp.component_alignment(apriori, truth.vectors).per_component_abs_cos
    print("standard PCA |cos|:", np.round(pca_cos, 4))
    print()
    print("n_decay  final sigma / median residual  outer iterations   per-component |cos|")
    for n_decay in (1, 2, 3, 5):
        res = cp.fit(X, cp.MCPIConfig(n_decay=n_decay))
        cos = cp.component_alignment(res.components, truth.vectors).per_component_abs_cos
        outer = sum(d.outer_iterations for d in res.diagnostics)
        ratios = [
            d.final_sigma / median_residual(X, res.components[:, :i].T, apriori[:, i])
            for i, d in enumerate(res.diagnostics[:-1])
        ]
        print(
            f"{n_decay:7d}  {'  '.join(f'{r:.2f}' for r in ratios):>29}  {outer:16d}   "
            f"{np.round(cos, 4)}"
        )


if __name__ == "__main__":
    main()
