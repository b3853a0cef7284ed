"""How many rounds the kernel-shrinking schedule takes, and what they cost.

Runs the fit with n_decay = 1, 2, 3 and 5 on the same contaminated dataset.
Every schedule starts at ``KERNEL_SCALE`` (30) times the median residual
norm of each component's a-priori vector and ends at ``KERNEL_SPAN`` (0.04)
times that, 1.2 times the median residual; n_decay only sets how many rounds
the span is cut into.  One round stays at 30 times the residual scale,
where the kernel weights every sample almost alike, so the fit behaves like
plain PCA and the outliers drag it.  Every longer schedule ends at the
residual scale and at the same answer; extra rounds only add outer
iterations (the Anderson-accelerated corrector steps of all rounds of the two
iterated components).
"""

import numpy as np

import corrpca as cp

SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])


def main():
    truth = cp.sym_evd(SCATTER)
    spec = cp.ExperimentSpec(
        n=400, p=3, scatter=SCATTER, outlier_fraction=0.05, nu=15.0, seed=3
    )
    X, _ = cp.generate_experiment(spec)

    pca_cos = cp.component_alignment(
        cp.standard_pca(X).components, truth.vectors
    ).per_component_abs_cos
    print("standard PCA |cos|:", np.round(pca_cos, 4))
    print()
    print("n_decay  final sigma / median residual  outer iterations   per-component |cos|")
    for n_decay in (1, 2, 3, 5):
        res = cp.fit(X, cp.MCPIConfig(n_decay=n_decay))
        cos = cp.component_alignment(res.components, truth.vectors).per_component_abs_cos
        outer = sum(d.outer_iterations for d in res.diagnostics)
        span = cp.mcpi.KERNEL_SPAN if n_decay > 1 else 1.0
        print(
            f"{n_decay:7d}  {cp.mcpi.KERNEL_SCALE * span:29.1f}  {outer:16d}   "
            f"{np.round(cos, 4)}"
        )


if __name__ == "__main__":
    main()
