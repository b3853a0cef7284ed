"""How the final kernel size trades robustness against stability.

Runs the fit with a range of shrink factors ``eta`` on the same contaminated
dataset, each with the default two rounds (``n_decay=2``): the first at
``KERNEL_SCALE`` (30) times the median residual norm of each component's
a-priori vector, the second at ``eta`` times that.  A large final kernel
weights every sample almost alike and behaves like plain PCA, so the
outliers drag it; shrinking it towards the residual scale progressively
ignores them.  The outer iterations count the secant-accelerated corrector
steps of both rounds of the two iterated components.
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
    print("   eta  final sigma / median residual  outer iterations   per-component |cos|")
    for eta in (0.9, 0.5, 0.2, 0.1, 0.04):
        res = cp.fit(X, cp.MCPIConfig(eta=eta, n_decay=2))
        cos = cp.component_alignment(res.components, truth.vectors).per_component_abs_cos
        outer = sum(d.outer_iterations for d in res.diagnostics)
        print(
            f"{eta:6.2f}  {cp.mcpi.KERNEL_SCALE * eta:29.1f}  {outer:16d}   "
            f"{np.round(cos, 4)}"
        )


if __name__ == "__main__":
    main()
