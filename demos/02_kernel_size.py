"""The kernel size: robust at the scale of the residuals, plain PCA far above it.

Fits one contaminated dataset (400 samples, 5% outliers) at the default
kernel size, ``KERNEL_SCALE`` (1.2) times each component's median residual
norm at its a-priori vector, and then with ``sigma0`` set to 10, 100 and
1e6 times the size the default gives component 1; ``sigma0`` is the kernel
size of every component's one round.  At the default size the outliers get
almost no weight and the fit follows the true components.  As the kernel
grows, every sample's weight tends to 1, the weighted scatter to the plain
one, and the fit to standard PCA: from 100 times the default size on it
gives PCA's components, the large-kernel limit that acceptance criterion 4
checks.
"""

import numpy as np

import corrpca as cp

SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])


def main():
    truth = cp.sym_evd(SCATTER).vectors
    spec = cp.ExperimentSpec(
        n=400, p=3, scatter=SCATTER, outlier_fraction=0.05, nu=15.0, seed=3
    )
    X, _ = cp.generate_experiment(spec)
    pca = cp.standard_pca(X).components
    pca_cos = cp.component_alignment(pca, truth).per_component_abs_cos
    print("standard PCA |cos| to the truth:", np.round(pca_cos, 4))
    print()

    default = cp.fit(X)
    size = default.diagnostics[0].final_sigma
    fits = [("default", default)] + [
        (f"{k:g} x default", cp.fit(X, cp.MCPIConfig(sigma0=k * size)))
        for k in (10, 100, 1e6)
    ]
    print("kernel size      outer   |cos| to the truth        |cos| to standard PCA")
    for label, res in fits:
        to_truth = cp.component_alignment(res.components, truth).per_component_abs_cos
        to_pca = cp.component_alignment(res.components, pca).per_component_abs_cos
        outer = sum(d.outer_iterations for d in res.diagnostics)
        print(f"{label:15s} {outer:6d}   {np.round(to_truth, 4)!s:24s}  {np.round(to_pca, 4)}")


if __name__ == "__main__":
    main()
