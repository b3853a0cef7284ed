"""How the kernel-shrinking schedule trades robustness against stability.

Runs the fit with a range of decay depths on the same contaminated dataset.
A shallow schedule (large final kernel) behaves like plain PCA and gets
dragged by the outliers; deeper schedules progressively ignore them.  The
fit steps along the kernel-size grid adaptively, skipping most grid points,
and its secant-accelerated corrector settles each round in a few outer
iterations, so the outer iterations grow with the number of rounds a deeper
schedule takes and with its last round, solved to ``outer_tol``, not with
the number of grid points.
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
    print("n_decay  final sigma_1  outer iterations   per-component |cos|")
    for n_decay in (1, 10, 25, 45, 65):
        res = cp.fit(X, cp.MCPIConfig(n_decay=n_decay))
        cos = cp.component_alignment(res.components, truth.vectors).per_component_abs_cos
        outer = sum(d.outer_iterations for d in res.diagnostics)
        print(
            f"{n_decay:7d}  {res.diagnostics[0].final_sigma:12.3f}  {outer:16d}   "
            f"{np.round(cos, 4)}"
        )


if __name__ == "__main__":
    main()
