"""The public names of the package: adding or removing one is a deliberate
change to this list."""

import corrpca

PUBLIC_NAMES = [
    "AlignmentReport",
    "DeflationState",
    "EigenPairs",
    "ExperimentSpec",
    "MCPIConfig",
    "PCAResult",
    "build_deflated_operator",
    "cholesky",
    "component_alignment",
    "fit",
    "gaussian_kernel",
    "generate_experiment",
    "null_space_vector",
    "power_iteration",
    "reconstruction_error",
    "residual_weights",
    "sample_mvn",
    "standard_pca",
    "sym_evd",
    "weighted_scatter",
    "woodbury_update",
]


def test_public_names_pinned_and_resolve():
    assert corrpca.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(corrpca, name), name
