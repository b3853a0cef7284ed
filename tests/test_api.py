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


def test_reference_aliases_are_the_reference_objects():
    # production modules keep these names only as aliases of corrpca.reference
    from corrpca import correntropy, linalg, mcpi, reference

    aliases = {
        correntropy: ["residual_weights"],
        linalg: ["power_iteration", "orthogonalize_against"],
        mcpi: ["DeflationState", "build_deflated_operator", "woodbury_update"],
        corrpca: ["DeflationState", "build_deflated_operator", "gaussian_kernel",
                  "power_iteration", "residual_weights", "woodbury_update"],
    }
    for module, names in aliases.items():
        for name in names:
            assert getattr(module, name) is getattr(reference, name), (module.__name__, name)
