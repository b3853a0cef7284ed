"""Robust principal component analysis via correntropy-weighted power
iterations, with a plain-PCA baseline, synthetic data generation, alignment
metrics, and the paper-literal reference (``corrpca.reference``) that the
fit is tested against."""

from .correntropy import weighted_scatter
from .datagen import ExperimentSpec, cholesky, generate_experiment, sample_mvn
from .linalg import EigenPairs, null_space_vector, sym_evd
from .mcpi import MCPIConfig, PCAResult, fit, standard_pca
from .metrics import AlignmentReport, component_alignment, reconstruction_error
from .reference import (
    DeflationState,
    build_deflated_operator,
    gaussian_kernel,
    power_iteration,
    residual_weights,
    woodbury_update,
)

__all__ = [
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

__version__ = "0.1.0"
