"""Robust principal component analysis via correntropy-weighted power
iterations, with a plain-PCA baseline, synthetic data generation, and
alignment metrics."""

from .correntropy import gaussian_kernel, residual_weights, weighted_scatter
from .datagen import ExperimentSpec, cholesky, generate_experiment, sample_mvn
from .linalg import (
    EigenPairs,
    null_space_vector,
    power_iteration,
    sym_evd,
)
from .mcpi import (
    DeflationState,
    MCPIConfig,
    PCAResult,
    build_deflated_operator,
    fit,
    standard_pca,
    woodbury_update,
)
from .metrics import AlignmentReport, component_alignment, reconstruction_error

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
