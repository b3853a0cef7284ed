"""Robust principal component analysis via correntropy-weighted power
iterations, with a plain-PCA baseline, synthetic data generation and
alignment metrics.  The paper-literal steps that the fit is tested against
are imported from ``corrpca.reference``."""

from .correntropy import weighted_scatter
from .datagen import ExperimentSpec, cholesky, generate_experiment, sample_mvn
from .linalg import EigenPairs, sym_evd
from .mcpi import MCPIConfig, PCAResult, fit, standard_pca
from .metrics import AlignmentReport, component_alignment, reconstruction_error

__all__ = [
    "AlignmentReport",
    "EigenPairs",
    "ExperimentSpec",
    "MCPIConfig",
    "PCAResult",
    "cholesky",
    "component_alignment",
    "fit",
    "generate_experiment",
    "reconstruction_error",
    "sample_mvn",
    "standard_pca",
    "sym_evd",
    "weighted_scatter",
]

__version__ = "0.1.0"
