"""Quantum non-Gaussian coherence thresholds, certification and simulation."""

__version__ = "0.1.0"

from .fock import (FockPair, GaussianParams, build_gaussian_matrix,
                   coherence_quantifier, coherent_amplitude,
                   ideal_superposition, sdf_amplitude)
from .thresholds import (CertificationReport, ThresholdKind, ThresholdResult,
                         certify, classical_threshold, threshold)
from .channels import thermal_depth_limit, thermalize
from .optimize import MaximizeResult, SearchSpec, maximize
from .mc import McReport, mc_verify
from .ramsey import (NoiseConfig, PulseKind, PulseSpec, RamseyFringe,
                     RamseySequence, build_sequence_0n, build_sequence_mn,
                     decay_scan, fit_populations, run_ramsey)

__all__ = [
    "__version__",
    "FockPair", "GaussianParams", "build_gaussian_matrix", "coherence_quantifier",
    "coherent_amplitude", "ideal_superposition", "sdf_amplitude",
    "CertificationReport", "ThresholdKind", "ThresholdResult", "certify",
    "classical_threshold", "threshold",
    "thermal_depth_limit", "thermalize",
    "MaximizeResult", "SearchSpec", "maximize",
    "McReport", "mc_verify",
    "NoiseConfig", "PulseKind", "PulseSpec", "RamseyFringe", "RamseySequence",
    "build_sequence_0n", "build_sequence_mn", "decay_scan", "fit_populations",
    "run_ramsey",
]
