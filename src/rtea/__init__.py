"""Repetitive transient extraction: decompose a noisy 1-D signal into two
periodic group-sparse components plus residual, and identify their
repetition frequencies from envelope spectra.
"""

from .analysis import EnvelopeSpectrum, envelope_spectrum, find_peaks, rmse
from .penalties import PenaltySpec, majorizer_denom, smoothed_penalty
from .params import (
    PeriodSpec,
    beta_lookup,
    build_weight_array,
    default_config,
    estimate_sigma,
)
from .regularizers import (
    WeightArray,
    combined_majorizer_weights,
    group_penalty,
    majorizer_weights,
)
from .solver import (
    DecompositionResult,
    NumericalError,
    SolverConfig,
    check_convexity,
    pogs_solve,
    rtea_solve,
)
from .synth import Mixture, TransientTrain, gen_mixture, gen_train

__version__ = "0.1.0"

__all__ = [
    "DecompositionResult",
    "EnvelopeSpectrum",
    "Mixture",
    "NumericalError",
    "PenaltySpec",
    "PeriodSpec",
    "SolverConfig",
    "TransientTrain",
    "WeightArray",
    "beta_lookup",
    "build_weight_array",
    "check_convexity",
    "combined_majorizer_weights",
    "default_config",
    "envelope_spectrum",
    "estimate_sigma",
    "find_peaks",
    "gen_mixture",
    "gen_train",
    "group_penalty",
    "majorizer_denom",
    "majorizer_weights",
    "pogs_solve",
    "rmse",
    "rtea_solve",
    "smoothed_penalty",
]
