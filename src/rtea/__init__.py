"""Repetitive transient extraction: decompose a noisy 1-D signal into two
periodic group-sparse components plus residual, and identify their
repetition frequencies from envelope spectra.

Each public name is listed once, under the submodule that defines it; that
submodule is imported the first time the name is used, so ``import rtea``
alone loads neither numpy nor any submodule.  A submodule named in the
table (``rtea.solver``) is likewise imported on first use.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "analysis": ("EnvelopeSpectrum", "envelope_spectrum", "find_peaks", "rmse"),
    "params": ("PeriodSpec", "beta_lookup", "build_weight_array", "default_config",
               "estimate_sigma"),
    "penalties": ("PenaltySpec", "majorizer_denom", "smoothed_penalty"),
    "regularizers": ("WeightArray", "combined_majorizer_weights", "group_penalty",
                     "majorizer_weights"),
    "solver": ("DecompositionResult", "NumericalError", "SolverConfig", "check_convexity",
               "pogs_solve", "rtea_solve"),
    "synth": ("Mixture", "TransientTrain", "gen_mixture", "gen_train"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _NAMES:  # a submodule; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_NAMES))
