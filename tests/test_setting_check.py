"""Every public entry point that takes a size, count or budget checks it
by one rule, every one that takes a rate, period, tolerance, smoothing or
weight that must not vanish by a second, every one that takes a weight,
concavity or noise level that may be 0 by a third, every one that takes a
share in [0, 1) by a fourth, and every one that takes a config object by a
fifth.

A count passes ``_checks._check_count``: an integer (a numpy integer is
one; a bool is not, nor is a float, even 3.0) of at least its least value,
or a ``TypeError`` or ``ValueError`` naming the argument.  A positive
setting passes ``_checks._check_positive``: a finite real > 0, or
``<name> must be a finite positive real, got <v>``.  A nonnegative one
passes ``_checks._check_nonnegative``: a finite real >= 0, or
``<name> must be a finite nonnegative real, got <v>``.  A share passes
``_checks._check_fraction``: a real in [0, 1), or ``<name> must lie in
[0, 1), got <v>``.  None of the three takes a non-real (a bool, a str,
None or a complex): ``<name> must be a real number, got <type>``.  A
config object passes ``_checks._check_type``: ``<name> must be a <Class>,
got <type>``.
"""

import re

import numpy as np
import pytest

from rtea import (
    PenaltySpec,
    PeriodSpec,
    SolverConfig,
    TransientTrain,
    WeightArray,
    beta_lookup,
    build_weight_array,
    check_convexity,
    combined_majorizer_weights,
    default_config,
    envelope_spectrum,
    find_peaks,
    gen_mixture,
    gen_train,
    group_penalty,
    majorizer_weights,
    pogs_solve,
    rtea_solve,
)

N = 96
SIGNAL = np.random.default_rng(29).normal(size=N)
ABS = PenaltySpec("abs")
MASK = WeightArray(n1=3, n0=13, m=2)
PRIORS = (PeriodSpec(period_samples=16), PeriodSpec(period_samples=19))
SPECTRUM = envelope_spectrum(SIGNAL, fs=1000.0)
BAND = (5.0, 400.0)


def config(**fields):
    return SolverConfig(**{"lam0": 0.4, "lam1": 0.2, "lam2": 0.25, "pen0": ABS, "pen1": ABS,
                           "pen2": ABS, "k0": 2, "b1": MASK,
                           "b2": WeightArray(n1=2, n0=17, m=2), **fields})


# entry point and argument -> (call on a value, the name its errors give
# the argument, its least value, a valid value)
COUNTS = {
    "WeightArray-n1": (lambda v: WeightArray(n1=v, n0=3, m=1), "n1", 1, 2),
    "WeightArray-n0": (lambda v: WeightArray(n1=2, n0=v, m=1), "n0", 0, 3),
    "WeightArray-m": (lambda v: WeightArray(n1=2, n0=3, m=v), "m", 0, 1),
    "PeriodSpec-n1": (lambda v: PeriodSpec(period_samples=32, n1=v), "n1", 1, 3),
    "PeriodSpec-m": (lambda v: PeriodSpec(period_samples=32, m=v), "m", 1, 4),
    "SolverConfig-k0": (lambda v: config(k0=v), "k0", 1, 2),
    "SolverConfig-max_iter": (lambda v: config(max_iter=v), "max_iter", 1, 5),
    "default_config-max_iter": (lambda v: default_config(SIGNAL, *PRIORS, max_iter=v),
                                "max_iter", 1, 5),
    "pogs_solve-max_iter": (lambda v: pogs_solve(SIGNAL, MASK, 0.5, ABS, max_iter=v),
                            "max_iter", 1, 5),
    "check_convexity-k0": (lambda v: check_convexity(v, 1.0, 0.0), "k0", 1, 2),
    "combined_majorizer_weights-k0": (lambda v: combined_majorizer_weights(SIGNAL, v, ABS),
                                      "k0", 1, 2),
    "TransientTrain-transient_len": (lambda v: TransientTrain(32.0, transient_len=v),
                                     "transient_len", 1, 10),
    "TransientTrain-seed": (lambda v: TransientTrain(32.0, seed=v), "seed", 0, 7),
    "gen_mixture-seed": (lambda v: gen_mixture(n_samples=N, seed=v), "seed", 0, 7),
    "beta_lookup-n1": (lambda v: beta_lookup(v, 1), "n1", 1, 2),
    "beta_lookup-m": (lambda v: beta_lookup(1, v), "m", 1, 2),
    "gen_train-n_samples": (lambda v: gen_train(TransientTrain(32.0), v), "n_samples", 1, N),
    "gen_mixture-n_samples": (lambda v: gen_mixture(n_samples=v), "n_samples", 1, N),
    "find_peaks-n_harmonics": (lambda v: find_peaks(SPECTRUM, BAND, n_harmonics=v),
                               "n_harmonics", 1, 5),
    # the spectrum may interpolate, never drop samples
    "envelope_spectrum-nfft": (lambda v: envelope_spectrum(SIGNAL, 1000.0, nfft=v),
                               "nfft", N, 2 * N),
}

# entry point and argument -> (call on a value, the name its error gives the argument)
POSITIVES = {
    "PeriodSpec-period_samples": (lambda v: PeriodSpec(period_samples=v), "period_samples"),
    "PeriodSpec-fault_freq_hz": (lambda v: PeriodSpec(fault_freq_hz=v, sample_rate_hz=12800.0),
                                 "fault_freq_hz"),
    "PeriodSpec-sample_rate_hz": (lambda v: PeriodSpec(fault_freq_hz=57.8, sample_rate_hz=v),
                                  "sample_rate_hz"),
    "TransientTrain-period_samples": (lambda v: TransientTrain(v), "period_samples"),
    # gen_mixture's periods are named as given, not by the TransientTrain field
    "gen_mixture-t1": (lambda v: gen_mixture(n_samples=N, t1=v), "t1"),
    "gen_mixture-t2": (lambda v: gen_mixture(n_samples=N, t2=v), "t2"),
    "TransientTrain-modulation_freq_hz": (
        lambda v: TransientTrain(32.0, modulation_freq_hz=v, sample_rate_hz=100.0),
        "modulation_freq_hz",
    ),
    "TransientTrain-sample_rate_hz": (lambda v: TransientTrain(32.0, sample_rate_hz=v),
                                      "sample_rate_hz"),
    "envelope_spectrum-fs": (lambda v: envelope_spectrum(SIGNAL, v), "sample rate fs"),
    "envelope_spectrum-smooth_hz": (lambda v: envelope_spectrum(SIGNAL, 1000.0, smooth_hz=v),
                                    "smooth_hz"),
    "find_peaks-tol_hz": (lambda v: find_peaks(SPECTRUM, BAND, tol_hz=v), "tol_hz"),
    "SolverConfig-tol": (lambda v: config(tol=v), "tol"),
    "default_config-tol": (lambda v: default_config(SIGNAL, *PRIORS, tol=v), "tol"),
    "pogs_solve-tol": (lambda v: pogs_solve(SIGNAL, MASK, 0.5, ABS, tol=v), "tol"),
    "PenaltySpec-eps": (lambda v: PenaltySpec("abs", eps=v), "eps"),
    "pogs_solve-lam": (lambda v: pogs_solve(SIGNAL, MASK, v, ABS), "lam"),
    "check_convexity-lam0": (lambda v: check_convexity(2, v, 0.0), "lam0"),
}

# entry point and argument -> (call on a value, the name its error gives the argument)
NONNEGATIVES = {
    "PenaltySpec-a": (lambda v: PenaltySpec("atan", a=v), "a"),
    "SolverConfig-lam0": (lambda v: config(lam0=v), "lam0"),
    "SolverConfig-lam1": (lambda v: config(lam1=v), "lam1"),
    "SolverConfig-lam2": (lambda v: config(lam2=v), "lam2"),
    "check_convexity-a0": (lambda v: check_convexity(2, 1.0, v), "a0"),
    "gen_mixture-sigma": (lambda v: gen_mixture(n_samples=N, sigma=v), "sigma"),
    "TransientTrain-jitter_pct": (lambda v: TransientTrain(32.0, jitter_pct=v), "jitter_pct"),
    "gen_mixture-jitter_pct": (lambda v: gen_mixture(n_samples=N, jitter_pct=v), "jitter_pct"),
}

# entry point and argument -> (call on a value, the name its error gives the argument)
FRACTIONS = {
    "default_config-eta": (lambda v: default_config(SIGNAL, *PRIORS, eta=v), "eta"),
    "default_config-a0_fraction": (lambda v: default_config(SIGNAL, *PRIORS, a0_fraction=v),
                                   "a0_fraction"),
}
REALS = {**POSITIVES, **NONNEGATIVES, **FRACTIONS}
# the reals whose None means "not given"
OPTIONAL = {"PeriodSpec-period_samples", "PeriodSpec-fault_freq_hz",
            "PeriodSpec-sample_rate_hz", "TransientTrain-modulation_freq_hz",
            "TransientTrain-sample_rate_hz", "find_peaks-tol_hz"}
NON_REALS = {"bool": True, "numpy-bool": np.True_, "str": "1", "none": None, "complex": 1j}

# entry point and argument -> (call on a value, the name its error gives the
# argument, the class it takes)
CONFIG_OBJECTS = {
    "SolverConfig-pen0": (lambda v: config(pen0=v), "pen0", "PenaltySpec"),
    "SolverConfig-pen1": (lambda v: config(pen1=v), "pen1", "PenaltySpec"),
    "SolverConfig-pen2": (lambda v: config(pen2=v), "pen2", "PenaltySpec"),
    "SolverConfig-b1": (lambda v: config(b1=v), "b1", "WeightArray"),
    "SolverConfig-b2": (lambda v: config(b2=v), "b2", "WeightArray"),
    "pogs_solve-spec": (lambda v: pogs_solve(SIGNAL, MASK, 0.5, v), "spec", "PenaltySpec"),
    "pogs_solve-b": (lambda v: pogs_solve(SIGNAL, v, 0.5, ABS), "mask", "WeightArray"),
    "rtea_solve-cfg": (lambda v: rtea_solve(SIGNAL, v), "cfg", "SolverConfig"),
    "group_penalty-spec": (lambda v: group_penalty(SIGNAL, MASK, v), "spec", "PenaltySpec"),
    "majorizer_weights-spec": (lambda v: majorizer_weights(SIGNAL, MASK, v), "spec",
                               "PenaltySpec"),
    "combined_majorizer_weights-spec": (lambda v: combined_majorizer_weights(SIGNAL, 2, v),
                                        "spec", "PenaltySpec"),
    "build_weight_array-spec": (lambda v: build_weight_array(v), "spec", "PeriodSpec"),
}


@pytest.mark.parametrize("value", [2.5, 3.0], ids=["fraction", "integral-float"])
@pytest.mark.parametrize("entry", COUNTS)
def test_float_count_is_a_type_error_naming_the_argument(entry, value):
    call, name, _, _ = COUNTS[entry]
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got float$"):
        call(value)


@pytest.mark.parametrize("entry", COUNTS)
def test_bool_count_is_a_type_error_naming_the_argument(entry):
    call, name, _, _ = COUNTS[entry]
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got bool$"):
        call(True)


@pytest.mark.parametrize("entry", COUNTS)
def test_numpy_integer_count_is_accepted(entry):
    call, _, _, good = COUNTS[entry]
    call(np.int64(good))


@pytest.mark.parametrize("entry", COUNTS)
def test_count_below_its_least_value_is_refused_naming_the_argument(entry):
    call, name, least, _ = COUNTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan], ids=["zero", "negative", "inf",
                                                                     "nan"])
@pytest.mark.parametrize("entry", POSITIVES)
def test_non_positive_or_non_finite_real_is_refused_naming_the_argument(entry, value):
    call, name = POSITIVES[entry]
    cause = f"{name} must be a finite positive real, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
        call(value)


@pytest.mark.parametrize("value", [-1.0, np.inf, np.nan], ids=["negative", "inf", "nan"])
@pytest.mark.parametrize("entry", NONNEGATIVES)
def test_negative_or_non_finite_real_is_refused_naming_the_argument(entry, value):
    call, name = NONNEGATIVES[entry]
    cause = f"{name} must be a finite nonnegative real, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
        call(value)


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry in REALS for kind, value in NON_REALS.items()
    if not (value is None and entry in OPTIONAL)
])
def test_non_real_is_a_type_error_naming_the_argument(entry, value):
    call, name = REALS[entry]
    cause = f"{name} must be a real number, got {type(value).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(cause)}$"):
        call(value)


@pytest.mark.parametrize("entry", NONNEGATIVES)
def test_zero_is_accepted_where_a_setting_may_be_zero(entry):
    call, _ = NONNEGATIVES[entry]
    call(0.0)


@pytest.mark.parametrize("value", [-0.5, 1.0, np.inf, np.nan], ids=["negative", "one", "inf",
                                                                  "nan"])
@pytest.mark.parametrize("entry", FRACTIONS)
def test_share_outside_zero_to_one_is_refused_naming_the_argument(entry, value):
    call, name = FRACTIONS[entry]
    cause = f"{name} must lie in [0, 1), got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
        call(value)


@pytest.mark.parametrize("value", [None, 0.5], ids=["none", "float"])
@pytest.mark.parametrize("entry", CONFIG_OBJECTS)
def test_config_object_of_another_class_is_a_type_error_naming_it(entry, value):
    call, name, cls = CONFIG_OBJECTS[entry]
    cause = f"{name} must be a {cls}, got {type(value).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(cause)}$"):
        call(value)


@pytest.mark.parametrize("band, error, cause", [
    (("1", "5"), TypeError, "band_hz edge must be a real number, got str"),
    ((False, True), TypeError, "band_hz edge must be a real number, got bool"),
    ((1, 5, 7), ValueError, "band_hz must be a pair of edges (lo, hi), got (1, 5, 7)"),
    (5.0, ValueError, "band_hz must be a pair of edges (lo, hi), got 5.0"),
    ((np.nan, 100.0), ValueError, "band_hz must not have a NaN edge, got (nan, 100.0)"),
], ids=["str-edges", "bool-edges", "three-edges", "one-number", "nan-edge"])
def test_band_is_two_real_edges_or_a_refusal_naming_it(band, error, cause):
    with pytest.raises(error, match=f"^{re.escape(cause)}$"):
        find_peaks(SPECTRUM, band)


@pytest.mark.parametrize("band", [(-np.inf, 400.0), (5.0, np.inf), (np.float32(5), np.int64(400))],
                         ids=["open-low", "open-high", "numpy-scalars"])
def test_band_with_an_open_edge_or_numpy_scalars_is_accepted(band):
    find_peaks(SPECTRUM, band)
