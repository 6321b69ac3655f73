"""Every public entry point that takes a signal checks it the same way.

A signal enters the package through one check (``_checks._as_signal``),
so a non-finite sample is refused wherever it is passed, with a message that
names the argument and the first bad index, and no later stage (the noise
estimate, the spectrum, the peak search) sees it.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtea import (
    PenaltySpec,
    PeriodSpec,
    SolverConfig,
    WeightArray,
    combined_majorizer_weights,
    default_config,
    envelope_spectrum,
    estimate_sigma,
    group_penalty,
    majorizer_weights,
    pogs_solve,
    rtea_solve,
)

N = 96
CLEAN = np.random.default_rng(13).normal(size=N)
ABS = PenaltySpec("abs")
MASK = WeightArray(n1=3, n0=13, m=2)
CONFIG = SolverConfig(lam0=0.4, lam1=0.2, lam2=0.25, pen0=ABS, pen1=ABS, pen2=ABS,
                      k0=2, b1=MASK, b2=WeightArray(n1=2, n0=17, m=2))

# entry point -> (call on a signal, the name its errors give the signal)
ENTRY_POINTS = {
    "rtea_solve-y": (lambda x: rtea_solve(x, CONFIG), "observation"),
    "rtea_solve-init": (lambda x: rtea_solve(CLEAN, CONFIG, init=(CLEAN, x)), "init"),
    "pogs_solve": (lambda x: pogs_solve(x, MASK, 0.5, ABS), "observation"),
    "default_config": (
        lambda x: default_config(x, PeriodSpec(period_samples=16), PeriodSpec(period_samples=19)),
        "observation",
    ),
    "estimate_sigma": (estimate_sigma, "observation"),
    "envelope_spectrum": (lambda x: envelope_spectrum(x, fs=1000.0), "x"),
    "group_penalty": (lambda x: group_penalty(x, MASK, ABS), "x"),
    "majorizer_weights": (lambda x: majorizer_weights(x, MASK, ABS), "z"),
    "combined_majorizer_weights": (lambda x: combined_majorizer_weights(x, 3, ABS), "z"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=25, deadline=None)
@given(bad=st.dictionaries(st.integers(0, N - 1), st.sampled_from([np.nan, np.inf, -np.inf]),
                           min_size=1, max_size=3))
def test_nonfinite_samples_are_refused_naming_argument_and_first_index(entry, bad):
    call, name = ENTRY_POINTS[entry]
    x = CLEAN.copy()
    x[list(bad)] = list(bad.values())
    with pytest.raises(ValueError) as exc:
        call(x)
    message = str(exc.value)
    first = min(bad)
    assert (f"non-finite input: {name} contains non-finite samples ({len(bad)} of {N}), "
            f"the first {name}[{first}] = {bad[first]}") in message
    # the cause is the input, not the noise estimate it would have spoiled
    assert "noise estimate" not in message


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_two_dimensional_signal_is_refused(entry):
    call, name = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a 1-D signal, got shape")):
        call(CLEAN.reshape(2, -1))


@pytest.mark.parametrize("call, name", [
    (estimate_sigma, "observation"),
    (lambda x: envelope_spectrum(x, fs=1000.0), "x"),
], ids=["estimate_sigma", "envelope_spectrum"])
def test_one_sample_is_too_short_for_a_spread_or_a_spectrum(call, name):
    with pytest.raises(ValueError, match=f"{name} needs at least 2 samples, got 1"):
        call([0.5])
