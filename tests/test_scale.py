"""Scale equivariance: scaling the observation by s = 2**k, with every
setting that carries a data unit scaled to match, scales every output by s
bit for bit.  Powers of two keep each product exact, so any difference is
a rule that reads an absolute data unit.

The objective ``0.5*||y - sum(xs)||^2 + sum lam*P(x; a, eps)`` becomes
``s**2`` times itself under ``y -> s*y``, ``x -> s*x``, ``lam -> s*lam``,
``a -> a/s`` and ``eps -> s**2 * eps``, so both solvers must return
``s*x`` with ``s**2`` times the cost history, after the same number of map
evaluations.  The noise estimate, the default config's weights and the
envelope spectrum are equivariant without any setting scaled; only each
penalty's absolute ``eps`` is not.
"""

from dataclasses import replace

import numpy as np
import pytest

from rtea.analysis import envelope_spectrum, find_peaks
from rtea.params import PeriodSpec, beta_lookup, build_weight_array, default_config, estimate_sigma
from rtea.penalties import PenaltySpec
from rtea.solver import pogs_solve, rtea_solve
from rtea.synth import gen_mixture

EXPONENTS = range(-20, 21)
SPECS = (PeriodSpec(period_samples=32), PeriodSpec(period_samples=53))
FS = 1024.0
BAND = (10.0, 200.0)


@pytest.fixture(scope="module")
def y():
    return gen_mixture(n_samples=1024, t1=32, t2=53, seed=7).y


def scaled_spec(spec, s):
    return replace(spec, a=spec.a / s, eps=spec.eps * s * s)


def assert_scaled(res, base, s):
    assert len(res.xs) == len(base.xs)
    for x, x0 in zip(res.xs, base.xs):
        assert x.tobytes() == (s * x0).tobytes()
    assert res.cost_history.tobytes() == (s * s * base.cost_history).tobytes()
    assert (res.iterations, res.converged) == (base.iterations, base.converged)


@pytest.mark.parametrize("k", EXPONENTS)
def test_rtea_solve_is_scale_equivariant(y, k):
    s = 2.0**k
    cfg = default_config(y, *SPECS)
    scaled = replace(cfg, lam0=s * cfg.lam0, lam1=s * cfg.lam1, lam2=s * cfg.lam2,
                     pen0=scaled_spec(cfg.pen0, s), pen1=scaled_spec(cfg.pen1, s),
                     pen2=scaled_spec(cfg.pen2, s))
    assert_scaled(rtea_solve(s * y, scaled), rtea_solve(y, cfg), s)


@pytest.mark.parametrize("k", EXPONENTS)
def test_pogs_solve_is_scale_equivariant(y, k):
    s = 2.0**k
    b = build_weight_array(SPECS[0])
    lam = beta_lookup(SPECS[0].n1, SPECS[0].m) * estimate_sigma(y)
    spec = PenaltySpec("atan")
    base = pogs_solve(y, b, lam, spec)
    assert_scaled(pogs_solve(s * y, b, s * lam, scaled_spec(spec, s)), base, s)


@pytest.mark.parametrize("k", EXPONENTS)
def test_noise_estimate_is_scale_equivariant(y, k):
    s = 2.0**k
    assert estimate_sigma(s * y) == s * estimate_sigma(y)


@pytest.mark.parametrize("k", EXPONENTS)
def test_default_config_scales_weights_and_concavity(y, k):
    s = 2.0**k
    cfg, scaled = default_config(y, *SPECS), default_config(s * y, *SPECS)
    assert (scaled.lam0, scaled.lam1, scaled.lam2) == (s * cfg.lam0, s * cfg.lam1, s * cfg.lam2)
    assert scaled.pen0.a == cfg.pen0.a / s > 0
    # the absolute smoothing is the one setting that does not follow the data
    assert [p.eps for p in (scaled.pen0, scaled.pen1, scaled.pen2)] == [
        p.eps for p in (cfg.pen0, cfg.pen1, cfg.pen2)]


@pytest.mark.parametrize("k", EXPONENTS)
def test_envelope_spectrum_and_peaks_are_scale_equivariant(y, k):
    s = 2.0**k
    spec, scaled = envelope_spectrum(y, FS), envelope_spectrum(s * y, FS)
    assert scaled.freqs_hz.tobytes() == spec.freqs_hz.tobytes()
    assert scaled.magnitude.tobytes() == (s * spec.magnitude).tobytes()
    assert scaled.smoothed.tobytes() == (s * spec.smoothed).tobytes()
    report, scaled_report = find_peaks(spec, BAND), find_peaks(scaled, BAND)
    assert [f for f, _ in scaled_report.peaks] == [f for f, _ in report.peaks]
    assert scaled_report.fundamental_hz == report.fundamental_hz is not None
    assert scaled_report.harmonics_found == report.harmonics_found
