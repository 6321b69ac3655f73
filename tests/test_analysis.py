import re
import time

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from rtea.analysis import (
    EnvelopeSpectrum,
    _analytic_signal,
    _local_maxima,
    _rms,
    envelope_spectrum,
    find_peaks,
    rmse,
)
from rtea.synth import TransientTrain, gen_train


class TestRmse:
    def test_identical(self):
        x = np.arange(10.0)
        assert rmse(x, x) == 0.0

    def test_unit_offset(self):
        assert rmse(np.ones(4), np.zeros(4)) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 100))
        assert rmse(a, b) == rmse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))


class TestEnvelopeSpectrum:
    def test_am_demodulation(self):
        fs = 12800.0
        t = np.arange(int(fs)) / fs
        x = (1 + 0.8 * np.cos(2 * np.pi * 45.0 * t)) * np.sin(2 * np.pi * 2000.0 * t)
        spec = envelope_spectrum(x, fs)
        assert isinstance(spec, EnvelopeSpectrum)
        sel = spec.freqs_hz > 2.0
        peak = spec.freqs_hz[sel][np.argmax(spec.magnitude[sel])]
        assert abs(peak - 45.0) <= spec.resolution_hz

    def test_pure_tone_has_flat_envelope(self):
        fs = 12800.0
        t = np.arange(int(fs)) / fs
        x = np.sin(2 * np.pi * 200.0 * t)
        spec = envelope_spectrum(x, fs)
        env = np.abs(_analytic_signal(x))
        dc_level = float(np.sum(env))
        above = spec.freqs_hz > 1.0
        assert np.max(spec.magnitude[above]) < 0.01 * dc_level

    def test_transient_train_rate(self):
        fs = 12800.0
        train = TransientTrain(period_samples=296.0, seed=1)
        g = gen_train(train, 6400)
        spec = envelope_spectrum(g.clean, fs, nfft=4 * 6400)
        sel = (spec.freqs_hz > 20) & (spec.freqs_hz < 100)
        peak = spec.freqs_hz[sel][np.argmax(spec.smoothed[sel])]
        assert abs(peak - fs / 296.0) < 1.0

    def test_sign_flip_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=512)
        a = envelope_spectrum(x, 100.0)
        b = envelope_spectrum(-x, 100.0)
        np.testing.assert_array_equal(a.magnitude, b.magnitude)

    def test_analytic_energy_dominates(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=256)
            analytic = _analytic_signal(x)
            assert np.sum(np.abs(analytic) ** 2) >= np.sum(x * x) - 1e-9

    def test_smoothing_preserves_area(self):
        fs = 1000.0
        t = np.arange(2000) / fs
        x = (1 + 0.5 * np.cos(2 * np.pi * 40 * t)) * np.sin(2 * np.pi * 250 * t)
        spec = envelope_spectrum(x, fs, smooth_hz=4.0)
        assert np.sum(spec.smoothed) == pytest.approx(np.sum(spec.magnitude), rel=0.01)

    def test_nfft_below_length_rejected(self):
        with pytest.raises(ValueError):
            envelope_spectrum(np.zeros(100), 10.0, nfft=50)

    def test_bad_fs_rejected(self):
        for fs in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sample rate fs must be a finite positive"):
                envelope_spectrum(np.zeros(100), fs)
        for smooth_hz in (np.inf, np.nan):
            with pytest.raises(ValueError,
                               match=f"smooth_hz must be a finite positive real, got {smooth_hz}"):
                envelope_spectrum(np.zeros(100), 10.0, smooth_hz=smooth_hz)

    @pytest.mark.parametrize("smooth_hz", [-5.0, 0.0, -1e-300])
    def test_non_positive_smooth_hz_rejected(self, smooth_hz):
        with pytest.raises(ValueError,
                           match=f"smooth_hz must be a finite positive real, got {smooth_hz}"):
            envelope_spectrum(np.ones(100), 10.0, smooth_hz=smooth_hz)

    @pytest.mark.parametrize("top", [1.6e308, 1e308])
    def test_overflowing_spectrum_is_refused_without_a_warning(self, top):
        # tier-1 turns numpy's overflow warning into an error
        x = np.random.default_rng(3).normal(size=256)
        x *= top / np.max(np.abs(x))
        cause = f"envelope spectrum of x overflows at largest |x| = {top:.3g}"
        with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
            envelope_spectrum(x, 100.0)


class TestScipyEquivalence:
    """The numpy analytic signal and local maxima against scipy.signal."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 64), st.integers(65, 5000)),
        exponent=st.integers(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_analytic_signal_matches_hilbert(self, n, exponent, seed):
        x = np.random.default_rng(seed).normal(size=n) * 10.0**exponent
        expected = scipy.signal.hilbert(x)
        got = _analytic_signal(x)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=500, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6)), max_size=20),
        length=st.integers(0, 40),
    )
    def test_local_maxima_match_find_peaks(self, runs, length):
        # runs of equal values put plateaus in the interior and at both ends
        values = [v for v, k in runs for _ in range(k)][:length]
        v = np.array(values, dtype=float)
        np.testing.assert_array_equal(_local_maxima(v), scipy.signal.find_peaks(v)[0])


class TestFindPeaks:
    def make_spectrum(self, values, fs=100.0):
        n = len(values)
        freqs = np.linspace(0, fs / 2, n)
        values = np.asarray(values, dtype=float)
        return EnvelopeSpectrum(
            freqs_hz=freqs,
            magnitude=values,
            smoothed=values,
            resolution_hz=freqs[1] - freqs[0],
        )

    def test_flat_spectrum_empty(self):
        spec = self.make_spectrum(np.ones(101))
        rep = find_peaks(spec, (5.0, 45.0))
        assert rep.peaks == [] and rep.fundamental_hz is None
        assert rep.harmonic_score == 0.0

    def test_harmonic_comb(self):
        freqs = np.linspace(0, 50, 501)  # 0.1 Hz bins
        mag = np.zeros_like(freqs)
        for k in (1, 2, 3, 4):
            idx = int(k * 10.0 / 0.1)
            mag[idx] = 5.0 / k
        spec = EnvelopeSpectrum(freqs, mag, mag, 0.1)
        rep = find_peaks(spec, (5.0, 15.0), n_harmonics=4, tol_hz=0.2)
        assert rep.fundamental_hz == pytest.approx(10.0)
        assert rep.harmonics_found == [1, 2, 3, 4]
        assert rep.harmonic_score == 1.0

    def test_sorted_by_magnitude(self):
        freqs = np.linspace(0, 50, 501)
        mag = np.zeros_like(freqs)
        mag[100] = 1.0
        mag[200] = 3.0
        mag[300] = 2.0
        spec = EnvelopeSpectrum(freqs, mag, mag, 0.1)
        rep = find_peaks(spec, (5.0, 45.0), n_harmonics=1, tol_hz=0.2)
        assert [round(f, 1) for f, _ in rep.peaks] == [20.0, 30.0, 10.0]

    def test_empty_band_rejected(self):
        spec = self.make_spectrum(np.ones(101))
        with pytest.raises(ValueError):
            find_peaks(spec, (30.0, 10.0))
        with pytest.raises(ValueError):
            find_peaks(spec, (60.0, 80.0))

    def test_harmonic_search_ends_at_the_highest_maximum(self):
        # a comb at 10 Hz with its top maximum at 40 Hz: no harmonic above it
        freqs = np.linspace(0, 50, 501)
        mag = np.zeros_like(freqs)
        for k in (1, 2, 4):
            mag[100 * k] = 5.0 / k
        spec = EnvelopeSpectrum(freqs, mag, mag, 0.1)
        start = time.perf_counter()
        rep = find_peaks(spec, (5.0, 15.0), n_harmonics=10**8, tol_hz=0.2)
        assert time.perf_counter() - start < 1.0
        maxima = freqs[_local_maxima(mag)]
        # brute force, a few harmonics past the bound
        brute = [k for k in range(1, 10) if np.min(np.abs(maxima - k * 10.0)) <= 0.2]
        assert rep.harmonics_found == brute == [1, 2, 4]
        assert rep.harmonic_score == 3 / 10**8

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(0, 4), min_size=3, max_size=80),
           n_harmonics=st.integers(1, 60), tol=st.floats(0.01, 0.99))
    def test_harmonics_match_brute_force(self, values, n_harmonics, tol):
        spec = self.make_spectrum(values, fs=100.0)
        tol_hz = tol * spec.freqs_hz[-1]
        rep = find_peaks(spec, (0.0, 50.0), n_harmonics=n_harmonics, tol_hz=tol_hz)
        maxima = spec.freqs_hz[_local_maxima(spec.smoothed)]
        brute = [] if rep.fundamental_hz is None else [
            k for k in range(1, n_harmonics + 1)
            if np.min(np.abs(maxima - k * rep.fundamental_hz)) <= tol_hz]
        assert rep.harmonics_found == brute

    def test_tolerance_spanning_the_spectrum_rejected(self):
        spec = self.make_spectrum(np.ones(101))
        with pytest.raises(ValueError, match="tol_hz = 50.0 is not below the top of the spectrum"):
            find_peaks(spec, (5.0, 45.0), tol_hz=50.0)


class TestRms:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), exponent=st.integers(-150, 150), seed=st.integers(0, 2**32 - 1))
    def test_plain_formula_wherever_it_is_finite(self, n, exponent, seed):
        x = np.random.default_rng(seed).normal(size=n) * 10.0**exponent
        assert _rms(x) == float(np.sqrt(np.mean(x * x)))

    def test_overflowing_squares_stay_finite(self):
        x = np.random.default_rng(0).normal(size=1024)
        expected = 1e160 * float(np.sqrt(np.mean(x * x)))
        assert _rms(1e160 * x) == pytest.approx(expected, rel=1e-12)
        assert rmse(1e160 * x, np.zeros_like(x)) == pytest.approx(expected, rel=1e-12)
        assert rmse(1e160 * x, -1e160 * x) == pytest.approx(2 * expected, rel=1e-12)
