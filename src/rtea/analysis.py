"""Diagnostics: RMSE, Hilbert envelope spectra and peak identification.

numpy only.  The envelope is the magnitude of the analytic signal, built by
the one-sided FFT construction (Marple, IEEE TSP 47(9), 1999).  Peaks are
the local maxima of the smoothed envelope spectrum: a flat top counts once,
at its midpoint (rounded down), and neither end of the profile is ever a
maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import _as_signal, _check_count, _check_positive, _check_real


def rmse(a, b) -> float:
    """Root-mean-square error between two equal-length signals."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _rms(a - b)


def _rms(x: np.ndarray) -> float:
    """Root mean square of ``x``.  Where the squares overflow (above about
    1.3e154) it is taken of ``x`` divided by its largest magnitude and
    scaled back, so it stays finite; every other value is the plain
    ``sqrt(mean(x*x))``."""
    with np.errstate(over="ignore"):
        r = float(np.sqrt(np.mean(x * x)))
    if r == np.inf:
        top = float(np.max(np.abs(x)))
        r = top * float(np.sqrt(np.mean(np.square(x / top))))
    return r


@dataclass(frozen=True)
class EnvelopeSpectrum:
    """One-sided spectrum of the mean-removed Hilbert envelope."""

    freqs_hz: np.ndarray
    magnitude: np.ndarray
    smoothed: np.ndarray
    resolution_hz: float


def _moving_average(v: np.ndarray, width: int) -> np.ndarray:
    # Centered (zero-phase) moving average over an odd width <= v.size.
    kernel = np.full(width, 1.0 / width)
    return np.convolve(v, kernel, mode="same")


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    # keep DC (and Nyquist for even n), double the positive bins, zero the
    # negative ones; the real part of the result is x itself
    n = x.size
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[n // 2] = 1.0
    h[1 : (n + 1) // 2] = 2.0
    return np.fft.ifft(np.fft.fft(x) * h)


def envelope_spectrum(x, fs: float, nfft: int | None = None, smooth_hz: float = 2.0) -> EnvelopeSpectrum:
    """Envelope spectrum of ``x``: analytic-signal magnitude, mean removed,
    Fourier magnitude on ``nfft`` points, plus a lowpass-smoothed profile.

    The analytic signal doubles the one-sided spectrum in the frequency
    domain; the envelope mean is removed before the transform so the DC bin
    does not mask low-frequency repetition rates.  ``nfft`` may exceed the
    signal length to interpolate the spectrum (default: signal length).
    """
    x = _as_signal(x, "x", min_size=2)
    _check_positive("sample rate fs", fs)
    _check_positive("smooth_hz", smooth_hz)
    if nfft is None:
        nfft = x.size
    _check_count("nfft", nfft, x.size)
    resolution = fs / nfft
    if not resolution > 0:
        raise ValueError(f"resolution fs / nfft = {fs} / {nfft} underflows to 0")
    # the smoothing kernel, odd so that it is centered; an overflowing span
    # stays inf, wider than any spectrum
    span = smooth_hz / resolution
    width = max(3, int(round(span))) | 1 if span < np.inf else span
    bins = nfft // 2 + 1
    if width > bins:
        raise ValueError(
            f"smooth_hz = {smooth_hz} spans a {width}-bin smoothing kernel, "
            f"wider than the {bins}-bin spectrum"
        )
    # samples near the top of the double range overflow the transforms
    with np.errstate(all="ignore"):
        env = np.abs(_analytic_signal(x))
        env = env - env.mean()
        magnitude = np.abs(np.fft.rfft(env, n=nfft))
    if not np.isfinite(magnitude).all():
        raise ValueError(f"envelope spectrum of x overflows at largest |x| = {np.abs(x).max():.3g}")
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    return EnvelopeSpectrum(
        freqs_hz=freqs,
        magnitude=magnitude,
        smoothed=_moving_average(magnitude, width),
        resolution_hz=resolution,
    )


@dataclass(frozen=True)
class PeakReport:
    """Peaks of the smoothed profile in a band, strongest first.

    ``harmonic_score`` is the fraction of multiples k*f1 (k = 1..n) of the
    strongest peak that coincide with some local maximum of the profile.
    """

    peaks: list[tuple[float, float]]
    fundamental_hz: float | None
    harmonic_score: float
    harmonics_found: list[int]


def _local_maxima(v: np.ndarray) -> np.ndarray:
    # A moving-averaged impulse has a flat top, which a strict two-sided
    # test would miss.  Skipping the zero steps, a maximum is a rise followed
    # by a fall; the plateau between them (left..right) reports its midpoint
    # (left + right) // 2.  A plateau touching either end has no rise or no
    # fall on that side, so edges are never maxima.
    d = np.diff(v)
    steps = np.flatnonzero(d)
    rise = d[steps] > 0
    top = np.flatnonzero(rise[:-1] & ~rise[1:])
    left = steps[top] + 1
    right = steps[top + 1]
    return (left + right) // 2


def find_peaks(
    spec: EnvelopeSpectrum,
    band_hz: tuple[float, float],
    n_harmonics: int = 5,
    tol_hz: float | None = None,
) -> PeakReport:
    """Locate local maxima of the smoothed profile inside ``band_hz`` and
    score how consistently multiples of the strongest one reappear within
    ``tol_hz`` (default: the larger of 1 Hz and two bins).  An infinite band
    edge leaves that side open.  A given ``tol_hz`` must be below the top of
    the spectrum.  The search ends at the highest local maximum: no multiple
    above it plus ``tol_hz`` can be found."""
    try:
        lo, hi = band_hz
    except (TypeError, ValueError):
        raise ValueError(f"band_hz must be a pair of edges (lo, hi), got {band_hz!r}") from None
    for edge in (lo, hi):
        _check_real("band_hz edge", edge)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"band_hz must not have a NaN edge, got {band_hz}")
    if not lo < hi:
        raise ValueError(f"empty band: {band_hz}")
    if hi <= float(spec.freqs_hz[0]) or lo >= float(spec.freqs_hz[-1]):
        raise ValueError(f"band {band_hz} lies outside the spectrum range")
    _check_count("n_harmonics", n_harmonics)
    if tol_hz is None:
        tol_hz = max(1.0, 2.0 * spec.resolution_hz)
    else:
        _check_positive("tol_hz", tol_hz)
        if not tol_hz < spec.freqs_hz[-1]:
            # every multiple up to the top maximum plus tol_hz would be found
            raise ValueError(
                f"tol_hz = {tol_hz} is not below the top of the spectrum, "
                f"{float(spec.freqs_hz[-1])} Hz"
            )
    maxima = _local_maxima(spec.smoothed)
    freqs = spec.freqs_hz[maxima]
    mags = spec.smoothed[maxima]
    in_band = (freqs >= lo) & (freqs <= hi)
    order = np.argsort(mags[in_band])[::-1]
    peaks = [
        (float(f), float(g))
        for f, g in zip(freqs[in_band][order], mags[in_band][order])
    ]
    if not peaks:
        return PeakReport(peaks=[], fundamental_hz=None, harmonic_score=0.0, harmonics_found=[])
    f1 = peaks[0][0]
    # f1 > 0 (an edge is never a maximum); one k past the bound absorbs rounding
    top = min(n_harmonics, int((freqs[-1] + tol_hz) // f1) + 1)
    found = [k for k in range(1, top + 1) if np.min(np.abs(freqs - k * f1)) <= tol_hz]
    return PeakReport(
        peaks=peaks,
        fundamental_hz=f1,
        harmonic_score=len(found) / n_harmonics,
        harmonics_found=found,
    )
