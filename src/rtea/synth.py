"""Seeded synthesis of repetitive-transient test signals with ground truth.

Each transient is a short sum of random sinusoids; a train places fresh
transients at (optionally jittered) period multiples; a mixture sums two
trains and additive white Gaussian noise.  Everything is reproducible from
integer seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TransientTrain:
    """Recipe for one periodic transient sequence.

    Ranges are inclusive low/high pairs for the uniform draws; collapse a
    range to a point to pin the value.  ``jitter_pct`` perturbs each onset
    by up to that percentage of the period.  If ``modulation_freq_hz`` is
    set (requires ``sample_rate_hz``), each transient is scaled by a
    ``1 + cos`` envelope evaluated at its onset time.
    """

    period_samples: float
    transient_len: int = 10
    amplitude_range: tuple[float, float] = (0.5, 2.0)
    freq_range: tuple[float, float] = (0.2 * np.pi, 0.9 * np.pi)
    phase_range: tuple[float, float] = (0.0, TWO_PI)
    n_sines_range: tuple[int, int] = (1, 10)
    jitter_pct: float = 0.0
    modulation_freq_hz: float | None = None
    sample_rate_hz: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.transient_len < 1:
            raise ValueError(f"transient_len must be >= 1, got {self.transient_len}")
        if not self.period_samples > 0:
            raise ValueError(f"period must be positive, got {self.period_samples}")
        if not 0.0 <= self.jitter_pct <= 5.0:
            raise ValueError(f"jitter_pct must lie in [0, 5], got {self.jitter_pct}")
        for name in ("amplitude_range", "freq_range", "phase_range", "n_sines_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} has low > high: {(lo, hi)}")
        if self.n_sines_range[0] < 1:
            raise ValueError("n_sines_range must start at >= 1")
        if self.modulation_freq_hz is not None and self.sample_rate_hz is None:
            raise ValueError("modulation_freq_hz requires sample_rate_hz")


@dataclass(frozen=True)
class GeneratedTrain:
    """One synthesized train: samples, onset indices and occupied support."""

    clean: np.ndarray
    onsets: np.ndarray
    support: np.ndarray


def _rng_of(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _draw_transient(rng: np.random.Generator, train: TransientTrain) -> np.ndarray:
    # one transient: a sum of 1..J random sinusoids over the window
    lo, hi = train.n_sines_range
    j = int(rng.integers(lo, hi + 1))
    n = np.arange(train.transient_len)
    g = np.zeros(train.transient_len)
    for _ in range(j):
        amp = rng.uniform(*train.amplitude_range)
        omega = rng.uniform(*train.freq_range)
        theta = rng.uniform(*train.phase_range)
        g += amp * np.sin(omega * n + theta)
    return g


def gen_train(train: TransientTrain, n_samples: int) -> GeneratedTrain:
    """Place independent transients at period multiples (plus jitter).

    Transients that run past the end are truncated; with zero jitter and a
    period longer than the transient they never overlap.  Samples outside
    the returned support are exactly zero.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    t = train.period_samples
    if t <= train.transient_len:
        raise ValueError(
            f"period {t} must exceed transient_len {train.transient_len}; "
            "consecutive transients would overlap"
        )
    rng = _rng_of(train.seed)
    clean = np.zeros(n_samples)
    occupied = np.zeros(n_samples, dtype=bool)
    onsets = []
    k = 0
    while int(round(k * t)) < n_samples:
        onset = k * t
        if train.jitter_pct > 0:
            onset += rng.uniform(-1.0, 1.0) * (train.jitter_pct / 100.0) * t
        onset = max(0, int(round(onset)))
        g = _draw_transient(rng, train)
        if train.modulation_freq_hz is not None:
            phase = TWO_PI * train.modulation_freq_hz * onset / train.sample_rate_hz
            g = g * (1.0 + np.cos(phase))
        if onset < n_samples:
            stop = min(onset + train.transient_len, n_samples)
            clean[onset:stop] += g[: stop - onset]
            occupied[onset:stop] = True
            onsets.append(onset)
        k += 1
    return GeneratedTrain(
        clean=clean,
        onsets=np.asarray(onsets, dtype=int),
        support=np.flatnonzero(occupied),
    )


@dataclass(frozen=True)
class Mixture:
    """Two-train observation with full ground truth."""

    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    noise: np.ndarray
    train1: GeneratedTrain
    train2: GeneratedTrain
    sigma: float
    seed: int
    seeds: tuple[int, int, int] = field(repr=False, default=(0, 0, 0))


def gen_mixture(
    n_samples: int = 1024,
    t1: float = 32.0,
    t2: float = 53.0,
    sigma: float = 0.5,
    seed: int = 0,
    transient_len: int = 10,
    jitter_pct: float = 0.0,
    modulation_freq_hz: float | None = None,
    sample_rate_hz: float | None = None,
) -> Mixture:
    """Synthesize ``y = x1 + x2 + noise`` with periods ``t1`` and ``t2``.

    Child seeds for the two trains and the noise are derived from ``seed``,
    so the whole record is reproducible from one integer.
    """
    root = np.random.default_rng(seed)
    s1, s2, sn = (int(v) for v in root.integers(0, 2**63 - 1, size=3))
    common = dict(
        transient_len=transient_len,
        jitter_pct=jitter_pct,
        sample_rate_hz=sample_rate_hz,
    )
    g1 = gen_train(TransientTrain(period_samples=t1, seed=s1, **common), n_samples)
    g2 = gen_train(
        TransientTrain(
            period_samples=t2,
            seed=s2,
            modulation_freq_hz=modulation_freq_hz,
            **common,
        ),
        n_samples,
    )
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    clean = g1.clean + g2.clean
    noise = _rng_of(sn).normal(0.0, sigma, size=n_samples)
    y = clean + noise
    return Mixture(
        y=y,
        x1=g1.clean,
        x2=g2.clean,
        noise=noise,
        train1=g1,
        train2=g2,
        sigma=sigma,
        seed=seed,
        seeds=(s1, s2, sn),
    )
