"""Seeded synthesis of repetitive-transient test signals with ground truth.

Each transient is a short sum of random sinusoids; a train places fresh
transients at (optionally jittered) period multiples; a mixture sums two
trains and additive white Gaussian noise.  Everything is reproducible from
integer seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _check_count, _check_nonnegative, _check_positive

TWO_PI = 2.0 * np.pi
# Low/high bounds of each transient's uniform draws, in draw order: the count
# of sinusoids (inclusive), then per sinusoid its amplitude, frequency, phase.
N_SINES = (1, 10)
AMPLITUDE = (0.5, 2.0)
FREQ = (0.2 * np.pi, 0.9 * np.pi)
PHASE = (0.0, TWO_PI)


@dataclass(frozen=True)
class TransientTrain:
    """Recipe for one periodic transient sequence.

    Each transient is drawn from the module's ``N_SINES``, ``AMPLITUDE``,
    ``FREQ`` and ``PHASE`` bounds.  ``jitter_pct`` perturbs each onset
    by up to that percentage of the period.  If ``modulation_freq_hz`` is
    set (requires ``sample_rate_hz``), each transient is scaled by a
    ``1 + cos`` envelope evaluated at its onset time.
    """

    period_samples: float
    transient_len: int = 10
    jitter_pct: float = 0.0
    modulation_freq_hz: float | None = None
    sample_rate_hz: float | None = None
    seed: int = 0

    def __post_init__(self):
        _check_count("transient_len", self.transient_len)
        _check_count("seed", self.seed, 0)
        _check_positive("period_samples", self.period_samples)
        _check_nonnegative("jitter_pct", self.jitter_pct)
        if not self.jitter_pct <= 5.0:
            raise ValueError(f"jitter_pct must lie in [0, 5], got {self.jitter_pct}")
        if self.modulation_freq_hz is not None and self.sample_rate_hz is None:
            raise ValueError("modulation_freq_hz requires sample_rate_hz")
        for name in ("modulation_freq_hz", "sample_rate_hz"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class GeneratedTrain:
    """One synthesized train: samples and onset indices."""

    clean: np.ndarray
    onsets: np.ndarray


def _draw_transient(rng: np.random.Generator, train: TransientTrain) -> np.ndarray:
    # one transient: a sum of 1..J random sinusoids over the window
    j = int(rng.integers(N_SINES[0], N_SINES[1] + 1))
    n = np.arange(train.transient_len)
    g = np.zeros(train.transient_len)
    for _ in range(j):
        amp = rng.uniform(*AMPLITUDE)
        omega = rng.uniform(*FREQ)
        theta = rng.uniform(*PHASE)
        g += amp * np.sin(omega * n + theta)
    return g


def _check_train(train: TransientTrain, n_samples: int) -> None:
    # the checks of gen_train, made before it allocates anything
    _check_count("n_samples", n_samples)
    t = train.period_samples
    if t <= train.transient_len:
        raise ValueError(
            f"period {t} must exceed transient_len {train.transient_len}; "
            "consecutive transients would overlap"
        )
    f = train.modulation_freq_hz
    if f is not None and not TWO_PI * f * n_samples / train.sample_rate_hz < np.inf:
        raise ValueError(
            f"modulation phase 2*pi*modulation_freq_hz*n/sample_rate_hz = "
            f"2*pi*{f}*{n_samples}/{train.sample_rate_hz} overflows"
        )


def gen_train(train: TransientTrain, n_samples: int) -> GeneratedTrain:
    """Place independent transients at period multiples (plus jitter).

    Transients that run past the end are truncated; with zero jitter and a
    period longer than the transient they never overlap.  Samples outside
    the ``transient_len`` windows that start at the onsets are exactly zero.
    """
    _check_train(train, n_samples)
    t = train.period_samples
    rng = np.random.default_rng(train.seed)
    clean = np.zeros(n_samples)
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
            onsets.append(onset)
        k += 1
    return GeneratedTrain(clean=clean, onsets=np.asarray(onsets, dtype=int))


@dataclass(frozen=True)
class Mixture:
    """Two-train observation with full ground truth."""

    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    noise: np.ndarray
    onsets1: np.ndarray
    onsets2: np.ndarray
    seeds: tuple[int, int, int]


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
    _check_nonnegative("sigma", sigma)
    _check_count("seed", seed, 0)
    # each period refused under its own name, not as TransientTrain's period_samples
    _check_positive("t1", t1)
    _check_positive("t2", t2)
    root = np.random.default_rng(seed)
    s1, s2, sn = (int(v) for v in root.integers(0, 2**63 - 1, size=3))
    common = dict(
        transient_len=transient_len,
        jitter_pct=jitter_pct,
        sample_rate_hz=sample_rate_hz,
    )
    # both trains checked, in the order they are built, before either is placed
    train1 = TransientTrain(period_samples=t1, seed=s1, **common)
    _check_train(train1, n_samples)
    train2 = TransientTrain(
        period_samples=t2,
        seed=s2,
        modulation_freq_hz=modulation_freq_hz,
        **common,
    )
    _check_train(train2, n_samples)
    g1, g2 = gen_train(train1, n_samples), gen_train(train2, n_samples)
    clean = g1.clean + g2.clean
    noise = np.random.default_rng(sn).normal(0.0, sigma, size=n_samples)
    y = clean + noise
    return Mixture(
        y=y,
        x1=g1.clean,
        x2=g2.clean,
        noise=noise,
        onsets1=g1.onsets,
        onsets2=g2.onsets,
        seeds=(s1, s2, sn),
    )
