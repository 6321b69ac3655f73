"""Workload definitions and seeded input records.

Each record is made here with numpy's own generator, apart from the
package (``rtea.synth`` is not used): one or two trains of short decaying
oscillations repeating at the fault periods, plus white Gaussian noise.
The ground truth and the true fault frequencies are therefore known
without asking the program.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

TRANSIENT_LEN = 10
DECAY_SAMPLES = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    fs: float
    # the prior handed to the program: periods in samples, or fault
    # frequencies in Hz (with fs); exactly one of the two is set
    periods_samples: tuple[float, ...] | None
    freqs_hz: tuple[float, ...] | None
    sigma: float | None
    extract_flags: tuple[str, ...]
    analyze_flags: tuple[str, ...]
    band_hz: tuple[float, float]
    # records 0 .. warm-1 are solved warm in every round of every run, so
    # each run times the same inputs; the cold record is drawn by seed from
    # records warm .. pool-1
    pool: int
    warm: int
    # default-settings solves per warm record and round; where one takes a
    # quarter of a solve to tol, several give its median as many samples'
    # worth of time
    solve_repeats: int

    @property
    def periods(self) -> tuple[float, ...]:
        if self.periods_samples is not None:
            return self.periods_samples
        return tuple(self.fs / f for f in self.freqs_hz)

    @property
    def pogs(self) -> bool:
        return len(self.periods) == 1

    @property
    def fault_freqs_hz(self) -> tuple[float, ...]:
        return tuple(self.fs / t for t in self.periods)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quickstart-1k",
            n=1024,
            fs=12800.0,
            periods_samples=(32.0, 53.0),
            freqs_hz=None,
            sigma=0.5,
            extract_flags=("--period1", "32", "--period2", "53"),
            analyze_flags=("--fs", "12800"),
            band_hz=(5.0, 500.0),
            pool=32,
            warm=4,
            solve_repeats=4,
        ),
        Workload(
            name="bearing-12k8",
            n=12800,
            fs=12800.0,
            periods_samples=None,
            freqs_hz=(43.3, 58.7),
            sigma=None,
            extract_flags=("--freq1", "43.3", "--freq2", "58.7", "--fs", "12800"),
            analyze_flags=("--fs", "12800", "--band", "10", "200"),
            band_hz=(10.0, 200.0),
            pool=8,
            warm=1,
            solve_repeats=1,
        ),
        Workload(
            name="single-fault-pogs",
            n=12800,
            fs=12800.0,
            periods_samples=None,
            freqs_hz=(57.8,),
            sigma=None,
            extract_flags=("--mode", "pogs", "--freq1", "57.8", "--fs", "12800"),
            analyze_flags=("--fs", "12800", "--band", "10", "200"),
            band_hz=(10.0, 200.0),
            pool=16,
            warm=4,
            solve_repeats=1,
        ),
    )
}


@dataclass(frozen=True)
class Record:
    y: np.ndarray
    truth: tuple[np.ndarray, ...]


def _train(rng: np.random.Generator, n: int, period: float) -> np.ndarray:
    # A fresh transient at offset + k*period: A * exp(-t/tau) * sin(w t + phi).
    x = np.zeros(n)
    t = np.arange(TRANSIENT_LEN)
    onset = rng.uniform(0.0, period)
    while int(round(onset)) < n:
        start = int(round(onset))
        amp = rng.uniform(0.5, 2.0)
        omega = rng.uniform(0.2 * np.pi, 0.9 * np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        g = amp * np.exp(-t / DECAY_SAMPLES) * np.sin(omega * t + phase)
        stop = min(start + TRANSIENT_LEN, n)
        x[start:stop] = g[: stop - start]
        onset += period
    return x


def make_record(w: Workload, index: int) -> Record:
    """Record ``index`` of workload ``w``'s pool; same index, same record.

    ``sigma=None`` means 0 dB input SNR: the noise power equals the power
    of the clean sum of the trains.
    """
    rng = np.random.default_rng([index, zlib.crc32(w.name.encode())])
    truth = tuple(_train(rng, w.n, p) for p in w.periods)
    clean = np.sum(truth, axis=0)
    sigma = w.sigma if w.sigma is not None else float(np.sqrt(np.mean(clean * clean)))
    y = clean + rng.normal(0.0, sigma, size=w.n)
    return Record(y=y, truth=truth)
