import numpy as np
import pytest

from rtea.synth import (
    AMPLITUDE,
    FREQ,
    N_SINES,
    PHASE,
    Mixture,
    TransientTrain,
    gen_mixture,
    gen_train,
)

from oracles import gen_transient


def occupied(train, g, n_samples):
    """The mask of the ``transient_len`` windows starting at ``g``'s onsets."""
    mask = np.zeros(n_samples, dtype=bool)
    for onset in g.onsets:
        mask[onset : onset + train.transient_len] = True
    return mask


class TestTransient:
    def test_draw_order(self):
        # the count of sinusoids, then amplitude, frequency and phase of each
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = np.arange(12)
            expected = np.zeros(12)
            for _ in range(int(rng.integers(N_SINES[0], N_SINES[1] + 1))):
                amp = rng.uniform(*AMPLITUDE)
                omega = rng.uniform(*FREQ)
                theta = rng.uniform(*PHASE)
                expected += amp * np.sin(omega * n + theta)
            train = TransientTrain(period_samples=40, transient_len=12, seed=seed)
            np.testing.assert_array_equal(gen_transient(train), expected)

    def test_deterministic(self):
        train = TransientTrain(period_samples=40, seed=123)
        np.testing.assert_array_equal(gen_transient(train), gen_transient(train))

    def test_amplitude_bound(self):
        # the triangle inequality caps a sum of sinusoids
        train = TransientTrain(period_samples=40, seed=7)
        for seed in range(50):
            g = gen_transient(train, seed)
            assert np.max(np.abs(g)) <= AMPLITUDE[1] * N_SINES[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            TransientTrain(period_samples=40, transient_len=0)
        with pytest.raises(ValueError):
            TransientTrain(period_samples=40, jitter_pct=6.0)
        with pytest.raises(ValueError):
            TransientTrain(period_samples=40, modulation_freq_hz=5.0)
        for period in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="period_samples must be a finite positive"):
                TransientTrain(period_samples=period)
        for bad in (0.0, -6.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="modulation_freq_hz must be a finite positive"):
                TransientTrain(period_samples=40, modulation_freq_hz=bad, sample_rate_hz=100.0)
            with pytest.raises(ValueError, match="sample_rate_hz must be a finite positive"):
                TransientTrain(period_samples=40, modulation_freq_hz=6.0, sample_rate_hz=bad)


class TestTrain:
    def test_onsets_regular_grid(self):
        train = TransientTrain(period_samples=32, seed=1)
        g = gen_train(train, 320)
        np.testing.assert_array_equal(g.onsets, np.arange(10) * 32)

    def test_period_must_exceed_transient(self):
        with pytest.raises(ValueError):
            gen_train(TransientTrain(period_samples=10, transient_len=10), 100)

    def test_jitter_stays_within_bound(self):
        train = TransientTrain(period_samples=296, jitter_pct=2.0, seed=2)
        g = gen_train(train, 296 * 12)
        nominal = np.arange(len(g.onsets)) * 296
        assert np.max(np.abs(g.onsets - nominal)) <= 6

    def test_zero_outside_support(self):
        train = TransientTrain(period_samples=53, seed=3)
        g = gen_train(train, 1024)
        np.testing.assert_array_equal(g.clean[~occupied(train, g, 1024)], 0.0)

    def test_no_overlap_without_jitter(self):
        train = TransientTrain(period_samples=13, transient_len=10, seed=4)
        g = gen_train(train, 400)
        # windows of consecutive transients must be disjoint: total size matches
        expected = 0
        for onset in g.onsets:
            expected += min(10, 400 - onset)
        assert np.count_nonzero(occupied(train, g, 400)) == expected

    def test_modulation_envelope_scales_onsets(self):
        fs, fmod = 1000.0, 7.0
        train = TransientTrain(
            period_samples=50.0,
            modulation_freq_hz=fmod,
            sample_rate_hz=fs,
            seed=5,
        )
        g = gen_train(train, 1000)
        plain = gen_train(TransientTrain(period_samples=50.0, seed=5), 1000)
        for onset in g.onsets:
            env = 1.0 + np.cos(2 * np.pi * fmod * onset / fs)
            seg = g.clean[onset : onset + 10]
            ref = plain.clean[onset : onset + 10]
            np.testing.assert_allclose(seg, env * ref, atol=1e-9)

    def test_deterministic(self):
        train = TransientTrain(period_samples=32, jitter_pct=2.0, seed=6)
        a = gen_train(train, 500)
        b = gen_train(train, 500)
        np.testing.assert_array_equal(a.clean, b.clean)
        np.testing.assert_array_equal(a.onsets, b.onsets)


class TestMixture:
    def test_additive_consistency(self):
        mix = gen_mixture(seed=4)
        np.testing.assert_array_equal(mix.y, (mix.x1 + mix.x2) + mix.noise)

    def test_default_sizes(self):
        mix = gen_mixture(seed=5)
        assert isinstance(mix, Mixture)
        assert mix.y.size == 1024
        assert len(mix.onsets2) >= 19

    def test_autocorrelation_recovers_periods(self):
        mix = gen_mixture(seed=6, sigma=0.0)
        for x, t in ((np.abs(mix.x1), 32), (np.abs(mix.x2), 53)):
            ac = np.correlate(x, x, mode="full")[x.size - 1 :]
            lags = np.arange(ac.size)
            window = (lags >= t // 2) & (lags <= 3 * t // 2)
            peak = lags[window][np.argmax(ac[window])]
            assert abs(int(peak) - t) <= 1

    def test_deterministic(self):
        a = gen_mixture(seed=7)
        b = gen_mixture(seed=7)
        np.testing.assert_array_equal(a.y, b.y)

    def test_sigma_zero(self):
        mix = gen_mixture(seed=8, sigma=0.0)
        np.testing.assert_array_equal(mix.noise, 0.0)
        np.testing.assert_array_equal(mix.y, mix.x1 + mix.x2)

    def test_seeded_noise_variance(self):
        mix = gen_mixture(n_samples=100_000, sigma=1.5, seed=2)
        assert np.var(mix.noise) == pytest.approx(1.5**2, rel=0.02)

    def test_negative_sigma_rejected(self):
        for sigma in (-0.1, np.inf, np.nan):
            cause = f"sigma must be a finite nonnegative real, got {sigma}"
            with pytest.raises(ValueError, match=cause):
                gen_mixture(sigma=sigma)
