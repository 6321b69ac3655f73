import numpy as np
import pytest

from rtea.synth import Mixture, TransientTrain, gen_mixture, gen_train

from oracles import gen_transient


def pinned_train(**overrides):
    base = dict(
        period_samples=32.0,
        transient_len=10,
        amplitude_range=(1.0, 1.0),
        freq_range=(np.pi / 2, np.pi / 2),
        phase_range=(0.0, 0.0),
        n_sines_range=(1, 1),
        seed=0,
    )
    base.update(overrides)
    return TransientTrain(**base)


class TestTransient:
    def test_pinned_sine_table(self):
        g = gen_transient(pinned_train())
        expected = np.sin(np.pi / 2 * np.arange(10))
        np.testing.assert_allclose(g, expected, atol=1e-12)
        np.testing.assert_allclose(g, [0, 1, 0, -1, 0, 1, 0, -1, 0, 1], atol=1e-12)

    def test_deterministic(self):
        train = TransientTrain(period_samples=40, seed=123)
        np.testing.assert_array_equal(gen_transient(train), gen_transient(train))

    def test_amplitude_bound(self):
        # with unit amplitudes the triangle inequality caps a 10-sine sum at 10
        train = TransientTrain(
            period_samples=40, amplitude_range=(1.0, 1.0), n_sines_range=(10, 10), seed=7
        )
        g = gen_transient(train)
        assert np.max(np.abs(g)) <= 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TransientTrain(period_samples=40, transient_len=0)
        with pytest.raises(ValueError):
            TransientTrain(period_samples=40, jitter_pct=6.0)
        with pytest.raises(ValueError):
            TransientTrain(period_samples=40, modulation_freq_hz=5.0)
        with pytest.raises(ValueError):
            TransientTrain(period_samples=0.0)


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
        mask = np.ones(1024, dtype=bool)
        mask[g.support] = False
        np.testing.assert_array_equal(g.clean[mask], 0.0)

    def test_no_overlap_without_jitter(self):
        train = TransientTrain(period_samples=13, transient_len=10, seed=4)
        g = gen_train(train, 400)
        # supports of consecutive transients must be disjoint: total size matches
        expected = 0
        for onset in g.onsets:
            expected += min(10, 400 - onset)
        assert len(g.support) == expected

    def test_modulation_envelope_scales_onsets(self):
        fs, fmod = 1000.0, 7.0
        train = pinned_train(
            period_samples=50.0,
            modulation_freq_hz=fmod,
            sample_rate_hz=fs,
            seed=5,
        )
        g = gen_train(train, 1000)
        plain = gen_train(pinned_train(period_samples=50.0, seed=5), 1000)
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
        assert len(mix.train2.onsets) >= 19

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
        with pytest.raises(ValueError, match="sigma must be >= 0, got -0.1"):
            gen_mixture(sigma=-0.1)
