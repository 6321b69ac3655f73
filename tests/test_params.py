import dataclasses

import numpy as np
import pytest

from rtea.params import (
    BETA_TABLE,
    MAD_TO_SIGMA,
    PeriodSpec,
    beta_lookup,
    build_weight_array,
    _choose_lambdas,
    _config,
    default_config,
    estimate_sigma,
)
from rtea.penalties import PenaltySpec
from rtea.solver import SolverConfig, check_convexity

from oracles import dense_mask


class TestPeriodSpec:
    def test_from_period(self):
        spec = PeriodSpec(period_samples=32, n1=3, m=4)
        assert spec.period == 32 and spec.period_int == 32

    def test_from_frequency(self):
        spec = PeriodSpec(fault_freq_hz=43.3, sample_rate_hz=12800, n1=3, m=4)
        assert spec.period == pytest.approx(295.6120092378753)
        assert spec.period_int == 296

    def test_requires_some_prior(self):
        with pytest.raises(ValueError):
            PeriodSpec()
        with pytest.raises(ValueError):
            PeriodSpec(fault_freq_hz=50.0)

    def test_both_priors_rejected(self):
        with pytest.raises(ValueError):
            PeriodSpec(period_samples=32, fault_freq_hz=50.0)

    @pytest.mark.parametrize("prior, cause", [
        (dict(period_samples=np.inf), "period_samples must be a finite positive real"),
        (dict(period_samples=np.nan), "period_samples must be a finite positive real"),
        (dict(period_samples=-32.0), "period_samples must be a finite positive real"),
        (dict(fault_freq_hz=np.inf, sample_rate_hz=12800.0),
         "fault_freq_hz must be a finite positive real"),
        (dict(fault_freq_hz=43.3, sample_rate_hz=np.inf),
         "sample_rate_hz must be a finite positive real"),
        (dict(fault_freq_hz=43.3, sample_rate_hz=np.nan),
         "sample_rate_hz must be a finite positive real"),
        (dict(fault_freq_hz=1e-300, sample_rate_hz=1e300), "overflows"),
    ], ids=["inf-period", "nan-period", "negative-period", "inf-freq", "inf-fs", "nan-fs",
            "overflowing-period"])
    def test_nonfinite_or_nonpositive_prior_rejected(self, prior, cause):
        with pytest.raises(ValueError, match=cause):
            PeriodSpec(**prior)

    def test_no_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            PeriodSpec(period_samples=4, n1=4)


class TestBuildWeightArray:
    def test_known_counts(self):
        w = build_weight_array(PeriodSpec(period_samples=32, n1=3, m=4))
        assert (w.n1, w.n0, w.m) == (3, 29, 4)
        assert len(w) == 131 and dense_mask(w).sum() == 15

    def test_frequency_rounding(self):
        w = build_weight_array(
            PeriodSpec(fault_freq_hz=43.3, sample_rate_hz=12800, n1=3, m=4)
        )
        assert (w.n1, w.n0) == (3, 293)
        assert len(w) == 4 * 296 + 3

    def test_structural_invariants_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n1 = int(rng.integers(1, 5))
            t = int(rng.integers(n1 + 1, 60))
            m = int(rng.integers(1, 5))
            w = build_weight_array(PeriodSpec(period_samples=float(t), n1=n1, m=m))
            arr = dense_mask(w)
            assert len(arr) == m * t + n1
            assert arr.sum() == (m + 1) * n1
            assert arr[0] == 1 and arr[-1] == 1


class TestBetaLookup:
    def test_all_entries(self):
        expected = [
            (1, 1, 3.700), (2, 1, 1.700), (3, 1, 1.150), (4, 1, 0.925),
            (1, 2, 1.700), (2, 2, 0.850), (3, 2, 0.625), (4, 2, 0.475),
            (1, 3, 1.150), (2, 3, 0.625), (3, 3, 0.450), (4, 3, 0.375),
            (1, 4, 0.925), (2, 4, 0.475), (3, 4, 0.375), (4, 4, 0.325),
        ]
        for n1, m, beta in expected:
            assert beta_lookup(n1, m) == beta

    def test_symmetric(self):
        for n1 in range(1, 5):
            for m in range(1, 5):
                assert beta_lookup(n1, m) == beta_lookup(m, n1)
        np.testing.assert_array_equal(BETA_TABLE, BETA_TABLE.T)

    @pytest.mark.parametrize("n1,m", [(0, 1), (5, 1), (1, 0), (1, 5)])
    def test_out_of_table_rejected(self, n1, m):
        with pytest.raises(ValueError):
            beta_lookup(n1, m)


class TestChooseLambdas:
    def test_reference_split(self):
        lam0, lam1, lam2 = _choose_lambdas(0.5, 1.150, 0.375, 0.375, 1.0)
        assert lam0 == pytest.approx(0.575, abs=1e-12)
        assert lam1 == pytest.approx(0.09375, abs=1e-12)
        assert lam2 == pytest.approx(0.09375, abs=1e-12)

    def test_eta_limits(self):
        lam0, lam1, lam2 = _choose_lambdas(1e-9, 1.15, 0.375, 0.375, 1.0)
        assert lam0 < 1e-8 and lam1 == pytest.approx(0.1875, rel=1e-6)
        lam0, lam1, lam2 = _choose_lambdas(1 - 1e-9, 1.15, 0.375, 0.375, 1.0)
        assert lam1 < 1e-8 and lam2 < 1e-8 and lam0 == pytest.approx(1.15, rel=1e-6)

    def test_homogeneous_in_sigma(self):
        a = _choose_lambdas(0.3, 1.7, 0.475, 0.625, 1.0)
        b = _choose_lambdas(0.3, 1.7, 0.475, 0.625, 3.5)
        np.testing.assert_allclose(np.asarray(b), 3.5 * np.asarray(a), rtol=1e-14)

    def test_eta_zero_drops_the_coupling_term(self):
        beta1, beta2, sigma = 0.475, 0.625, 1.3
        lam0, lam1, lam2 = _choose_lambdas(0.0, 1.7, beta1, beta2, sigma)
        assert lam0 == 0.0
        assert lam1 == 0.5 * beta1 * sigma and lam2 == 0.5 * beta2 * sigma

    @pytest.mark.parametrize("eta", [1.0, -0.2, 1.4])
    def test_eta_out_of_range(self, eta):
        with pytest.raises(ValueError):
            _choose_lambdas(eta, 1.0, 1.0, 1.0, 1.0)

    def test_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            _choose_lambdas(0.5, 1.0, 1.0, 1.0, 0.0)


class TestEstimateSigma:
    def test_small_example(self):
        est = estimate_sigma([1.0, 2.0, 3.0, 4.0, 5.0])
        assert isinstance(est, float)
        assert est == pytest.approx(1.0 / 0.6745, abs=1e-12)

    def test_constant_signal(self):
        assert estimate_sigma(np.full(100, 3.7)) == 0.0

    def test_gaussian_consistency(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0.0, 2.0, size=100_000)
        assert estimate_sigma(y) == pytest.approx(2.0, rel=0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_sigma([])
        with pytest.raises(ValueError):
            estimate_sigma([1.0])

    @pytest.mark.parametrize("n", [2, 3, 8, 49, 256, 1025])
    def test_bitwise_equal_to_numpy_median(self, n):
        # the partition median takes np.median's steps without importing numpy.ma
        rng = np.random.default_rng(n)
        ties = rng.choice([-0.0, 0.0, 1.0, -2.5], size=n)
        for y in (rng.normal(size=n), ties, np.full(n, -0.0)):
            expected = float(np.median(np.abs(y - np.median(y)))) * MAD_TO_SIGMA
            assert estimate_sigma(y).hex() == expected.hex()


class TestDefaultConfig:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.y = rng.normal(size=512)
        self.s1 = PeriodSpec(period_samples=32, n1=3, m=4)
        self.s2 = PeriodSpec(period_samples=53, n1=3, m=4)

    def test_assembly(self):
        cfg = default_config(self.y, self.s1, self.s2)
        sigma = estimate_sigma(self.y)
        assert cfg.k0 == 3
        assert cfg.lam0 == pytest.approx(0.5 * 1.150 * sigma, rel=1e-12)
        assert cfg.lam1 == pytest.approx(0.25 * 0.375 * sigma, rel=1e-12)
        assert cfg.pen1.a == 0.0 and cfg.pen2.a == 0.0
        ok, bound = check_convexity(cfg.k0, cfg.lam0, cfg.pen0.a)
        assert ok
        assert cfg.pen0.a == pytest.approx(0.5 * bound, rel=1e-12)

    def test_a0_fraction_zero_gives_all_abs(self):
        cfg = default_config(self.y, self.s1, self.s2, a0_fraction=0.0)
        assert cfg.pen0.family == "abs" and cfg.pen0.a == 0.0

    def test_reference_a0(self):
        # eta=0.5, sigma=1, k0=3 -> lam0=0.575, half the bound is ~0.28986
        lam0, _, _ = _choose_lambdas(0.5, 1.150, 0.375, 0.375, 1.0)
        _, bound = check_convexity(3, lam0, 0.0)
        assert 0.5 * bound == pytest.approx(0.2898550724637681, rel=1e-12)

    def test_guard_always_passes_for_fraction_below_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            frac = float(rng.uniform(0.0, 0.999))
            eta = float(rng.uniform(0.05, 0.95))
            cfg = default_config(self.y, self.s1, self.s2, eta=eta, a0_fraction=frac)
            ok, _ = check_convexity(cfg.k0, cfg.lam0, cfg.pen0.a)
            assert ok

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            default_config(self.y, self.s1, self.s2, a0_fraction=1.0)

    def test_mca_config(self):
        # eta = 0 is the MCA baseline: no coupling term, every penalty convex
        cfg = default_config(self.y, self.s1, self.s2, eta=0.0)
        sigma = estimate_sigma(self.y)
        convex = PenaltySpec("abs")
        expected = SolverConfig(
            lam0=0.0,
            lam1=0.5 * beta_lookup(3, 4) * sigma,
            lam2=0.5 * beta_lookup(3, 4) * sigma,
            pen0=convex,
            pen1=convex,
            pen2=convex,
            k0=3,
            b1=build_weight_array(self.s1),
            b2=build_weight_array(self.s2),
        )
        for field in dataclasses.fields(SolverConfig):
            assert getattr(cfg, field.name) == getattr(expected, field.name), field.name

    def test_default_config_is_config_at_the_estimate(self):
        settings = (0.3, 0.7, "log", 50, 1e-6)
        assert default_config(self.y, self.s1, self.s2, *settings) == _config(
            estimate_sigma(self.y), self.s1, self.s2, *settings)

    @pytest.mark.parametrize("eta", [1e-300, 1e-310, 5e-324])
    def test_eta_too_small_for_a_concave_coupling(self, eta):
        with pytest.raises(ValueError, match=f"^eta = {eta} is too small for a concave "
                                             "coupling term: .*eta = 0 drops the coupling term$"):
            default_config(self.y, self.s1, self.s2, eta=eta)

    @pytest.mark.parametrize("eta", [1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize("settings", [dict(a0_fraction=0.0), dict(family="abs")],
                             ids=["a0-fraction-0", "abs"])
    def test_convex_coupling_takes_any_eta(self, eta, settings):
        cfg = default_config(self.y, self.s1, self.s2, eta=eta, **settings)
        assert cfg.pen0 == PenaltySpec("abs")

    def test_subnormal_a0_is_abs(self):
        # the atan closed form divides by a0, which overflows when it is subnormal
        cfg = default_config(self.y, self.s1, self.s2, a0_fraction=5e-324)
        assert cfg.pen0 == PenaltySpec("abs") and cfg.lam0 > 0
