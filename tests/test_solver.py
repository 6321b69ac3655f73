import numpy as np
import pytest

from rtea.penalties import PenaltySpec
from rtea.regularizers import WeightArray
from rtea.solver import (
    DecompositionResult,
    SolverConfig,
    check_convexity,
    pogs_solve,
    rtea_solve,
)
from rtea.synth import gen_mixture, gen_train, TransientTrain
from rtea.analysis import rmse

from oracles import (
    analytic_gradient,
    combined_majorizer_gap,
    cost_loops,
    dense_mask,
    group_penalty_loops,
    mm_cost,
    mm_step,
)

ABS = PenaltySpec("abs")


def small_config(**overrides):
    base = dict(
        lam0=0.4,
        lam1=0.2,
        lam2=0.25,
        pen0=PenaltySpec("atan", a=0.5, eps=1e-8),
        pen1=PenaltySpec("abs", eps=1e-8),
        pen2=PenaltySpec("abs", eps=1e-8),
        k0=2,
        b1=WeightArray(3, 8, 2),
        b2=WeightArray(2, 10, 2),
        max_iter=200,
        tol=1e-10,
    )
    base.update(overrides)
    return SolverConfig(**base)


class TestCheckConvexity:
    def test_bound_arithmetic(self):
        ok, bound = check_convexity(3, 0.5, 0.5)
        assert ok and bound == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_violation(self):
        ok, _ = check_convexity(3, 0.5, 0.7)
        assert not ok

    def test_zero_a_always_valid(self):
        for k0, lam0 in ((1, 0.01), (4, 10.0), (2, 3.3)):
            ok, bound = check_convexity(k0, lam0, 0.0)
            assert ok and bound == 1.0 / (k0 * lam0)

    def test_invalid_lam0(self):
        with pytest.raises(ValueError):
            check_convexity(3, 0.0, 0.1)


class TestConfigValidation:
    def test_guard_rejects_a0_above_bound(self):
        with pytest.raises(ValueError):
            small_config(pen0=PenaltySpec("atan", a=2.0, eps=1e-8))

    def test_guard_rejects_nonconvex_components(self):
        with pytest.raises(ValueError):
            small_config(pen1=PenaltySpec("atan", a=0.5, eps=1e-8))

    def test_zero_lam0_requires_all_convex(self):
        with pytest.raises(ValueError):
            small_config(lam0=0.0)
        cfg = small_config(lam0=0.0, pen0=PenaltySpec("abs", eps=1e-8))
        assert cfg.lam0 == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            small_config(lam1=-0.1)

    def test_dense_mask_rejected(self):
        with pytest.raises(TypeError):
            small_config(b1=np.ones(3))


class TestEvalCost:
    def test_zero_components(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=40)
        cfg = small_config()
        z = np.zeros(40)
        floor = (
            cfg.lam0 * cost_part_floor(40, cfg.k0, cfg.pen0)
            + cfg.lam1 * cost_part_floor(40, len(cfg.b1), cfg.pen1)
            + cfg.lam2 * cost_part_floor(40, len(cfg.b2), cfg.pen2)
        )
        assert mm_cost(y, z, z, cfg) == pytest.approx(
            0.5 * np.sum(y * y) + floor, rel=1e-12
        )

    def test_all_lambdas_zero_is_pure_quadratic(self):
        rng = np.random.default_rng(1)
        y, x1, x2 = rng.normal(size=(3, 30))
        cfg = small_config(lam0=0.0, lam1=0.0, lam2=0.0, pen0=PenaltySpec("abs", eps=1e-8))
        assert mm_cost(y, x1, x2, cfg) == pytest.approx(
            0.5 * np.sum((y - x1 - x2) ** 2), rel=1e-12
        )

    @pytest.mark.parametrize("family", ["abs", "log", "rat", "atan"])
    def test_matches_term_by_term_reimplementation(self, family):
        rng = np.random.default_rng(2)
        y, x1, x2 = rng.normal(size=(3, 32))
        # a = 0.5 is inside small_config's convexity bound 1/(k0*lam0) = 1.25
        a = 0.0 if family == "abs" else 0.5
        cfg = small_config(pen0=PenaltySpec(family, a=a, eps=1e-8))
        assert mm_cost(y, x1, x2, cfg) == pytest.approx(
            cost_loops(y, x1, x2, cfg), rel=1e-12
        )

    def test_length_mismatch(self):
        # 40 samples hold both 25- and 26-sample masks, so the mask check passes
        with pytest.raises(ValueError, match="init components must match the observation length"):
            mm_cost(np.zeros(40), np.zeros(40), np.zeros(41), small_config())


def cost_part_floor(n, k, spec):
    from rtea.penalties import smoothed_penalty

    return (n + k - 1) * float(smoothed_penalty(0.0, spec))


class TestStep:
    def test_zero_fixed_point(self):
        cfg = small_config()
        z = np.zeros(48)
        x1, x2, _ = mm_step(z, z, z, cfg)
        np.testing.assert_array_equal(x1, 0.0)
        np.testing.assert_array_equal(x2, 0.0)

    def test_descent_randomized(self):
        rng = np.random.default_rng(3)
        cfg = small_config()
        violations = 0
        for _ in range(1000):
            y = rng.normal(size=48)
            x1 = rng.normal(size=48)
            x2 = rng.normal(size=48)
            _, _, (before, after) = mm_step(y, x1, x2, cfg)
            violations += after > before + 1e-12
        assert violations == 0

    def test_symmetric_setup_stays_symmetric(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=48)
        cfg = small_config(b2=WeightArray(3, 8, 2), lam2=0.2)
        x1, x2, _ = mm_step(y, y, y, cfg)
        np.testing.assert_array_equal(x1, x2)


class TestSolve:
    def test_zero_input_converges_immediately(self):
        cfg = small_config()
        res = rtea_solve(np.zeros(40), cfg)
        assert res.converged and res.iterations <= 2
        np.testing.assert_array_equal(res.x1, 0.0)
        np.testing.assert_array_equal(res.x2, 0.0)

    def test_cost_history_nonincreasing(self):
        mix = gen_mixture(n_samples=256, seed=5, sigma=0.7)
        cfg = small_config(b1=WeightArray(3, 29, 4), b2=WeightArray(3, 50, 4), k0=3)
        res = rtea_solve(mix.y, cfg)
        assert np.all(np.diff(res.cost_history) <= 1e-12)

    def test_result_contract(self):
        mix = gen_mixture(n_samples=128, seed=6, sigma=0.5, t1=20, t2=33)
        cfg = small_config(b1=WeightArray(2, 18, 2), b2=WeightArray(2, 31, 2))
        res = rtea_solve(mix.y, cfg)
        assert isinstance(res, DecompositionResult)
        assert res.x1.size == res.x2.size == mix.y.size
        np.testing.assert_array_equal(res.residual, mix.y - res.x1 - res.x2)
        assert len(res.cost_history) == res.iterations + 1

    def test_recovers_better_than_noisy_input(self):
        mix = gen_mixture(n_samples=1024, t1=32, t2=53, sigma=0.5, seed=7)
        from rtea.params import PeriodSpec, default_config

        cfg = default_config(
            mix.y,
            PeriodSpec(period_samples=32),
            PeriodSpec(period_samples=53),
            max_iter=150,
            tol=1e-8,
        )
        res = rtea_solve(mix.y, cfg)
        assert rmse(res.x1, mix.x1) < rmse(mix.y, mix.x1)
        assert rmse(res.x2, mix.x2) < rmse(mix.y, mix.x2)

    def test_same_optimum_from_three_starts(self):
        rng = np.random.default_rng(8)
        mix = gen_mixture(n_samples=256, seed=9, sigma=0.6)
        cfg = small_config(
            b1=WeightArray(3, 29, 4),
            b2=WeightArray(3, 50, 4),
            k0=3,
            max_iter=4000,
            tol=1e-12,
        )
        res_a = rtea_solve(mix.y, cfg)
        res_b = rtea_solve(mix.y, cfg, init=(np.zeros(256), np.zeros(256)))
        res_c = rtea_solve(
            mix.y, cfg, init=(0.05 * rng.normal(size=256), 0.05 * rng.normal(size=256))
        )
        costs = [r.final_cost for r in (res_a, res_b, res_c)]
        assert (max(costs) - min(costs)) / max(costs) < 1e-6
        assert np.max(np.abs(res_a.x1 - res_b.x1)) < 1e-4

    def test_solve_matches_manual_stepping_bitwise(self):
        mix = gen_mixture(n_samples=200, seed=22, sigma=0.5, t1=20, t2=33)
        cfg = small_config(
            b1=WeightArray(2, 18, 2), b2=WeightArray(2, 31, 2), max_iter=25, tol=1e-15
        )
        res = rtea_solve(mix.y, cfg)
        # max_iter = k equals k chained one-iteration solves, costs included
        x1, x2 = mix.y, mix.y
        costs = []
        for _ in range(res.iterations):
            x1, x2, step_costs = mm_step(mix.y, x1, x2, cfg)
            costs.append(step_costs[0])
        costs.append(step_costs[1])
        np.testing.assert_array_equal(res.x1, x1)
        np.testing.assert_array_equal(res.x2, x2)
        np.testing.assert_array_equal(res.cost_history, np.asarray(costs))

    def test_swap_symmetry_bitwise(self):
        mix = gen_mixture(n_samples=200, seed=10, sigma=0.5, t1=20, t2=33)
        b1, b2 = WeightArray(2, 18, 2), WeightArray(3, 30, 2)
        cfg = small_config(b1=b1, b2=b2, lam1=0.15, lam2=0.3, max_iter=40)
        cfg_swapped = small_config(b1=b2, b2=b1, lam1=0.3, lam2=0.15, max_iter=40)
        res = rtea_solve(mix.y, cfg)
        res_s = rtea_solve(mix.y, cfg_swapped)
        np.testing.assert_array_equal(res.x1, res_s.x2)
        np.testing.assert_array_equal(res.x2, res_s.x1)
        np.testing.assert_array_equal(res.cost_history, res_s.cost_history)

    def test_stationary_at_convergence(self):
        mix = gen_mixture(n_samples=64, seed=11, sigma=0.5, t1=16, t2=25, transient_len=6)
        cfg = small_config(
            b1=WeightArray(2, 14, 2),
            b2=WeightArray(2, 23, 2),
            pen0=PenaltySpec("atan", a=0.5, eps=1e-6),
            pen1=PenaltySpec("abs", eps=1e-6),
            pen2=PenaltySpec("abs", eps=1e-6),
            max_iter=20000,
            tol=1e-14,
        )
        res = rtea_solve(mix.y, cfg)
        g1, g2 = analytic_gradient(mix.y, res.x1, res.x2, cfg)
        scale = 1.0 + np.max(np.abs(mix.y))
        assert max(np.max(np.abs(g1)), np.max(np.abs(g2))) < 1e-4 * scale

    def test_matches_independent_convex_solver(self):
        import scipy.optimize

        rng = np.random.default_rng(12)
        n = 48
        y = rng.normal(size=n)
        cfg = small_config(max_iter=20000, tol=1e-14)
        res = rtea_solve(y, cfg)

        def fun(v):
            return mm_cost(y, v[:n], v[n:], cfg)

        def jac(v):
            g1, g2 = analytic_gradient(y, v[:n], v[n:], cfg)
            return np.concatenate([g1, g2])

        opt = scipy.optimize.minimize(
            fun,
            np.concatenate([y, y]),
            jac=jac,
            method="L-BFGS-B",
            options=dict(maxiter=20000, ftol=1e-16, gtol=1e-10),
        )
        assert res.final_cost == pytest.approx(opt.fun, rel=1e-8)

    def test_nonfinite_input_rejected(self):
        y = np.zeros(30)
        y[3] = np.nan
        with pytest.raises(ValueError, match="observation contains non-finite samples"):
            rtea_solve(y, small_config())
        # a non-finite start is the caller's input too, not a numerical failure
        with pytest.raises(ValueError, match="init contains non-finite samples"):
            rtea_solve(np.zeros(30), small_config(), init=(y, np.zeros(30)))

    def test_unknown_init_rejected(self):
        for init in ("warm", "zeros"):
            with pytest.raises(ValueError, match="init must be None or a pair of arrays"):
                rtea_solve(np.zeros(30), small_config(), init=init)

    def test_mask_longer_than_signal_rejected(self):
        with pytest.raises(ValueError, match="mask length 25 exceeds signal length 20"):
            rtea_solve(np.zeros(20), small_config())


class TestModeReductions:
    def test_zero_lam0_is_two_term_objective(self):
        rng = np.random.default_rng(13)
        y, x1, x2 = rng.normal(size=(3, 40))
        from rtea.regularizers import group_penalty

        cfg = small_config(lam0=0.0, pen0=PenaltySpec("abs", eps=1e-8))
        expected = (
            0.5 * np.sum((y - x1 - x2) ** 2)
            + cfg.lam1 * group_penalty(x1, cfg.b1, cfg.pen1)
            + cfg.lam2 * group_penalty(x2, cfg.b2, cfg.pen2)
        )
        assert mm_cost(y, x1, x2, cfg) == pytest.approx(expected, rel=1e-12)

    def test_huge_lam2_reduces_to_single_component_denoiser(self):
        mix = gen_mixture(n_samples=256, seed=14, sigma=0.4)
        b1 = WeightArray(3, 29, 4)
        cfg = small_config(
            lam0=0.0,
            lam1=0.2,
            lam2=1e6,
            pen0=PenaltySpec("abs", eps=1e-8),
            b1=b1,
            b2=WeightArray(3, 50, 4),
            k0=3,
            max_iter=3000,
            tol=1e-13,
        )
        res = rtea_solve(mix.y, cfg)
        x_single = pogs_solve(
            mix.y, b1, 0.2, PenaltySpec("abs", eps=1e-8), max_iter=3000, tol=1e-13
        )
        assert np.max(np.abs(res.x2)) < 1e-8
        assert np.max(np.abs(res.x1 - x_single)) < 1e-4 * max(1.0, np.max(np.abs(x_single)))


class TestPogs:
    def test_zero_input(self):
        x = pogs_solve(np.zeros(30), WeightArray.ones(3), 0.5, ABS)
        np.testing.assert_array_equal(x, 0.0)

    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(15)
        y = rng.normal(size=400)
        sigma = 1.0
        x = pogs_solve(y, WeightArray.ones(3), 1e3 * sigma, ABS, max_iter=300)
        assert np.max(np.abs(x)) < 1e-3 * np.max(np.abs(y))

    def test_support_recovery(self):
        train = gen_train(TransientTrain(period_samples=40, transient_len=6, seed=16), 400)
        rng = np.random.default_rng(17)
        y = train.clean + 0.3 * rng.normal(size=400)
        x = pogs_solve(y, WeightArray.ones(3), 0.3 * 1.15, PenaltySpec("abs"), max_iter=300)
        on_support = np.zeros(400, dtype=bool)
        on_support[train.support] = True
        # allow spill into the two samples flanking each transient (group width 3)
        spill = on_support.copy()
        spill[1:] |= on_support[:-1]
        spill[:-1] |= on_support[1:]
        spill[2:] |= on_support[:-2]
        spill[:-2] |= on_support[2:]
        energy_outside = np.sum(x[~spill] ** 2)
        assert energy_outside < 0.02 * np.sum(x * x)

    def test_full_output(self):
        rng = np.random.default_rng(18)
        y = rng.normal(size=100)
        x, costs, iterations, converged = pogs_solve(
            y, WeightArray.ones(3), 0.8, ABS, full_output=True
        )
        assert len(costs) == iterations + 1
        assert np.all(np.diff(costs) <= 1e-12)
        assert converged

    def test_invalid_lam(self):
        with pytest.raises(ValueError):
            pogs_solve(np.zeros(10), WeightArray.ones(2), 0.0, ABS)

    @pytest.mark.parametrize("lam, settings, cause", [
        (0.5, {"max_iter": 0}, "max_iter must be >= 1, got 0"),
        (0.5, {"tol": -1.0}, "tol must be > 0, got -1.0"),
        (0.5, {"tol": np.nan}, "tol must be > 0, got nan"),
        (np.inf, {}, "lam must be a finite nonnegative real, got inf"),
    ], ids=["max-iter-0", "negative-tol", "nan-tol", "infinite-lam"])
    def test_checks_settings_as_solver_config_does(self, lam, settings, cause):
        with pytest.raises(ValueError, match=cause):
            pogs_solve(np.zeros(10), WeightArray.ones(2), lam, ABS, **settings)

    def test_refuses_nonconvex_penalty(self):
        # the component rule SolverConfig applies to pen1/pen2
        y = np.random.default_rng(18).normal(size=100)
        with pytest.raises(ValueError, match="only the coupling penalty may be non-convex"):
            pogs_solve(y, WeightArray.ones(3), 0.8, PenaltySpec("atan", a=50.0), full_output=True)
        with pytest.raises(ValueError, match="only the coupling penalty may be non-convex"):
            small_config(pen2=PenaltySpec("log", a=0.5, eps=1e-8))

    @pytest.mark.parametrize("family", ["abs", "log", "rat", "atan"])
    def test_final_cost_matches_brute_force(self, family):
        # the one-component branch of the shared objective, as cost_loops
        # checks the two-component one
        rng = np.random.default_rng(23)
        y = rng.normal(size=60)
        b, lam, spec = WeightArray(2, 7, 2), 0.6, PenaltySpec(family, eps=1e-8)
        x, costs, _, _ = pogs_solve(y, b, lam, spec, max_iter=40, full_output=True)
        expected = 0.5 * np.sum((y - x) ** 2) + lam * group_penalty_loops(x, dense_mask(b), spec)
        assert costs[-1] == pytest.approx(expected, rel=1e-12)

    def test_bad_mask_rejected(self):
        with pytest.raises(TypeError):
            pogs_solve(np.zeros(10), np.ones(2), 0.5, ABS)
        with pytest.raises(ValueError, match="mask length 11 exceeds signal length 10"):
            pogs_solve(np.zeros(10), WeightArray(3, 5, 1), 0.5, ABS)


class TestCombinedMajorizerGap:
    def test_tangency(self):
        rng = np.random.default_rng(19)
        z1, z2 = rng.normal(size=(2, 24))
        spec = PenaltySpec("atan", 0.7, eps=1e-8)
        assert abs(combined_majorizer_gap(z1, z2, z1, z2, 3, spec)) < 1e-12

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(1000):
            x1, x2, z1, z2 = rng.normal(size=(4, 24))
            family = ["abs", "log", "rat", "atan"][int(rng.integers(4))]
            a = 0.0 if family == "abs" else float(rng.uniform(0.05, 2.0))
            spec = PenaltySpec(family, a, eps=1e-8)
            worst = min(worst, combined_majorizer_gap(x1, x2, z1, z2, 3, spec))
        assert worst >= -1e-10

    def test_equal_sum_gap_is_decoupling_surplus(self):
        rng = np.random.default_rng(21)
        z1, z2, w = rng.normal(size=(3, 24))
        x1, x2 = z1 + w, z2 - w
        spec = PenaltySpec("abs", eps=1e-6)
        from rtea.regularizers import combined_majorizer_weights

        r0 = combined_majorizer_weights(z1 + z2, 3, spec)
        surplus = 0.5 * np.sum(r0 * ((x1 - z1) - (x2 - z2)) ** 2)
        gap = combined_majorizer_gap(x1, x2, z1, z2, 3, spec)
        assert gap == pytest.approx(surplus, rel=1e-9)
