import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rtea.params import (
    PeriodSpec,
    beta_lookup,
    build_weight_array,
    default_config,
    estimate_sigma,
)
from rtea.penalties import PenaltySpec
from rtea.regularizers import WeightArray
from rtea.solver import (
    DecompositionResult,
    NumericalError,
    SolverConfig,
    check_convexity,
    pogs_solve,
    rtea_solve,
)
from rtea.synth import gen_mixture, gen_train, TransientTrain
from rtea.analysis import rmse

from oracles import (
    analytic_gradient,
    bench_record,
    combined_majorizer_gap,
    combined_weights_loops,
    cost_loops,
    dense_mask,
    group_penalty_loops,
    mm_cost,
    mm_step,
    squarem_cycle,
    weights_loops,
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

    def test_zero_a_valid_where_the_bound_underflows(self):
        # k0*lam0 overflows to inf, so the bound rounds to 0; a0 = 0 is convex
        assert check_convexity(3, 1e308, 0.0) == (True, 0.0)
        assert check_convexity(3, 1e308, 1e-300) == (False, 0.0)

    def test_invalid_lam0(self):
        with pytest.raises(ValueError):
            check_convexity(3, 0.0, 0.1)

    @pytest.mark.parametrize("k0, a0, cause", [
        (0, 0.1, "k0 must be >= 1, got 0"),
        (3, -0.1, "a0 must be a finite nonnegative real, got -0.1"),
    ], ids=["k0-0", "negative-a0"])
    def test_invalid_group_size_or_concavity(self, k0, a0, cause):
        with pytest.raises(ValueError, match=f"^{cause}$"):
            check_convexity(k0, 0.5, a0)


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

    def test_zero_group_size_rejected(self):
        with pytest.raises(ValueError, match="^k0 must be >= 1, got 0$"):
            small_config(k0=0)

    @pytest.mark.parametrize("k0", [2.5, 2.0], ids=["fraction", "integral-float"])
    def test_non_integer_group_size_rejected(self, k0):
        with pytest.raises(TypeError, match="^k0 must be an integer, got float$"):
            small_config(k0=k0)

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


def loop_weights(x1, x2, cfg):
    """``(t, p1, p2)`` of the step at ``(x1, x2)``, from the loop oracles."""
    t = 1.0 + cfg.lam0 * combined_weights_loops(x1 + x2, cfg.k0, cfg.pen0)
    p1 = cfg.lam1 * weights_loops(x1, dense_mask(cfg.b1), cfg.pen1)
    p2 = cfg.lam2 * weights_loops(x2, dense_mask(cfg.b2), cfg.pen2)
    return t, p1, p2


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

    def test_matches_per_sample_2x2_solve(self):
        # the step minimizes the majorizer exactly: per sample it solves
        # [[t + p1, t], [t, t + p2]] x = [y, y], p_i = lam_i*w_i, t = 1 + lam0*w0
        rng = np.random.default_rng(30)
        cfg = small_config()
        for _ in range(5):
            y, x1, x2 = rng.normal(size=(3, 48))
            s1, s2, _ = mm_step(y, x1, x2, cfg)
            t, p1, p2 = loop_weights(x1, x2, cfg)
            a = np.stack([np.stack([t + p1, t], -1), np.stack([t, t + p2], -1)], -2)
            want = np.linalg.solve(a, np.stack([y, y], -1)[..., None])[..., 0]
            np.testing.assert_allclose(s1, want[:, 0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(s2, want[:, 1], rtol=1e-12, atol=0)

    def test_flat_majorizer_steps_to_nearest_point(self):
        # lam1 = lam2 = 0 leaves the 2x2 system singular (D = 0): the step
        # takes the point of x1 + x2 = y/t nearest the iterate
        rng = np.random.default_rng(31)
        y, x1, x2 = rng.normal(size=(3, 48))
        cfg = small_config(lam1=0.0, lam2=0.0)
        s1, s2, (before, after) = mm_step(y, x1, x2, cfg)
        t, _, _ = loop_weights(x1, x2, cfg)
        np.testing.assert_allclose(s1, (y + t * (x1 - x2)) / (2 * t), rtol=1e-12, atol=0)
        np.testing.assert_allclose(s2, (y - t * (x1 - x2)) / (2 * t), rtol=1e-12, atol=0)
        assert after <= before

    def test_infinite_weight_takes_its_limit(self):
        # x1 held at 0 over samples 60..139 makes lam1*w1 overflow to inf
        # there: x1 is then 0 and x2 = y/(t + p2), where y*p2/D would be
        # inf/inf.  Elsewhere the weights stay finite and the closed form holds
        rng = np.random.default_rng(32)
        y, x1, x2 = rng.normal(size=(3, 200))
        x1[60:140] = 0.0
        cfg = small_config(lam1=1e305)
        s1, s2, (before, after) = mm_step(y, x1, x2, cfg)
        with np.errstate(over="ignore"):
            t, p1, p2 = loop_weights(x1, x2, cfg)
        inf = np.isinf(p1)
        assert 0 < inf.sum() < 200
        assert np.all(s1[inf] == 0.0)
        np.testing.assert_allclose(s2[inf], (y / (t + p2))[inf], rtol=1e-12, atol=0)
        y, t, p1, p2 = (v[~inf] for v in (y, t, p1, p2))
        d = t * (p1 + p2) + p1 * p2
        np.testing.assert_allclose(s1[~inf], y * p2 / d, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s2[~inf], y * p1 / d, rtol=1e-12, atol=0)
        assert np.isfinite(after) and after <= before


class TestSolve:
    def test_zero_input_converges_immediately(self):
        cfg = small_config()
        res = rtea_solve(np.zeros(40), cfg)
        assert res.converged and res.iterations <= 2
        np.testing.assert_array_equal(res.x1, 0.0)
        np.testing.assert_array_equal(res.x2, 0.0)

    def test_zero_cost_stops_without_error(self):
        # with no regularizer the first step fits y exactly, cost 0; the
        # relative stop rule must hold on the unchanged cost 0 that follows,
        # not divide by it
        y = gen_mixture(n_samples=128, seed=6, sigma=0.5, t1=20, t2=33).y
        cfg = small_config(lam0=0.0, lam1=0.0, lam2=0.0, pen0=ABS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rtea_solve(y, cfg)
        assert res.final_cost == 0.0 and res.converged
        assert res.iterations == 2

    def test_cost_history_nonincreasing(self):
        mix = gen_mixture(n_samples=256, seed=5, sigma=0.7)
        cfg = small_config(b1=WeightArray(3, 29, 4), b2=WeightArray(3, 50, 4), k0=3)
        res = rtea_solve(mix.y, cfg)
        assert np.all(np.diff(res.cost_history) <= 1e-12)

    def test_result_contract(self):
        mix = gen_mixture(n_samples=128, seed=6, sigma=0.5, t1=20, t2=33)
        cfg = small_config(b1=WeightArray(2, 18, 2), b2=WeightArray(2, 31, 2))
        res = rtea_solve(mix.y, cfg)
        assert isinstance(res, DecompositionResult) and len(res.xs) == 2
        assert res.x1 is res.xs[0] and res.x2 is res.xs[1]
        assert res.x1.size == res.x2.size == mix.y.size
        np.testing.assert_array_equal(res.residual, mix.y - res.x1 - res.x2)
        assert len(res.cost_history) == res.iterations + 1

    def test_recovers_better_than_noisy_input(self):
        mix = gen_mixture(n_samples=1024, t1=32, t2=53, sigma=0.5, seed=7)
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

    def test_solve_matches_manual_stepping_bitwise(self, monkeypatch):
        # max_iter = k is k map evaluations: whole SQUAREM cycles of three,
        # then the plain steps of a cycle the budget cuts short.  No state
        # outlives a cycle, so the window starts at (y, y).  Its fourth
        # cycle's alpha (-13.6) is clamped at the bound and kept; its sixth
        # extrapolation is rejected, holding the second plain step
        mix = gen_mixture(n_samples=200, seed=22, sigma=0.5, t1=20, t2=33)
        cfg = small_config(b1=WeightArray(2, 18, 2), b2=WeightArray(2, 31, 2), tol=1e-15)
        held = {}
        for k in range(1, 20):
            res = rtea_solve(mix.y, replace(cfg, max_iter=k))
            x1, x2 = mix.y, mix.y
            costs = [mm_cost(mix.y, x1, x2, cfg)]
            kept = []
            for _ in range(k // 3):
                x1, x2, cycle_costs, keep = squarem_cycle(mix.y, x1, x2, cfg)
                costs += cycle_costs
                kept.append(keep)
            for _ in range(k % 3):
                x1, x2, (_, c) = mm_step(mix.y, x1, x2, cfg)
                costs.append(c)
            assert res.iterations == k and not res.converged
            np.testing.assert_array_equal(res.x1, x1)
            np.testing.assert_array_equal(res.x2, x2)
            np.testing.assert_array_equal(res.cost_history, np.asarray(costs))
            held[k] = res.x1
        assert kept == [True, True, True, True, True, False]
        # with the bound lifted the solve follows the same path through the
        # third cycle and leaves it at the fourth, the clamped one
        monkeypatch.setattr("rtea.solver.STEP_MAX", math.inf)
        for k, same in ((9, True), (12, False)):
            res = rtea_solve(mix.y, replace(cfg, max_iter=k))
            assert np.array_equal(res.x1, held[k]) == same

    def test_evaluations_to_tol(self):
        # the SQUAREM step bound: this record takes 109 evaluations, and 268
        # unbounded, most of them extrapolations overshooting and rejected
        # in streaks
        y = bench_record("quickstart-1k", 21).y
        cfg = default_config(
            y, PeriodSpec(period_samples=32), PeriodSpec(period_samples=53), max_iter=10**6
        )
        res = rtea_solve(y, cfg)
        assert res.converged and res.iterations <= 150
        assert np.all(np.diff(res.cost_history) <= 0.0)

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

    def test_swap_symmetry_keeps_signed_zeros(self):
        # where y holds -0.0 both components take p_j*(y/D) = -0.0, and D =
        # t*(p1 + p2) + p1*p2 is the same sum and product either way round
        mix = gen_mixture(n_samples=200, seed=10, sigma=0.5, t1=20, t2=33)
        y = mix.y.copy()
        y[::7] = -0.0
        b1, b2 = WeightArray(2, 18, 2), WeightArray(3, 30, 2)
        res = rtea_solve(y, small_config(b1=b1, b2=b2, lam1=0.15, lam2=0.3, max_iter=40))
        res_s = rtea_solve(y, small_config(b1=b2, b2=b1, lam1=0.3, lam2=0.15, max_iter=40))
        assert res.x1.tobytes() == res_s.x2.tobytes()
        assert res.x2.tobytes() == res_s.x1.tobytes()

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

    @pytest.mark.parametrize("k", [1, 3])
    def test_init_of_wrong_length_rejected(self, k):
        y = np.zeros(30)
        with pytest.raises(
            ValueError, match=rf"^init must be None or a pair of arrays, got {k} arrays$"
        ):
            rtea_solve(y, small_config(), init=(y,) * k)

    def test_mask_longer_than_signal_rejected(self):
        with pytest.raises(ValueError, match="mask length 25 exceeds signal length 20"):
            rtea_solve(np.zeros(20), small_config())


class TestNumericalRule:
    # every recorded cost must be finite, the start's included; tier-1 makes
    # every warning an error, so an overflow warning would fail these too
    def test_overflowing_start_cost_raises(self):
        y = 1e200 * gen_mixture(n_samples=128, seed=6, t1=20, t2=33).y
        cfg = small_config(b1=WeightArray(2, 18, 2), b2=WeightArray(2, 31, 2))
        with pytest.raises(NumericalError, match="non-finite at iteration 0$"):
            rtea_solve(y, cfg)

    def test_overflowing_component_weight_gives_zero_component(self):
        # lam1*w1 overflows to inf once x1 has shrunk: the step takes its
        # limit x1 = 0 there, where y*p2/D would be NaN and the cost non-finite
        y = gen_mixture(n_samples=200, seed=10, sigma=0.5, t1=20, t2=33).y
        b1, b2 = WeightArray(2, 18, 2), WeightArray(3, 30, 2)
        res = rtea_solve(y, SolverConfig(1.0, 1e305, 0.3, ABS, ABS, ABS, 3, b1, b2))
        assert np.all(np.isfinite(res.cost_history)) and np.all(np.isfinite(res.x2))
        assert np.all(res.x1 == 0.0)
        # the limit is the same function of (i, j) for both components
        res_s = rtea_solve(y, SolverConfig(1.0, 0.3, 1e305, ABS, ABS, ABS, 3, b2, b1))
        assert res_s.x2.tobytes() == res.x1.tobytes()
        assert res_s.x1.tobytes() == res.x2.tobytes()

    def test_overflowing_weight_raises(self):
        y = np.random.default_rng(4).normal(size=128)
        with pytest.raises(NumericalError, match="non-finite at iteration 0$"):
            pogs_solve(y, WeightArray(2, 18, 2), 1e308, ABS)


class TestMaskedSums:
    """The masked sums keep no state between calls, so whatever ran before
    leaves a solve's results alone."""

    def test_result_does_not_depend_on_earlier_solves(self):
        mix = gen_mixture(n_samples=200, seed=32, sigma=0.5, t1=20, t2=33)
        cfg = small_config(b1=WeightArray(2, 18, 2), b2=WeightArray(3, 30, 2), k0=3)

        def others():
            other = gen_mixture(n_samples=150, seed=33, sigma=0.5, t1=16, t2=27)
            rtea_solve(other.y, small_config(max_iter=20))
            pogs_solve(other.y, WeightArray(2, 14, 3), 0.3, ABS, max_iter=20)
            pogs_solve(mix.y, WeightArray.ones(4), 0.3, ABS, max_iter=20)

        first = rtea_solve(mix.y, cfg)
        others()
        after = rtea_solve(mix.y, cfg)
        for x, x_first in zip(after.xs, first.xs):
            assert x.tobytes() == x_first.tobytes()
        assert after.cost_history.tobytes() == first.cost_history.tobytes()


class TestTimeReversal:
    @pytest.mark.parametrize("solver", ["rtea", "pogs"])
    def test_reversed_input_gives_reversed_components(self, solver):
        # every mask is a palindrome, so the objective is invariant under
        # time reversal and each map evaluation commutes with it.  A pogs
        # solve keeps that to roundoff; an rtea solve's extrapolations may
        # amplify the reversal roundoff (see the whole-solve test below), so
        # here rtea is held to one map evaluation, the step oracles.mm_step
        # takes
        mix = gen_mixture(n_samples=1024, t1=32, t2=53, sigma=0.5, seed=7)
        spec1, spec2 = PeriodSpec(period_samples=32), PeriodSpec(period_samples=53)

        def solve(y):
            if solver == "rtea":
                return rtea_solve(y, default_config(y, spec1, spec2, max_iter=1))
            lam = beta_lookup(spec1.n1, spec1.m) * estimate_sigma(y)
            return pogs_solve(y, build_weight_array(spec1), lam, PenaltySpec("atan"))

        fwd, rev = solve(mix.y), solve(mix.y[::-1])
        assert len(fwd.xs) == len(rev.xs) == (2 if solver == "rtea" else 1)
        for x, xr in zip(fwd.xs + (fwd.residual,), rev.xs + (rev.residual,)):
            assert np.max(np.abs(xr[::-1] - x)) <= 1e-12 * np.max(np.abs(x))
        assert rev.iterations == fwd.iterations

    def test_whole_rtea_solve_commutes_with_reversal(self):
        # the extrapolations amplify the reversal roundoff only a little:
        # these solves end 1.7e-15 apart relative, and 2.4e-14 with the
        # SQUAREM step unbounded
        mix = gen_mixture(n_samples=1024, t1=32, t2=53, sigma=0.5, seed=7)
        spec1, spec2 = PeriodSpec(period_samples=32), PeriodSpec(period_samples=53)
        fwd, rev = (rtea_solve(y, default_config(y, spec1, spec2)) for y in (mix.y, mix.y[::-1]))
        assert rev.iterations == fwd.iterations
        for x, xr in zip(fwd.xs + (fwd.residual,), rev.xs + (rev.residual,)):
            assert np.max(np.abs(xr[::-1] - x)) <= 1e-10 * np.max(np.abs(x))


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
        ).x1
        assert np.max(np.abs(res.x2)) < 1e-8
        assert np.max(np.abs(res.x1 - x_single)) < 1e-4 * max(1.0, np.max(np.abs(x_single)))


class TestPogs:
    def test_zero_input(self):
        x = pogs_solve(np.zeros(30), WeightArray.ones(3), 0.5, ABS).x1
        np.testing.assert_array_equal(x, 0.0)

    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(15)
        y = rng.normal(size=400)
        sigma = 1.0
        x = pogs_solve(y, WeightArray.ones(3), 1e3 * sigma, ABS, max_iter=300).x1
        assert np.max(np.abs(x)) < 1e-3 * np.max(np.abs(y))

    def test_support_recovery(self):
        train = gen_train(TransientTrain(period_samples=40, transient_len=6, seed=16), 400)
        rng = np.random.default_rng(17)
        y = train.clean + 0.3 * rng.normal(size=400)
        x = pogs_solve(y, WeightArray.ones(3), 0.3 * 1.15, PenaltySpec("abs"), max_iter=300).x1
        on_support = np.zeros(400, dtype=bool)
        for onset in train.onsets:
            on_support[onset : onset + 6] = True
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

    def test_result_contract(self):
        # the one result type of both solvers, with one component; the
        # legacy tuple of full_output holds the same values
        y = np.random.default_rng(18).normal(size=100)
        res = pogs_solve(y, WeightArray.ones(3), 0.8, ABS)
        assert isinstance(res, DecompositionResult) and len(res.xs) == 1
        np.testing.assert_array_equal(res.residual, y - res.x1)
        assert len(res.cost_history) == res.iterations + 1
        assert res.final_cost == res.cost_history[-1]
        with pytest.raises(AttributeError, match="no x2"):
            res.x2
        x, costs, iterations, converged = pogs_solve(
            y, WeightArray.ones(3), 0.8, ABS, full_output=True
        )
        np.testing.assert_array_equal(x, res.x1)
        np.testing.assert_array_equal(costs, res.cost_history)
        assert (iterations, converged) == (res.iterations, res.converged)

    def test_invalid_lam(self):
        with pytest.raises(ValueError):
            pogs_solve(np.zeros(10), WeightArray.ones(2), 0.0, ABS)

    @pytest.mark.parametrize("lam, settings, cause", [
        (0.5, {"max_iter": 0}, "max_iter must be >= 1, got 0"),
        (0.5, {"tol": -1.0}, "tol must be a finite positive real, got -1.0"),
        (0.5, {"tol": np.nan}, "tol must be a finite positive real, got nan"),
        (0.5, {"tol": np.inf}, "tol must be a finite positive real, got inf"),
        (np.inf, {}, "lam must be a finite positive real, got inf"),
    ], ids=["max-iter-0", "negative-tol", "nan-tol", "inf-tol", "infinite-lam"])
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
        # a mask longer than any index: its length is compared, never len()'d
        with pytest.raises(ValueError, match=f"mask length {2 * 2**63 + 1} exceeds"):
            pogs_solve(np.zeros(10), WeightArray(1, 2**63 - 1, 2), 0.5, ABS)


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

    def test_gap_vanishes_where_the_sum_is_unchanged(self):
        # the coupling term sees only x1 + x2, so its majorizer is exact
        # along x1 - x2: moving a step between the components costs nothing
        rng = np.random.default_rng(21)
        z1, z2, w = rng.normal(size=(3, 24))
        spec = PenaltySpec("abs", eps=1e-6)
        x1, x2 = z1 + w, z2 - w
        assert abs(combined_majorizer_gap(x1, x2, z1, z2, 3, spec)) < 1e-12
        assert combined_majorizer_gap(x1, x1, z1, z2, 3, spec) > 1e-3
