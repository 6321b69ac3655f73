"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figures.  Run with ``pytest -s`` to see
the lines as they complete.
"""

import dataclasses
import time

import numpy as np

from rtea.analysis import envelope_spectrum, find_peaks, rmse
from rtea.params import (
    PeriodSpec,
    beta_lookup,
    build_weight_array,
    _choose_lambdas,
    estimate_sigma,
)
from rtea.penalties import PenaltySpec, smoothed_penalty
from rtea.regularizers import WeightArray, combined_majorizer_weights, majorizer_weights
from rtea.solver import SolverConfig, check_convexity, rtea_solve
from rtea.synth import TransientTrain, gen_mixture, gen_train

from oracles import (
    combined_majorizer_gap,
    combined_weights_loops,
    dense_mask,
    majorize_scalar,
    weights_loops,
)

FAMILIES = ("abs", "log", "rat", "atan")


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def two_train_config(sigma, eta, a0_fraction=0.9, max_iter=250, tol=1e-9):
    """Reference config for the 32/53-sample two-train benchmark, with the
    regularization scaled by the known noise level."""
    b1 = build_weight_array(PeriodSpec(period_samples=32, n1=3, m=4))
    b2 = build_weight_array(PeriodSpec(period_samples=53, n1=3, m=4))
    lam0, lam1, lam2 = _choose_lambdas(
        eta, beta_lookup(3, 1), beta_lookup(3, 4), beta_lookup(3, 4), sigma
    )
    _, bound = check_convexity(3, lam0, 0.0)
    return SolverConfig(
        lam0, lam1, lam2,
        PenaltySpec("atan", a0_fraction * bound), PenaltySpec("abs"), PenaltySpec("abs"),
        3, b1, b2, max_iter=max_iter, tol=tol,
    )


def zero_db_mixture(seed, n=1024):
    clean = gen_mixture(n_samples=n, t1=32, t2=53, sigma=0.0, seed=seed)
    sigma = float(np.sqrt(np.mean((clean.x1 + clean.x2) ** 2)))
    return gen_mixture(n_samples=n, t1=32, t2=53, sigma=sigma, seed=seed), sigma


def test_c1_majorization_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_scalar = np.inf
    worst_tangency = 0.0
    for family in FAMILIES:
        u = rng.uniform(-3, 3, size=1000)
        v = rng.uniform(-3, 3, size=1000)
        a = np.where(family == "abs", 0.0, rng.uniform(0.05, 2.0, size=1000))
        for ui, vi, ai in zip(u, v, a):
            spec = PenaltySpec(family, 0.0 if family == "abs" else float(ai))
            gap = float(majorize_scalar(ui, vi, spec)) - float(smoothed_penalty(ui, spec))
            worst_scalar = min(worst_scalar, gap)
            tangency = abs(
                float(majorize_scalar(vi, vi, spec)) - float(smoothed_penalty(vi, spec))
            )
            worst_tangency = max(worst_tangency, tangency)
    worst_vec = np.inf
    worst_vec_tan = 0.0
    for trial in range(200):
        family = FAMILIES[trial % 4]
        a = 0.0 if family == "abs" else float(rng.uniform(0.05, 2.0))
        spec = PenaltySpec(family, a, eps=1e-8)
        x1, x2, z1, z2 = rng.normal(size=(4, 24))
        worst_vec = min(worst_vec, combined_majorizer_gap(x1, x2, z1, z2, 3, spec))
        worst_vec_tan = max(
            worst_vec_tan, abs(combined_majorizer_gap(z1, z2, z1, z2, 3, spec))
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_scalar >= -1e-10
        and worst_tangency <= 1e-12
        and worst_vec >= -1e-10
        and worst_vec_tan <= 1e-12
        and elapsed < 5.0
    )
    report(
        1, "majorization suite", ok,
        f"scalar gap >= {worst_scalar:.2e}, tangency <= {worst_tangency:.2e}, "
        f"vector gap >= {worst_vec:.2e}, {elapsed:.1f}s",
    )


def random_solver_instance(rng, n=256, eps=1e-8):
    n1a, n1b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    ta = int(rng.integers(max(n1a + 6, 12), 40))
    tb = int(rng.integers(max(n1b + 6, 12), 40))
    b1 = WeightArray(n1a, ta - n1a, int(rng.integers(1, 5)))
    b2 = WeightArray(n1b, tb - n1b, int(rng.integers(1, 5)))
    lam0 = float(rng.uniform(0.05, 0.8))
    lam1 = float(rng.uniform(0.05, 0.8))
    lam2 = float(rng.uniform(0.05, 0.8))
    k0 = min(n1a, n1b)
    family = FAMILIES[int(rng.integers(0, 4))]
    a0 = 0.0 if family == "abs" else float(rng.uniform(0.0, 0.9)) / (k0 * lam0)
    cfg = SolverConfig(
        lam0, lam1, lam2,
        PenaltySpec(family, a0, eps=eps), PenaltySpec("abs", eps=eps), PenaltySpec("abs", eps=eps),
        k0, b1, b2, max_iter=3000, tol=1e-12,
    )
    mix = gen_mixture(
        n_samples=n, t1=ta, t2=tb, sigma=0.5,
        seed=int(rng.integers(0, 2**31)), transient_len=8,
    )
    return mix.y, cfg


def test_c2_descent_and_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_increase = -np.inf
    worst_rel = 0.0
    for trial in range(50):
        y, cfg = random_solver_instance(rng)
        srng = np.random.default_rng(1000 + trial)
        finals = []
        for init in (None, "zeros",
                     (0.05 * srng.normal(size=y.size), 0.05 * srng.normal(size=y.size))):
            res = rtea_solve(y, cfg, init=init)
            worst_increase = max(worst_increase, float(np.max(np.diff(res.cost_history))))
            extensions = 0
            while not res.converged and extensions < 4:
                res = rtea_solve(y, cfg, init=(res.x1, res.x2))
                worst_increase = max(
                    worst_increase, float(np.max(np.diff(res.cost_history)))
                )
                extensions += 1
            finals.append(res.final_cost)
        worst_rel = max(worst_rel, (max(finals) - min(finals)) / max(finals))
    elapsed = time.perf_counter() - start
    ok = worst_increase <= 1e-12 and worst_rel < 1e-6 and elapsed < 30.0
    report(
        2, "descent and shared optimum", ok,
        f"max cost increase {worst_increase:.2e}, 3-init rel spread {worst_rel:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_c3_weight_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(8, 65))
        family = FAMILIES[int(rng.integers(0, 4))]
        a = 0.0 if family == "abs" else float(rng.uniform(0.05, 2.0))
        eps = 10.0 ** int(rng.integers(-8, -2))
        spec = PenaltySpec(family, a, eps)
        z = rng.normal(size=n)
        if trial % 2:
            n1 = int(rng.integers(1, 4))
            n0 = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            b = WeightArray(n1, n0, m)
            if len(b) > n:
                b = WeightArray.ones(3)
            fast = majorizer_weights(z, b, spec)
            slow = weights_loops(z, dense_mask(b), spec)
        else:
            k0 = int(rng.integers(1, 6))
            fast = combined_majorizer_weights(z, k0, spec)
            slow = combined_weights_loops(z, k0, spec)
        worst = max(worst, float(np.max(np.abs(fast - slow)) / max(1.0, np.max(np.abs(slow)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    report(
        3, "fast weights equal brute force", ok,
        f"worst scaled deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_c4_convexity_guard_grid():
    ok = True
    for k0 in (1, 2, 3, 4):
        for lam0 in (0.1, 0.5, 1.0, 2.0, 5.0):
            expected = 1.0 / (k0 * lam0)
            valid, bound = check_convexity(k0, lam0, 0.999 * expected)
            ok &= bound == expected and valid
            valid, _ = check_convexity(k0, lam0, 1.001 * expected)
            ok &= not valid
            valid, _ = check_convexity(k0, lam0, 0.0)
            ok &= valid
    report(4, "convexity guard grid", ok, "bound exact, 0.999x passes, 1.001x fails")


def test_c5_two_train_recovery_and_coupling_benefit():
    start = time.perf_counter()
    wins = 0
    r1s, r2s, b1s, b2s = [], [], [], []
    for seed in range(20):
        mix, sigma = zero_db_mixture(seed)
        cfg = two_train_config(sigma, eta=0.5)
        res = rtea_solve(mix.y, cfg)
        # decomposition without the coupling term, same split rule at eta -> 0
        lam1 = 0.5 * beta_lookup(3, 4) * sigma
        cfg_mca = dataclasses.replace(
            cfg, lam0=0.0, lam1=lam1, lam2=lam1, pen0=PenaltySpec("abs")
        )
        res_mca = rtea_solve(mix.y, cfg_mca)
        r1, r2 = rmse(res.x1, mix.x1), rmse(res.x2, mix.x2)
        m1, m2 = rmse(res_mca.x1, mix.x1), rmse(res_mca.x2, mix.x2)
        wins += (r1 + r2) < (m1 + m2)
        r1s.append(r1)
        r2s.append(r2)
        b1s.append(rmse(mix.y, mix.x1))
        b2s.append(rmse(mix.y, mix.x2))
    elapsed = time.perf_counter() - start
    ok = (
        np.median(r1s) < np.median(b1s)
        and np.median(r2s) < np.median(b2s)
        and wins >= 16
        and elapsed < 120.0
    )
    report(
        5, "0 dB two-train recovery beats input and uncoupled mode", ok,
        f"median rmse {np.median(r1s):.3f}/{np.median(r2s):.3f} vs input "
        f"{np.median(b1s):.3f}/{np.median(b2s):.3f}, coupled wins {wins}/20, "
        f"{elapsed:.0f}s",
    )


def test_c6_eta_sweep_is_u_shaped():
    medians = {}
    for eta in (0.05, 0.5, 0.95):
        vals = []
        for seed in range(10):
            clean = gen_mixture(n_samples=1024, sigma=0.0, seed=seed)
            rms_clean = float(np.sqrt(np.mean((clean.x1 + clean.x2) ** 2)))
            sigma = rms_clean * 10 ** (-6 / 20)  # +6 dB input
            mix = gen_mixture(n_samples=1024, sigma=sigma, seed=seed)
            res = rtea_solve(mix.y, two_train_config(sigma, eta=eta))
            vals.append(0.5 * (rmse(res.x1, mix.x1) + rmse(res.x2, mix.x2)))
        medians[eta] = float(np.median(vals))
    ok = medians[0.5] < medians[0.05] and medians[0.5] < medians[0.95]
    report(
        6, "balance sweep dips at 0.5", ok,
        f"median rmse @0.05/0.5/0.95 = "
        f"{medians[0.05]:.4f}/{medians[0.5]:.4f}/{medians[0.95]:.4f}",
    )


def test_c7_fault_frequency_identification():
    from rtea.params import default_config

    start = time.perf_counter()
    fs, n = 12800.0, 6400
    clean = gen_mixture(n_samples=n, t1=fs / 43.3, t2=fs / 58.7, sigma=0.0, seed=11)
    sigma = float(np.sqrt(np.mean((clean.x1 + clean.x2) ** 2)))
    mix = gen_mixture(n_samples=n, t1=fs / 43.3, t2=fs / 58.7, sigma=sigma, seed=11)
    cfg = default_config(
        mix.y,
        PeriodSpec(fault_freq_hz=43.3, sample_rate_hz=fs),
        PeriodSpec(fault_freq_hz=58.7, sample_rate_hz=fs),
        max_iter=150,
        tol=1e-8,
    )
    res = rtea_solve(mix.y, cfg)
    oks, details = [], []
    for name, x, target in (("x1", res.x1, 43.3), ("x2", res.x2, 58.7)):
        spec = envelope_spectrum(x, fs, nfft=32768)
        rep = find_peaks(spec, (20.0, 200.0), n_harmonics=4, tol_hz=1.5)
        err = abs(rep.fundamental_hz - target)
        higher = [k for k in rep.harmonics_found if k >= 2]
        oks.append(err <= 1.0 and len(higher) >= 2)
        details.append(f"{name}: {rep.fundamental_hz:.2f} Hz (err {err:.2f}), "
                       f"harmonics {rep.harmonics_found}")

    # single-fault record: one train only, second mask finds nothing
    train = gen_train(TransientTrain(period_samples=fs / 57.8, seed=21), n)
    rms_clean = float(np.sqrt(np.mean(train.clean**2)))
    y = train.clean + np.random.default_rng(99).normal(0.0, rms_clean, size=n)
    cfg1 = default_config(
        y,
        PeriodSpec(fault_freq_hz=57.8, sample_rate_hz=fs),
        PeriodSpec(fault_freq_hz=78.4, sample_rate_hz=fs),
        max_iter=150,
        tol=1e-8,
    )
    res1 = rtea_solve(y, cfg1)
    rms1 = float(np.sqrt(np.mean(res1.x1**2)))
    rms2 = float(np.sqrt(np.mean(res1.x2**2)))
    ratio = rms2 / rms1
    elapsed = time.perf_counter() - start
    ok = all(oks) and ratio < 0.05 and elapsed < 60.0
    report(
        7, "fault frequency identification", ok,
        "; ".join(details) + f"; single-fault leakage {ratio:.2%}, {elapsed:.0f}s",
    )


def test_c8_noise_estimator_accuracy():
    ok = True
    details = []
    for i, sigma in enumerate((0.1, 1.0, 10.0)):
        rng = np.random.default_rng(800 + i)
        est = estimate_sigma(rng.normal(0.0, sigma, size=100_000))
        details.append(f"{sigma} -> {est:.4g}")
        ok &= abs(est - sigma) <= 0.05 * sigma
    report(8, "robust noise estimate within 5%", ok, ", ".join(details))


def test_c9_table_and_split_fidelity():
    expected = {
        (1, 1): 3.700, (2, 1): 1.700, (3, 1): 1.150, (4, 1): 0.925,
        (1, 2): 1.700, (2, 2): 0.850, (3, 2): 0.625, (4, 2): 0.475,
        (1, 3): 1.150, (2, 3): 0.625, (3, 3): 0.450, (4, 3): 0.375,
        (1, 4): 0.925, (2, 4): 0.475, (3, 4): 0.375, (4, 4): 0.325,
    }
    ok = all(beta_lookup(n1, m) == v for (n1, m), v in expected.items())
    lam0, lam1, lam2 = _choose_lambdas(0.5, 1.150, 0.375, 0.375, 1.0)
    ok &= abs(lam0 - 0.575) < 1e-12
    ok &= abs(lam1 - 0.09375) < 1e-12 and abs(lam2 - 0.09375) < 1e-12
    for eta, sigma in ((0.3, 0.7), (0.8, 2.5)):
        l0, l1, l2 = _choose_lambdas(eta, 1.7, 0.475, 0.625, sigma)
        ok &= abs(l0 - eta * 1.7 * sigma) < 1e-12
        ok &= abs(l1 - 0.5 * (1 - eta) * 0.475 * sigma) < 1e-12
        ok &= abs(l2 - 0.5 * (1 - eta) * 0.625 * sigma) < 1e-12
    report(9, "multiplier table and split rule fidelity", ok, "16/16 entries exact")


def test_c10_stationarity_at_convergence():
    from rtea.solver import eval_cost

    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(3):
        n = 64
        eps = 1e-6
        ta, tb = int(rng.integers(12, 20)), int(rng.integers(20, 30))
        cfg = SolverConfig(
            0.4, 0.2, 0.25,
            PenaltySpec("atan", 0.5, eps=eps), PenaltySpec("abs", eps=eps), PenaltySpec("abs", eps=eps),
            2, WeightArray(2, ta - 2, 2), WeightArray(2, tb - 2, 2),
            max_iter=50000, tol=1e-12,
        )
        mix = gen_mixture(n_samples=n, t1=ta, t2=tb, sigma=0.5,
                          seed=trial, transient_len=6)
        y = mix.y
        res = rtea_solve(y, cfg)
        h = 1e-6
        budget = 1e-4 * (1.0 + float(np.max(np.abs(y))))
        x1, x2 = res.x1.copy(), res.x2.copy()
        grad_inf = 0.0
        for i in range(n):
            for x in (x1, x2):
                orig = x[i]
                x[i] = orig + h
                cp = eval_cost(y, x1, x2, cfg)
                x[i] = orig - h
                cm = eval_cost(y, x1, x2, cfg)
                x[i] = orig
                grad_inf = max(grad_inf, abs(cp - cm) / (2 * h))
        worst = max(worst, grad_inf / budget)
    ok = worst < 1.0
    report(
        10, "finite-difference stationarity at convergence", ok,
        f"worst gradient at {worst:.2%} of budget",
    )
