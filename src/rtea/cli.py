"""Command-line front end: synthesize signals, run extraction, analyze
components and sweep the sparsity-balance parameter.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fileio
from .analysis import envelope_spectrum, find_peaks, rmse
from .penalties import PenaltySpec
from .params import (
    PeriodSpec,
    _lambda_scale,
    beta_lookup,
    build_weight_array,
    default_config,
    estimate_sigma,
    mca_config,
)
from .solver import NumericalError, check_convexity, pogs_solve, rtea_solve
from .synth import gen_mixture

DEFAULT_OUT = "out"
CONFIG_KEYS = (
    "eta",
    "a0_fraction",
    "penalty",
    "n1",
    "m",
    "fault_freq_hz",
    "period_samples",
    "sample_rate_hz",
    "max_iter",
    "tol",
)


def _env_seed(value):
    if value is not None:
        return int(value)
    return int(os.environ.get("RTEA_SEED", "0"))


def _say(msg: str) -> None:
    print(msg)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    seed = _env_seed(args.seed)
    mix = gen_mixture(
        n_samples=args.n,
        t1=args.t1,
        t2=args.t2,
        sigma=args.sigma,
        seed=seed,
        transient_len=args.transient_len,
        jitter_pct=args.jitter,
        modulation_freq_hz=args.modulation_freq,
        sample_rate_hz=args.fs,
    )
    out = args.out
    signal_path = os.path.join(out, "signal.csv")
    fileio.write_columns_csv(
        signal_path,
        {
            "index": np.arange(args.n),
            "y": mix.y,
            "x1_true": mix.x1,
            "x2_true": mix.x2,
            "w": mix.noise,
        },
    )
    manifest_path = os.path.join(out, "truth.json")
    fileio.write_json(
        manifest_path,
        {
            "command": "generate",
            "params": {
                "n": args.n,
                "t1": args.t1,
                "t2": args.t2,
                "sigma": args.sigma,
                "transient_len": args.transient_len,
                "jitter_pct": args.jitter,
                "modulation_freq_hz": args.modulation_freq,
                "sample_rate_hz": args.fs,
            },
            "seed": seed,
            "child_seeds": list(mix.seeds),
            "onsets1": mix.train1.onsets.tolist(),
            "onsets2": mix.train2.onsets.tolist(),
            "files": {"signal": signal_path},
            "sha256": {"signal": fileio.sha256_file(signal_path)},
            "timestamp": fileio.utc_timestamp(),
        },
    )
    _say(f"wrote {signal_path} ({args.n} samples) and {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# extract


def _load_config_file(path):
    if path is None:
        return {}
    import json

    with open(path) as fh:
        cfg = json.load(fh)
    unknown = set(cfg) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _pick(flag_value, cfg, key, default):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _resolve_settings(args, cfg):
    """The solver settings of extract and bench-eta, each from its flag,
    else the config file, else the default."""
    return {
        "a0_fraction": float(_pick(args.a0_fraction, cfg, "a0_fraction", 0.5)),
        "penalty": _pick(args.penalty, cfg, "penalty", "atan"),
        "max_iter": int(_pick(args.max_iter, cfg, "max_iter", 200)),
        "tol": float(_pick(args.tol, cfg, "tol", 1e-8)),
    }


def _pair(value, name):
    # Accept a scalar or a 2-list from the config file.
    if value is None:
        return None, None
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"{name} must be a scalar or a 2-element list")
        return value[0], value[1]
    return value, value


def _resolve_periods(args, cfg):
    """Build the per-component period priors from flags and config file."""
    n1a, n1b = _pair(_pick(args.n1, cfg, "n1", 3), "n1")
    ma, mb = _pair(_pick(args.m, cfg, "m", 4), "m")
    fs = _pick(args.fs, cfg, "sample_rate_hz", None)
    p1, p2 = args.period1, args.period2
    f1, f2 = args.freq1, args.freq2
    if p1 is None and f1 is None:
        cp1, cp2 = _pair(cfg.get("period_samples"), "period_samples")
        cf1, cf2 = _pair(cfg.get("fault_freq_hz"), "fault_freq_hz")
        p1, p2 = cp1, cp2
        f1, f2 = cf1, cf2

    def one(period, freq, n1, m, which):
        if period is not None:
            return PeriodSpec(period_samples=float(period), n1=int(n1), m=int(m))
        if freq is not None:
            if fs is None:
                raise ValueError("--fs (sample rate) is required with fault frequencies")
            return PeriodSpec(
                fault_freq_hz=float(freq),
                sample_rate_hz=float(fs),
                n1=int(n1),
                m=int(m),
            )
        raise ValueError(
            f"no period prior for component {which}: fault characteristic "
            "frequencies (or periods) are required prior information; pass "
            "--period1/--period2 or --freq1/--freq2 together with --fs"
        )

    spec1 = one(p1, f1, n1a, ma, 1)
    if args.mode == "pogs":
        return spec1, None
    spec2 = one(p2, f2, n1b, mb, 2)
    return spec1, spec2


def _require_finite(path, cols, name):
    """The finite-sample check of every CSV column the CLI computes on."""
    x = cols[name]
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{path}: non-finite input: {bad.size} of {x.size} samples "
            f"of {name}, the first {name}[{i}] = {x[i]}"
        )


def _read_observation(path):
    cols = fileio.read_columns_csv(path)
    if "y" not in cols:
        raise ValueError(
            f"{path}: expected a 'y' column (or a single-column CSV)"
        )
    _require_finite(path, cols, "y")
    truth = None
    if "x1_true" in cols and "x2_true" in cols:
        truth = (cols["x1_true"], cols["x2_true"])
    return cols["y"], truth


def cmd_extract(args) -> int:
    cfg_file = _load_config_file(args.config)
    eta = float(_pick(args.eta, cfg_file, "eta", 0.5))
    settings = _resolve_settings(args, cfg_file)
    penalty, max_iter, tol = settings["penalty"], settings["max_iter"], settings["tol"]

    y, truth = _read_observation(args.input)
    spec1, spec2 = _resolve_periods(args, cfg_file)
    sigma = estimate_sigma(y)
    out = args.out
    os.makedirs(out, exist_ok=True)

    manifest = {
        "command": "extract",
        "mode": args.mode,
        "input": {"path": args.input, "sha256": fileio.sha256_file(args.input)},
        "sigma_hat": sigma,
        "settings": {"eta": eta, **settings, "init": args.init},
        "periods": [_period_snapshot(spec1)],
        "outputs": {},
        "metrics": {},
    }

    if args.mode == "pogs":
        b = build_weight_array(spec1)
        if args.lam is not None:
            lam = args.lam
        else:
            lam = beta_lookup(spec1.n1, spec1.m) * _lambda_scale(sigma)
        x, costs, iterations, converged = pogs_solve(
            y, b, lam, PenaltySpec(family=penalty, a=0.0), max_iter=max_iter, tol=tol,
            full_output=True,
        )
        _say(f"sigma_hat = {sigma:.6g}")
        _say(f"lambda = {lam:.6g}")
        _say(f"iterations = {iterations} ({'converged' if converged else 'not converged'})")
        columns = {
            "index": np.arange(y.size),
            "x1": x,
            "residual": y - x,
        }
        cost_hist = np.asarray(costs)
        manifest["config"] = {"lam": lam, "b": _mask_snapshot(b)}
        manifest["metrics"].update(
            final_cost=float(cost_hist[-1]), iterations=iterations, converged=converged
        )
    else:
        if args.mode == "mca":
            solver_cfg = mca_config(y, spec1, spec2, max_iter=max_iter, tol=tol)
        else:
            if eta >= 0.9:
                _warn(
                    f"eta = {eta} puts almost all weight on the combined-sparsity "
                    "term; the two components tend to collapse onto each other "
                    "(x1 == x2) and the decomposition degrades"
                )
            solver_cfg = default_config(
                y, spec1, spec2, eta=eta, a0_fraction=settings["a0_fraction"],
                family=penalty, max_iter=max_iter, tol=tol,
            )
        manifest["periods"].append(_period_snapshot(spec2))
        init = "zeros" if args.init == "zeros" else None
        result = rtea_solve(y, solver_cfg, init=init)
        _say(f"sigma_hat = {sigma:.6g}")
        _say(
            f"lambda0 = {solver_cfg.lam0:.6g}, lambda1 = {solver_cfg.lam1:.6g}, "
            f"lambda2 = {solver_cfg.lam2:.6g}"
        )
        if solver_cfg.lam0 > 0:
            ok, bound = check_convexity(solver_cfg.k0, solver_cfg.lam0, solver_cfg.pen0.a)
            _say(
                f"convexity bound 1/(k0*lam0) = {bound:.6g}, "
                f"a0 = {solver_cfg.pen0.a:.6g} ({'ok' if ok else 'VIOLATED'})"
            )
        else:
            _say("convexity bound: not applicable (lam0 = 0)")
        _say(
            f"iterations = {result.iterations} "
            f"({'converged' if result.converged else 'not converged'})"
        )
        columns = {
            "index": np.arange(y.size),
            "x1": result.x1,
            "x2": result.x2,
            "residual": result.residual,
        }
        cost_hist = result.cost_history
        manifest["config"] = _config_snapshot(solver_cfg)
        manifest["metrics"].update(
            final_cost=result.final_cost,
            iterations=result.iterations,
            converged=result.converged,
        )
        if truth is not None:
            x1t, x2t = truth
            manifest["metrics"].update(
                rmse_x1=rmse(result.x1, x1t),
                rmse_x2=rmse(result.x2, x2t),
                baseline_rmse_y_x1=rmse(y, x1t),
                baseline_rmse_y_x2=rmse(y, x2t),
            )

    components_path = os.path.join(out, "components.csv")
    fileio.write_columns_csv(components_path, columns)
    cost_path = os.path.join(out, "cost.csv")
    fileio.write_columns_csv(
        cost_path,
        {"iteration": np.arange(cost_hist.size), "cost": cost_hist},
    )
    manifest["outputs"] = {"components": components_path, "cost": cost_path}
    manifest["timestamp"] = fileio.utc_timestamp()
    fileio.write_json(os.path.join(out, "manifest.json"), manifest)
    _say(f"wrote {components_path}")
    return 0


def _period_snapshot(spec: PeriodSpec) -> dict:
    return {
        "period_samples": spec.period,
        "period_int": spec.period_int,
        "fault_freq_hz": spec.fault_freq_hz,
        "sample_rate_hz": spec.sample_rate_hz,
        "n1": spec.n1,
        "m": spec.m,
    }


def _mask_snapshot(b) -> dict:
    return {"n1": b.n1, "n0": b.n0, "m": b.m, "length": len(b)}


def _config_snapshot(cfg) -> dict:
    return {
        "lam0": cfg.lam0,
        "lam1": cfg.lam1,
        "lam2": cfg.lam2,
        "a0": cfg.pen0.a,
        "a1": cfg.pen1.a,
        "a2": cfg.pen2.a,
        "penalty0": cfg.pen0.family,
        "penalty1": cfg.pen1.family,
        "penalty2": cfg.pen2.family,
        "eps": cfg.pen0.eps,
        "k0": cfg.k0,
        "b1": _mask_snapshot(cfg.b1),
        "b2": _mask_snapshot(cfg.b2),
        "max_iter": cfg.max_iter,
        "tol": cfg.tol,
    }


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    cols = fileio.read_columns_csv(args.input)
    names = [n for n in ("x1", "x2") if n in cols]
    if not names:
        if "y" in cols:
            names = ["y"]
        else:
            raise ValueError(f"{args.input}: no x1/x2/y columns to analyze")
    for name in names:
        _require_finite(args.input, cols, name)
    out = args.out
    os.makedirs(out, exist_ok=True)
    report = {
        "command": "analyze",
        "input": {"path": args.input, "sha256": fileio.sha256_file(args.input)},
        "params": {
            "fs": args.fs,
            "band_hz": list(args.band),
            "nfft": args.nfft,
            "smooth_hz": args.smooth_hz,
            "n_harmonics": args.n_harmonics,
            "tol_hz": args.tol_hz,
        },
        "components": {},
        "outputs": {},
    }
    for name in names:
        x = cols[name]
        spec = envelope_spectrum(x, args.fs, nfft=args.nfft, smooth_hz=args.smooth_hz)
        if np.any(spec.magnitude > 0):
            peaks = find_peaks(
                spec, tuple(args.band), n_harmonics=args.n_harmonics, tol_hz=args.tol_hz
            )
            peak_list = peaks.peaks[: args.max_peaks]
            fundamental = peaks.fundamental_hz
            score = peaks.harmonic_score
            harmonics = peaks.harmonics_found
        else:
            peak_list, fundamental, score, harmonics = [], None, 0.0, []
        path = os.path.join(out, f"spectrum_{name}.csv")
        fileio.write_columns_csv(
            path,
            {
                "freq_hz": spec.freqs_hz,
                "magnitude": spec.magnitude,
                "smoothed": spec.smoothed,
            },
        )
        rms = float(np.sqrt(np.mean(x * x)))
        report["components"][name] = {
            "rms": rms,
            "fundamental_hz": fundamental,
            "harmonic_score": score,
            "harmonics_found": harmonics,
            "peaks": [{"freq_hz": f, "magnitude": g} for f, g in peak_list],
        }
        report["outputs"][name] = path
        if fundamental is None:
            _say(f"{name}: no peaks in band")
        else:
            _say(
                f"{name}: fundamental {fundamental:.4g} Hz, "
                f"harmonic score {score:.2f}, rms {rms:.4g}"
            )
    report["timestamp"] = fileio.utc_timestamp()
    peaks_path = os.path.join(out, "peaks.json")
    fileio.write_json(peaks_path, report)
    _say(f"wrote {peaks_path}")
    return 0


# ---------------------------------------------------------------------------
# bench-eta


def cmd_bench_eta(args) -> int:
    y, truth = _read_observation(args.input)
    if truth is None:
        raise ValueError(
            f"{args.input}: ground-truth columns x1_true/x2_true are required "
            "for the eta sweep"
        )
    cfg_file = _load_config_file(args.config)
    spec1, spec2 = _resolve_periods(args, cfg_file)
    settings = _resolve_settings(args, cfg_file)
    x1t, x2t = truth
    etas = [float(v) for v in args.etas.split(",") if v.strip()]
    if not etas or not all(0.0 < e < 1.0 for e in etas):
        raise ValueError("--etas must be a comma list of values in (0, 1)")
    rows = {"eta": [], "rmse_x1": [], "rmse_x2": [], "rmse_sum": []}
    for eta in etas:
        cfg = default_config(
            y, spec1, spec2, eta=eta, a0_fraction=settings["a0_fraction"],
            family=settings["penalty"], max_iter=settings["max_iter"], tol=settings["tol"],
        )
        res = rtea_solve(y, cfg)
        rows["eta"].append(eta)
        rows["rmse_x1"].append(rmse(res.x1, x1t))
        rows["rmse_x2"].append(rmse(res.x2, x2t))
        rows["rmse_sum"].append(rmse(res.x1 + res.x2, x1t + x2t))
        _say(
            f"eta = {eta:.3f}: rmse_x1 = {rows['rmse_x1'][-1]:.5g}, "
            f"rmse_x2 = {rows['rmse_x2'][-1]:.5g}, "
            f"rmse_sum = {rows['rmse_sum'][-1]:.5g}"
        )
    out = args.out
    sweep_path = os.path.join(out, "eta_sweep.csv")
    fileio.write_columns_csv(sweep_path, {k: np.asarray(v) for k, v in rows.items()})
    fileio.write_json(
        os.path.join(out, "eta_sweep.json"),
        {
            "command": "bench-eta",
            "input": {"path": args.input, "sha256": fileio.sha256_file(args.input)},
            "etas": etas,
            "a0_fraction": settings["a0_fraction"],
            "periods": [_period_snapshot(spec1), _period_snapshot(spec2)],
            "outputs": {"sweep": sweep_path},
            "timestamp": fileio.utc_timestamp(),
        },
    )
    _say(f"wrote {sweep_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtea",
        description=(
            "Decompose a noisy 1-D signal into two repetitive group-sparse "
            "transient sequences plus residual, and identify their repetition "
            "frequencies"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a two-train test signal with ground truth")
    g.add_argument("--t1", type=float, default=32.0, help="period of train 1 in samples")
    g.add_argument("--t2", type=float, default=53.0, help="period of train 2 in samples")
    g.add_argument("--n", type=int, default=1024, help="number of samples")
    g.add_argument("--sigma", type=float, default=0.5, help="noise standard deviation")
    g.add_argument("--seed", type=int, default=None, help="seed (default: $RTEA_SEED or 0)")
    g.add_argument("--transient-len", type=int, default=10)
    g.add_argument("--jitter", type=float, default=0.0, help="onset jitter in %% of period")
    g.add_argument("--modulation-freq", type=float, default=None,
                   help="amplitude-modulation frequency for train 2 (needs --fs)")
    g.add_argument("--fs", type=float, default=None, help="sample rate in Hz")
    g.add_argument("--out", default=DEFAULT_OUT, help="output directory (default ./out)")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("extract", help="run the decomposition on a CSV signal")
    e.add_argument("input", help="CSV with a 'y' column (or a single column)")
    e.add_argument("--mode", choices=("rtea", "mca", "pogs"), default="rtea")
    e.add_argument("--period1", type=float, default=None, help="period of component 1 [samples]")
    e.add_argument("--period2", type=float, default=None, help="period of component 2 [samples]")
    e.add_argument("--freq1", type=float, default=None, help="fault frequency 1 [Hz]")
    e.add_argument("--freq2", type=float, default=None, help="fault frequency 2 [Hz]")
    e.add_argument("--fs", type=float, default=None, help="sample rate [Hz]")
    e.add_argument("--n1", type=int, default=None, help="ones-run (group) length, default 3")
    e.add_argument("--m", type=int, default=None, help="periods spanned by the mask, default 4")
    e.add_argument("--eta", type=float, default=None, help="sparsity balance in (0,1), default 0.5")
    e.add_argument("--a0-fraction", dest="a0_fraction", type=float, default=None,
                   help="coupling concavity as a fraction of the convexity bound, default 0.5")
    e.add_argument("--penalty", choices=("abs", "log", "rat", "atan"), default=None,
                   help="penalty family for the coupling term, default atan")
    e.add_argument("--lam", type=float, default=None,
                   help="pogs mode only: regularization weight (default beta*sigma_hat)")
    e.add_argument("--max-iter", type=int, default=None)
    e.add_argument("--tol", type=float, default=None)
    e.add_argument("--init", choices=("observation", "zeros"), default=None)
    e.add_argument("--config", default=None, help="JSON config file; flags override it")
    e.add_argument("--out", default=DEFAULT_OUT)
    e.set_defaults(func=cmd_extract)

    a = sub.add_parser("analyze", help="envelope spectra and peak report for components")
    a.add_argument("input", help="components CSV (x1/x2 columns) or any signal CSV")
    a.add_argument("--fs", type=float, required=True, help="sample rate [Hz]")
    a.add_argument("--band", type=float, nargs=2, default=(5.0, 500.0),
                   metavar=("LO", "HI"), help="search band [Hz]")
    a.add_argument("--nfft", type=int, default=None)
    a.add_argument("--smooth-hz", dest="smooth_hz", type=float, default=2.0)
    a.add_argument("--n-harmonics", dest="n_harmonics", type=int, default=5)
    a.add_argument("--tol-hz", dest="tol_hz", type=float, default=None)
    a.add_argument("--max-peaks", dest="max_peaks", type=int, default=10)
    a.add_argument("--out", default=DEFAULT_OUT)
    a.set_defaults(func=cmd_analyze)

    b = sub.add_parser("bench-eta", help="sweep eta and tabulate RMSE against ground truth")
    b.add_argument("input", help="CSV with y and x1_true/x2_true columns")
    b.add_argument("--etas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    b.add_argument("--period1", type=float, default=None)
    b.add_argument("--period2", type=float, default=None)
    b.add_argument("--freq1", type=float, default=None)
    b.add_argument("--freq2", type=float, default=None)
    b.add_argument("--fs", type=float, default=None)
    b.add_argument("--n1", type=int, default=None)
    b.add_argument("--m", type=int, default=None)
    b.add_argument("--a0-fraction", dest="a0_fraction", type=float, default=None)
    b.add_argument("--max-iter", type=int, default=None)
    b.add_argument("--tol", type=float, default=None)
    b.add_argument("--config", default=None,
                   help="JSON config file (as for extract, except eta); flags override it")
    b.add_argument("--out", default=DEFAULT_OUT)
    b.set_defaults(mode="rtea", penalty=None, func=cmd_bench_eta)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
