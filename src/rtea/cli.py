"""Command-line front end: synthesize signals, run extraction, analyze
components and sweep the sparsity-balance parameter.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fileio
from .analysis import envelope_spectrum, find_peaks, rmse
from .penalties import FAMILIES, PenaltySpec
from .params import (
    PeriodSpec,
    _lambda_scale,
    beta_lookup,
    build_weight_array,
    default_config,
    estimate_sigma,
)
from .solver import NumericalError, check_convexity, pogs_solve, rtea_solve
from .synth import gen_mixture

DEFAULT_OUT = "out"
# The key of each --config setting and the flag it is parsed as.  A key
# with two flags takes one value for both components or a 2-list.
CONFIG_FLAGS = {
    "eta": "--eta",
    "a0_fraction": "--a0-fraction",
    "penalty": "--penalty",
    "n1": "--n1",
    "m": "--m",
    "fault_freq_hz": ("--freq1", "--freq2"),
    "period_samples": ("--period1", "--period2"),
    "sample_rate_hz": "--fs",
    "max_iter": "--max-iter",
    "tol": "--tol",
}
# The solver settings each run's record holds; extract's also holds eta.
SETTINGS = ("a0_fraction", "penalty", "max_iter", "tol")


def _env_seed(value):
    if value is not None:
        return int(value)
    return int(os.environ.get("RTEA_SEED", "0"))


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
    print(f"wrote {signal_path} ({args.n} samples) and {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# extract


def _periods(args) -> list[PeriodSpec]:
    """The period prior of each component: component 1's alone in pogs mode."""
    specs = []
    for i in range(1 if args.mode == "pogs" else 2):
        prior = (args.prior1, args.prior2)[i]
        if prior is None:
            raise ValueError(
                f"no period prior for component {i + 1}: fault characteristic "
                "frequencies (or periods) are required prior information; pass "
                "--period1/--period2 or --freq1/--freq2 together with --fs"
            )
        if "fault_freq_hz" in prior:
            if args.fs is None:
                raise ValueError("--fs (sample rate) is required with fault frequencies")
            prior = {**prior, "sample_rate_hz": args.fs}
        # a single --n1 or --m value serves both components
        specs.append(PeriodSpec(**prior, n1=(args.n1 * 2)[i], m=(args.m * 2)[i]))
    return specs


def _solver_config(y, args, specs, eta):
    """The solver config of one rtea run of extract or bench-eta."""
    return default_config(
        y, *specs, eta=eta, a0_fraction=args.a0_fraction,
        family=args.penalty, max_iter=args.max_iter, tol=args.tol,
    )


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
    if args.lam is not None and args.mode != "pogs":
        raise ValueError(
            f"--lam applies to --mode pogs only; --mode {args.mode} sets its "
            "weights from --eta and the noise estimate"
        )
    y, truth = _read_observation(args.input)
    specs = _periods(args)
    sigma = estimate_sigma(y)
    out = args.out
    os.makedirs(out, exist_ok=True)
    manifest = {
        "command": "extract",
        "mode": args.mode,
        "input": {"path": args.input, "sha256": fileio.sha256_file(args.input)},
        "sigma_hat": sigma,
        "settings": {name: getattr(args, name) for name in ("eta", *SETTINGS)},
        "periods": [_period_snapshot(spec) for spec in specs],
        "metrics": {},
    }

    if args.mode == "pogs":
        (spec1,) = specs
        b = build_weight_array(spec1)
        lam = args.lam
        if lam is None:
            lam = beta_lookup(spec1.n1, spec1.m) * _lambda_scale(sigma)
        x, cost_hist, iterations, converged = pogs_solve(
            y, b, lam, PenaltySpec(family=args.penalty, a=0.0),
            max_iter=args.max_iter, tol=args.tol, full_output=True,
        )
        columns = {"x1": x, "residual": y - x}
        notes = [f"lambda = {lam:.6g}"]
        manifest["config"] = {"lam": lam, "b": _mask_snapshot(b)}
    else:
        if args.eta >= 0.9:
            print(
                f"warning: eta = {args.eta} puts almost all weight on the "
                "combined-sparsity term; the two components tend to collapse onto "
                "each other (x1 == x2) and the decomposition degrades",
                file=sys.stderr,
            )
        solver_cfg = _solver_config(y, args, specs, args.eta)
        result = rtea_solve(y, solver_cfg)
        notes = [
            f"lambda0 = {solver_cfg.lam0:.6g}, lambda1 = {solver_cfg.lam1:.6g}, "
            f"lambda2 = {solver_cfg.lam2:.6g}"
        ]
        if solver_cfg.lam0 > 0:
            # SolverConfig has refused an a0 at or above the bound
            _, bound = check_convexity(solver_cfg.k0, solver_cfg.lam0, solver_cfg.pen0.a)
            notes.append(
                f"convexity bound 1/(k0*lam0) = {bound:.6g}, "
                f"a0 = {solver_cfg.pen0.a:.6g} (ok)"
            )
        else:
            notes.append("convexity bound: not applicable (lam0 = 0)")
        cost_hist, iterations, converged = (
            result.cost_history, result.iterations, result.converged
        )
        columns = {"x1": result.x1, "x2": result.x2, "residual": result.residual}
        manifest["config"] = _config_snapshot(solver_cfg)
        if truth is not None:
            x1t, x2t = truth
            manifest["metrics"].update(
                rmse_x1=rmse(result.x1, x1t),
                rmse_x2=rmse(result.x2, x2t),
                baseline_rmse_y_x1=rmse(y, x1t),
                baseline_rmse_y_x2=rmse(y, x2t),
            )
    print(f"sigma_hat = {sigma:.6g}", *notes, sep="\n")
    print(f"iterations = {iterations} ({'converged' if converged else 'not converged'})")

    components_path = os.path.join(out, "components.csv")
    fileio.write_columns_csv(components_path, {"index": np.arange(y.size), **columns})
    cost_path = os.path.join(out, "cost.csv")
    fileio.write_columns_csv(
        cost_path,
        {"iteration": np.arange(cost_hist.size), "cost": cost_hist},
    )
    manifest["metrics"].update(
        final_cost=float(cost_hist[-1]), iterations=iterations, converged=converged
    )
    manifest["outputs"] = {"components": components_path, "cost": cost_path}
    manifest["timestamp"] = fileio.utc_timestamp()
    fileio.write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"wrote {components_path}")
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
        peaks = find_peaks(
            spec, tuple(args.band), n_harmonics=args.n_harmonics, tol_hz=args.tol_hz
        )
        fundamental, score = peaks.fundamental_hz, peaks.harmonic_score
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
            "harmonics_found": peaks.harmonics_found,
            "peaks": [{"freq_hz": f, "magnitude": g} for f, g in peaks.peaks[: args.max_peaks]],
        }
        report["outputs"][name] = path
        if fundamental is None:
            print(f"{name}: no peaks in band")
        else:
            print(
                f"{name}: fundamental {fundamental:.4g} Hz, "
                f"harmonic score {score:.2f}, rms {rms:.4g}"
            )
    report["timestamp"] = fileio.utc_timestamp()
    peaks_path = os.path.join(out, "peaks.json")
    fileio.write_json(peaks_path, report)
    print(f"wrote {peaks_path}")
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
    specs = _periods(args)
    x1t, x2t = truth
    rows = {"eta": [], "rmse_x1": [], "rmse_x2": [], "rmse_sum": []}
    for eta in args.etas:
        res = rtea_solve(y, _solver_config(y, args, specs, eta))
        rows["eta"].append(eta)
        rows["rmse_x1"].append(rmse(res.x1, x1t))
        rows["rmse_x2"].append(rmse(res.x2, x2t))
        rows["rmse_sum"].append(rmse(res.x1 + res.x2, x1t + x2t))
        print(
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
            "etas": args.etas,
            **{name: getattr(args, name) for name in SETTINGS},
            "periods": [_period_snapshot(spec) for spec in specs],
            "outputs": {"sweep": sweep_path},
            "timestamp": fileio.utc_timestamp(),
        },
    )
    print(f"wrote {sweep_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Prior(argparse.Action):
    """``--periodN`` and ``--freqN`` store ``{PeriodSpec keyword: value}`` into
    one destination, so the last prior given for a component wins."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, {self.const: value})


def _comma_list(convert, ok, expected):
    """An argparse type: a comma list of ``convert``-ed values passing ``ok``."""

    def parse(text):
        try:
            values = [convert(v) for v in text.split(",") if v.strip()]
        except ValueError:
            values = []
        if not values or not ok(values):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return values

    return parse


def _fraction(text):
    """An argparse type: a float in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1), got {text!r}")
    return value


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

    # the settings extract and bench-eta share: the ones a --config file sets
    s = argparse.ArgumentParser(add_help=False)
    for i in (1, 2):
        s.add_argument(f"--period{i}", dest=f"prior{i}", action=_Prior,
                       const="period_samples", type=float, metavar="SAMPLES",
                       help=f"period of component {i} [samples]")
        s.add_argument(f"--freq{i}", dest=f"prior{i}", action=_Prior,
                       const="fault_freq_hz", type=float, metavar="HZ",
                       help=f"fault frequency {i} [Hz]; the last --period{i}/--freq{i} wins")
    s.add_argument("--fs", type=float, default=None, help="sample rate [Hz]")
    per_component = _comma_list(int, lambda v: len(v) <= 2,
                                "an integer or two comma-separated integers")
    s.add_argument("--n1", type=per_component, default="3",
                   help="ones-run (group) length, or 'a,b' per component, default 3")
    s.add_argument("--m", type=per_component, default="4",
                   help="periods spanned by the mask, or 'a,b' per component, default 4")
    s.add_argument("--a0-fraction", dest="a0_fraction", type=_fraction, default=0.5,
                   help="coupling concavity as a fraction of the convexity bound, default 0.5")
    s.add_argument("--penalty", choices=FAMILIES, default="atan",
                   help="penalty family for the coupling term, default atan")
    s.add_argument("--max-iter", type=int, default=200)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--config", default=None,
                   help="JSON config file whose keys set these flags; flags given override it")
    s.add_argument("--out", default=DEFAULT_OUT)

    e = sub.add_parser("extract", parents=[s], help="run the decomposition on a CSV signal")
    e.add_argument("input", help="CSV with a 'y' column (or a single column)")
    e.add_argument("--mode", choices=("rtea", "pogs"), default="rtea")
    e.add_argument("--eta", type=_fraction, default=0.5,
                   help="sparsity balance in [0,1), default 0.5; 0 drops the coupling term")
    e.add_argument("--lam", type=float, default=None,
                   help="pogs mode only: regularization weight (default beta*sigma_hat)")
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

    b = sub.add_parser("bench-eta", parents=[s],
                       help="sweep eta and tabulate RMSE against ground truth")
    b.add_argument("input", help="CSV with y and x1_true/x2_true columns")
    b.add_argument("--etas", type=_comma_list(float, lambda v: all(0 < e < 1 for e in v),
                                              "a comma list of values in (0, 1)"),
                   default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    b.set_defaults(mode="rtea", func=cmd_bench_eta)

    return parser


def _config_flags(path, command) -> list[str]:
    """A JSON config file's settings as ``--flag=value`` tokens."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: a config file holds one JSON object")
    unknown = set(cfg) - set(CONFIG_FLAGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "period_samples" in cfg and "fault_freq_hz" in cfg:
        raise ValueError("give either period_samples or fault_freq_hz in a config file, not both")
    if command == "bench-eta":
        cfg.pop("eta", None)  # the sweep's --etas sets eta

    def text(value):
        # a string as it is, a 2-list as "a,b", anything else as JSON, so
        # null reads "null" and fails to parse like any other bad value
        if isinstance(value, list):
            return ",".join(map(json.dumps, value))
        return value if isinstance(value, str) else json.dumps(value)

    tokens = []
    for key, value in cfg.items():
        flags = CONFIG_FLAGS[key]
        if isinstance(value, list) and len(value) != 2:
            raise ValueError(f"{key} must be a scalar or a 2-element list")
        if isinstance(flags, str):
            tokens.append(f"{flags}={text(value)}")
        else:
            values = value if isinstance(value, list) else [value, value]
            tokens += [f"{flag}={text(v)}" for flag, v in zip(flags, values)]
    return tokens


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the file's settings go in right after the command name, so a
            # flag given on the command line comes later and wins
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.config, args.command)
            args = parser.parse_args(argv)
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
