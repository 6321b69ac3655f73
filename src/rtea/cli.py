"""Command-line front end: synthesize signals, run extraction, analyze
components and sweep the sparsity-balance parameter.

Exit codes: 0 success, 2 invalid arguments (out of memory included),
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, fileio
from ._checks import _as_signal
from .analysis import _rms, envelope_spectrum, find_peaks, rmse
from .penalties import FAMILIES, PenaltySpec
from .params import PeriodSpec, _config, _pogs_lam, build_weight_array, estimate_sigma
from .solver import NumericalError, SolverConfig, check_convexity, pogs_solve, rtea_solve
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
# The solver settings of each extract and bench-eta record, beside its eta
# (extract) or etas (bench-eta).
SETTINGS = ("a0_fraction", "penalty", "max_iter", "tol")


def _env_seed(value):
    """``--seed`` if given, else ``$RTEA_SEED`` parsed as ``--seed`` is."""
    if value is not None:
        return value
    try:
        return _count(os.environ.get("RTEA_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"RTEA_SEED: {exc}") from None


# ---------------------------------------------------------------------------
# output: every command ends here, after all of its checks, so a refused
# run leaves no --out directory (the atomic writer makes it)


def _json_safe(value):
    """``value`` with every non-finite float (an open band edge, an overflow)
    replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_run(out, name, command, tables, settings, **results) -> None:
    """Write ``tables``, ``{key: (file name, columns)}``, as CSV files in
    ``out``, then the run record ``out/name``: ``results``, the run's
    ``settings``, the path and SHA-256 digest of each table written under
    ``outputs``, the command, the time and the versions that ran; print the
    paths written."""
    outputs = {}
    for key, (file_name, columns) in tables.items():
        path = os.path.join(out, file_name)
        outputs[key] = {"path": path, "sha256": fileio.write_columns_csv(path, columns)}
    record = {**results, "settings": settings, "outputs": outputs, "command": command,
              "timestamp": fileio.utc_timestamp(), "versions": {
                  "python": sys.version.split()[0], "numpy": np.__version__,
                  "rtea": __version__}}
    path = os.path.join(out, name)
    fileio.write_json(path, _json_safe(record))
    print("wrote", ", ".join([*(entry["path"] for entry in outputs.values()), path]))


def _read_input(path):
    """The columns of the CSV at ``path`` and the record's ``input`` entry,
    whose digest is of the bytes parsed, read before the run writes
    anything (its output may replace the input)."""
    cols, digest = fileio.read_columns_csv_sha256(path)
    return cols, {"path": path, "sha256": digest}


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    seed = _env_seed(args.seed)
    # named as gen_mixture takes them; the length is n_samples there and n in truth.json
    params = {"t1": args.t1, "t2": args.t2, "sigma": args.sigma,
              "transient_len": args.transient_len, "jitter_pct": args.jitter,
              "modulation_freq_hz": args.modulation_freq, "sample_rate_hz": args.fs}
    mix = gen_mixture(n_samples=args.n, seed=seed, **params)
    columns = {"index": np.arange(args.n), "y": mix.y, "x1_true": mix.x1,
               "x2_true": mix.x2, "w": mix.noise}
    _write_run(
        args.out, "truth.json", "generate", {"signal": ("signal.csv", columns)},
        {"n": args.n, **params}, seed=seed, child_seeds=list(mix.seeds),
        onsets1=mix.onsets1.tolist(), onsets2=mix.onsets2.tolist(),
    )
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


def _solver_config(sigma, args, specs, eta):
    """The solver config of one rtea run of extract or bench-eta, at the
    run's one noise estimate ``sigma``."""
    return _config(sigma, *specs, eta, args.a0_fraction, args.penalty, args.max_iter, args.tol)


def _column(path, cols, name):
    """Column ``name`` of the CSV at ``path``, through the package's signal
    check, which every column the CLI computes on passes.  Every command
    needs two samples: the noise estimate and the spectrum do."""
    try:
        return _as_signal(cols[name], name, min_size=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_observation(path):
    """``y``, ``{i: xi_true}`` for each truth column present, and the
    record's ``input`` entry."""
    cols, source = _read_input(path)
    if "y" not in cols:
        raise ValueError(
            f"{path}: expected a 'y' column (or a single-column CSV), got columns {list(cols)!r}"
        )
    y = _column(path, cols, "y")
    truth = {i: _column(path, cols, f"x{i}_true") for i in (1, 2) if f"x{i}_true" in cols}
    return y, truth, source


def _warn_unconverged(result, args, label=""):
    """The one warning of a solve that ends at --max-iter before --tol holds."""
    if not result.converged:
        print(f"warning: {label}not converged within --max-iter {args.max_iter} "
              f"iterations (--tol {args.tol})", file=sys.stderr)


def cmd_extract(args) -> int:
    if args.lam is not None and args.mode != "pogs":
        raise ValueError(
            f"--lam applies to --mode pogs only; --mode {args.mode} sets its "
            "weights from --eta and the noise estimate"
        )
    y, truth, source = _read_observation(args.input)
    specs = _periods(args)
    sigma = estimate_sigma(y)
    if args.mode == "pogs":
        (spec1,) = specs
        b = build_weight_array(spec1)
        lam = _pogs_lam(sigma, spec1) if args.lam is None else args.lam
        # its one penalty has a = 0, where every family is abs
        pen = PenaltySpec()
        result = pogs_solve(y, b, lam, pen, max_iter=args.max_iter, tol=args.tol)
        notes = [f"lambda = {lam:.6g}"]
        config = {"lam": lam, "penalty": pen.family, "b": _mask_snapshot(b)}
    else:
        if args.eta >= 0.9:
            print(
                f"warning: eta = {args.eta} puts almost all weight on the "
                "combined-sparsity term; the two components tend to collapse onto "
                "each other (x1 == x2) and the decomposition degrades",
                file=sys.stderr,
            )
        solver_cfg = _solver_config(sigma, args, specs, args.eta)
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
        config = _config_snapshot(solver_cfg)
    metrics = {"final_cost": result.final_cost, "iterations": result.iterations,
               "converged": result.converged}
    # each solved component with its own truth column (pogs solves x1 only)
    for i, x in enumerate(result.xs, 1):
        if i in truth:
            metrics[f"rmse_x{i}"] = rmse(x, truth[i])
            metrics[f"baseline_rmse_y_x{i}"] = rmse(y, truth[i])
    state = "converged" if result.converged else "not converged"
    print(f"sigma_hat = {sigma:.6g}", *notes, sep="\n")
    print(f"iterations = {result.iterations} ({state})")
    _warn_unconverged(result, args)

    columns = dict(zip(("x1", "x2"), result.xs), residual=result.residual)
    costs = result.cost_history
    _write_run(
        args.out, "manifest.json", "extract", {
            "components": ("components.csv", {"index": np.arange(y.size), **columns}),
            "cost": ("cost.csv", {"iteration": np.arange(costs.size), "cost": costs}),
        }, {name: getattr(args, name) for name in ("eta", *SETTINGS)},
        input=source, mode=args.mode, sigma_hat=sigma, config=config, metrics=metrics,
        periods=[_period_snapshot(spec) for spec in specs],
    )
    return 0


def _period_snapshot(spec: PeriodSpec) -> dict:
    # period_samples is the period either way, also one derived from a fault frequency
    return {**asdict(spec), "period_samples": spec.period, "period_int": spec.period_int}


def _mask_snapshot(b) -> dict:
    return {**asdict(b), "length": len(b)}


def _config_snapshot(cfg) -> dict:
    pens = (cfg.pen0, cfg.pen1, cfg.pen2)
    return {
        **{f"a{i}": pen.a for i, pen in enumerate(pens)},
        **{f"penalty{i}": pen.family for i, pen in enumerate(pens)},
        "lam0": cfg.lam0, "lam1": cfg.lam1, "lam2": cfg.lam2, "eps": cfg.pen0.eps,
        "k0": cfg.k0, "b1": _mask_snapshot(cfg.b1), "b2": _mask_snapshot(cfg.b2),
        "max_iter": cfg.max_iter, "tol": cfg.tol,
    }


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    cols, source = _read_input(args.input)
    names = [n for n in ("x1", "x2") if n in cols]
    if not names:
        if "y" in cols:
            names = ["y"]
        else:
            raise ValueError(
                f"{args.input}: no x1/x2/y columns to analyze, got columns {list(cols)!r}"
            )
    xs = {name: _column(args.input, cols, name) for name in names}
    spectrum = {"fs": args.fs, "nfft": args.nfft, "smooth_hz": args.smooth_hz}
    search = {"band_hz": tuple(args.band), "n_harmonics": args.n_harmonics,
              "tol_hz": args.tol_hz}
    tables, components = {}, {}
    for name, x in xs.items():
        spec = envelope_spectrum(x, **spectrum)
        tables[name] = (f"spectrum_{name}.csv", {"freq_hz": spec.freqs_hz,
                                                 "magnitude": spec.magnitude,
                                                 "smoothed": spec.smoothed})
        peaks = find_peaks(spec, **search)
        fundamental, score = peaks.fundamental_hz, peaks.harmonic_score
        rms = _rms(x)
        components[name] = {
            "rms": rms,
            "fundamental_hz": fundamental,
            "harmonic_score": score,
            "harmonics_found": peaks.harmonics_found,
            "peaks": [{"freq_hz": f, "magnitude": g} for f, g in peaks.peaks[: args.max_peaks]],
        }
        if fundamental is None:
            print(f"{name}: no peaks in band")
        else:
            print(
                f"{name}: fundamental {fundamental:.4g} Hz, "
                f"harmonic score {score:.2f}, rms {rms:.4g}"
            )
    _write_run(args.out, "peaks.json", "analyze", tables, {**spectrum, **search},
               input=source, components=components)
    return 0


# ---------------------------------------------------------------------------
# bench-eta


def cmd_bench_eta(args) -> int:
    y, truth, source = _read_observation(args.input)
    if len(truth) < 2:
        raise ValueError(
            f"{args.input}: ground-truth columns x1_true/x2_true are required "
            "for the eta sweep"
        )
    specs = _periods(args)
    sigma = estimate_sigma(y)
    x1t, x2t = truth[1], truth[2]
    rows, iterations, converged = [], [], []
    for eta in args.etas:
        res = rtea_solve(y, _solver_config(sigma, args, specs, eta))
        _warn_unconverged(res, args, f"eta = {eta}: ")
        iterations.append(res.iterations)
        converged.append(res.converged)
        rmses = {"rmse_x1": rmse(res.x1, x1t), "rmse_x2": rmse(res.x2, x2t),
                 "rmse_sum": rmse(res.x1 + res.x2, x1t + x2t)}
        rows.append({"eta": eta, **rmses})
        print(f"eta = {eta:.3f}: " + ", ".join(f"{k} = {v:.5g}" for k, v in rmses.items()))
    columns = {k: np.asarray([row[k] for row in rows]) for k in rows[0]}
    _write_run(
        args.out, "eta_sweep.json", "bench-eta", {"sweep": ("eta_sweep.csv", columns)},
        {name: getattr(args, name) for name in ("etas", *SETTINGS)},
        input=source, iterations=iterations, converged=converged,
        periods=[_period_snapshot(spec) for spec in specs],
    )
    return 0


# ---------------------------------------------------------------------------
# parser


class _Prior(argparse.Action):
    """``--periodN`` and ``--freqN`` store ``{PeriodSpec keyword: value}`` into
    one destination, so the last prior given for a component wins."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, {self.const: value})


def _checked(convert, ok, expected):
    """An argparse type: ``convert(text)`` if it converts and passes ``ok``,
    else a refusal naming the ``expected`` value."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _comma_list(convert, ok, expected):
    """An argparse type: a nonempty comma list of ``convert``-ed values passing ``ok``."""
    return _checked(lambda text: [convert(v) for v in text.split(",") if v.strip()],
                    lambda values: values and ok(values), expected)


_fraction = _checked(float, lambda v: 0 <= v < 1, "a value in [0, 1)")
_count = _checked(int, lambda v: v >= 0, "an integer >= 0")


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
    g.add_argument("--seed", type=_count, default=None, help="seed (default: $RTEA_SEED or 0)")
    g.add_argument("--transient-len", type=int, default=10)
    g.add_argument("--jitter", type=float, default=0.0, help="onset jitter in %% of period")
    g.add_argument("--modulation-freq", type=float, default=None,
                   help="amplitude-modulation frequency for train 2 (needs --fs)")
    g.add_argument("--fs", type=float, default=None, help="sample rate in Hz")
    g.add_argument("--out", default=DEFAULT_OUT, help="output directory (default ./%(default)s)")
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
                   help="ones-run (group) length, or 'a,b' per component, default %(default)s")
    s.add_argument("--m", type=per_component, default="4",
                   help="periods spanned by the mask, or 'a,b' per component, default %(default)s")
    s.add_argument("--a0-fraction", type=_fraction, default=0.5, help="coupling concavity "
                   "as a fraction of the convexity bound, default %(default)s")
    s.add_argument("--penalty", choices=FAMILIES, default="atan",
                   help="penalty family for the coupling term, default %(default)s")
    s.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, help="budget of map "
                   "evaluations (three per accelerated cycle), default %(default)s")
    s.add_argument("--tol", type=float, default=SolverConfig.tol, help="stop when the "
                   "relative change of the cost in a plain step is at most this")
    s.add_argument("--config", default=None,
                   help="JSON config file whose keys set these flags; flags given override it")
    s.add_argument("--out", default=DEFAULT_OUT)

    e = sub.add_parser("extract", parents=[s], help="run the decomposition on a CSV signal")
    e.add_argument("input", help="CSV with a 'y' column (or a single column)")
    e.add_argument("--mode", choices=("rtea", "pogs"), default="rtea")
    e.add_argument("--eta", type=_fraction, default=0.5, help="sparsity balance in [0,1), "
                   "default %(default)s; 0 drops the coupling term")
    e.add_argument("--lam", type=float, default=None,
                   help="pogs mode only: regularization weight (default beta*sigma_hat)")
    e.set_defaults(func=cmd_extract)

    a = sub.add_parser("analyze", help="envelope spectra and peak report for components")
    a.add_argument("input", help="components CSV (x1/x2 columns) or any signal CSV")
    a.add_argument("--fs", type=float, required=True, help="sample rate [Hz]")
    a.add_argument("--band", type=float, nargs=2, default=(5.0, 500.0),
                   metavar=("LO", "HI"), help="search band [Hz]; inf or -inf leaves a side open")
    # argparse reads "-inf" as an unknown option unless it counts as a negative number
    a._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf$)")
    a.add_argument("--nfft", type=int, default=None)
    a.add_argument("--smooth-hz", type=float, default=2.0)
    a.add_argument("--n-harmonics", type=int, default=5)
    a.add_argument("--tol-hz", type=float, default=None)
    a.add_argument("--max-peaks", type=_count, default=10)
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
    """A JSON config file's settings as ``--flag=value`` tokens; an error
    names the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return _config_tokens(json.load(fh), command)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _config_tokens(cfg, command) -> list[str]:
    if not isinstance(cfg, dict):
        raise ValueError("a config file holds one JSON object")
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
    except MemoryError as exc:
        # every allocation seen to fail came from a setting (--n, --nfft)
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
