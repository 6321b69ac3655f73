"""rtea benchmark: cold CLI runs and warm in-process solves on seeded records.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ./src
without installing it.  The run repeats whole rounds, at least two, until
the next one would overrun ``--seconds``.  A round is, in this order: one cold
``setup`` child, one cold ``python -m rtea extract`` child and one cold
``python -m rtea analyze`` child on the run's cold record, then a warm
default-settings solve (``solve_repeats`` of them) and a warm solve-to-tol
on each of the workload's fixed warm records.  With ``--trace 1`` each
round also times the layer probes.  One child runs at a time.  The last
line printed is the JSON result; the trace of a traced run goes to
``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 120.0
TO_TOL_MAX_ITER = 1_000_000
PROBE_REPEATS = 5


def fail(msg: str) -> NoReturn:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


if not (SRC / "rtea" / "__init__.py").is_file():
    fail(f"no package source at {SRC / 'rtea'}; run from the root of an rtea checkout")
sys.path.insert(0, str(SRC))
# BLAS on one thread, here and in every child.  The solvers' per-iteration
# np.dot over 12 800 samples otherwise runs on OpenBLAS's second thread,
# which waits whenever another process holds the other core: with one busy
# loop beside it a warm pogs solve took 0.26-0.54 s instead of 0.19 s, so
# timings would follow the neighbours' load.  Must precede importing numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import rtea  # noqa: E402
from rtea import (  # noqa: E402
    combined_majorizer_weights,
    envelope_spectrum,
    fileio,
    find_peaks,
    group_penalty,
    majorizer_denom,
    majorizer_weights,
    smoothed_penalty,
)

if Path(rtea.__file__).resolve().parent != (SRC / "rtea").resolve():
    fail(f"imported rtea from {rtea.__file__}, not from {SRC}")

import reference  # noqa: E402
from api import POGS_PENALTY, Problem, dense_mask, read_y  # noqa: E402
from checks import Checks, rmse  # noqa: E402
from objective import window_sums  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, make_record  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run_child(args: list[str], log: Path):
    """Run one child to its end; returns (exit code, resource usage)."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(args, stdout=fh, stderr=subprocess.STDOUT, env=CHILD_ENV, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def write_record_csv(path: Path, y: np.ndarray) -> None:
    lines = ["index,y"] + [f"{i},{float(v)!r}" for i, v in enumerate(y)]
    path.write_text("\n".join(lines) + "\n")


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


class Run:
    def __init__(self, w, seed: int, trace: bool):
        self.w = w
        self.rec = Recorder(trace)
        self.checks = Checks()
        self.attempted = 0
        self.failed = 0
        self.ref = reference.load()
        rng = np.random.default_rng(seed)
        self.cold_index = w.warm + int(rng.integers(w.pool - w.warm))
        self.warm_order = [int(i) for i in rng.permutation(w.warm)]
        self.work = OUT / f"{w.name}-s{seed}-p{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.records: dict[int, tuple] = {}
        self.values: dict[str, list[float]] = {}
        # warm solve times per span name and record
        self.warm_times: dict[str, dict[int, list[float]]] = {}
        # mean component RMSE against the truth, per record solved
        self.rmse: dict[int, float] = {}
        self.first_components: bytes | None = None

    def note(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def record(self, index: int):
        """(record, problem, reference optimum or None) of pooled record ``index``;
        only the warm records have a stored optimum."""
        if index not in self.records:
            rec = make_record(self.w, index)
            p = Problem(self.w, rec.y)
            opt = reference.lookup(self.ref, self.w, index, rec, p) if index < self.w.warm else None
            self.records[index] = (rec, p, opt)
        return self.records[index]

    # -- set-up: the cold record's CSV and a warm-up of the in-process path

    def prepare(self) -> None:
        self.cold_rec = self.record(self.cold_index)[0]
        self.cold_csv = self.work / "record.csv"
        write_record_csv(self.cold_csv, self.cold_rec.y)
        self.record(self.cold_index)[1].solve(max_iter=3)
        for i in self.warm_order:
            self.record(i)

    # -- cold children

    def child(self, name: str, args: list[str]):
        log = self.work / f"{name}.log"
        self.attempted += 1
        with self.rec.span(name):
            code, usage = run_child(args, log)
        if code != 0:
            self.failed += 1
            print(f"bench: {name} exited {code}; see {log}", file=sys.stderr)
        return code == 0, usage

    def setup(self) -> None:
        self.child("setup", [sys.executable, str(HERE / "probe_setup.py"), str(self.cold_csv), self.w.name])

    def extract(self) -> None:
        out = self.work / "extract"
        args = [sys.executable, "-m", "rtea", "extract", str(self.cold_csv), *self.w.extract_flags, "--out", str(out)]
        ok, usage = self.child("extract", args)
        if not ok:
            return
        self.note("peak_rss_mb", usage.ru_maxrss / 1024.0)
        data = (out / "components.csv").read_bytes()
        if self.first_components is None:
            self.first_components = data
            xs = self.checks.extract_outputs("extract", self.cold_rec.y, self.cold_rec.truth, out, POGS_PENALTY)
            self.rmse[self.cold_index] = float(np.mean([rmse(x, t) for x, t in zip(xs, self.cold_rec.truth)]))
            self.note("bytes_written", len(data))
        else:
            self.checks.expect(data == self.first_components, "extract: components.csv differs between cold runs")

    def analyze(self) -> None:
        out = self.work / "analyze"
        src = self.work / "extract" / "components.csv"
        ok, _ = self.child("analyze", [sys.executable, "-m", "rtea", "analyze", str(src), *self.w.analyze_flags, "--out", str(out)])
        if ok:
            self.checks.peaks("analyze", out / "peaks.json", self.w.fault_freqs_hz, self.w.fs, self.w.n)

    # -- warm in-process solves

    def timed_solve(self, index: int, name: str, max_iter: int | None = None):
        self.attempted += 1
        with self.rec.span(name):
            sol = self.record(index)[1].solve(max_iter)
        self.warm_times.setdefault(name, {}).setdefault(index, []).append(self.rec.samples[name][-1])
        return sol

    def solve(self, index: int):
        rec, p, opt = self.record(index)
        tag = f"record {index}"
        for _ in range(self.w.solve_repeats):
            sol = self.timed_solve(index, "solve")
            self.note("ms_per_iter", 1e3 * self.rec.samples["solve"][-1] / sol.iterations)
            residual = rec.y - np.sum(sol.xs, axis=0)
            self.checks.solution(tag, rec.y, sol.xs, residual, sol.costs, p.objective_terms(), rec.truth)
        tol = self.timed_solve(index, "solve_to_tol", TO_TOL_MAX_ITER)
        gap = (float(sol.costs[-1]) - opt) / opt
        self.note("gap_at_stop", gap)
        self.note("gap_at_tol", self.checks.to_tol(tag + " to tol", tol, opt, gap))
        self.note("iterations", sol.iterations)
        self.note("iterations_to_tol", tol.iterations)
        self.rmse[index] = float(np.mean([rmse(x, t) for x, t in zip(sol.xs, rec.truth)]))
        return rec, p, sol

    # -- layer probes (traced run only)

    def probes(self, rec, p, sol) -> None:
        w, span = self.w, self.rec.span
        self.child("cli.import", [sys.executable, "-c", "import rtea"])
        self.note("bytes_read", self.cold_csv.stat().st_size)
        total = np.sum(sol.xs, axis=0)
        # pogs has no sum term: its plain-group probe uses the mask's run length
        _, k0, pen0 = p.coupling or (None, p.groups[0][1].n1, p.groups[0][2])
        columns = {"index": np.arange(w.n), **{f"x{i + 1}": x for i, x in enumerate(sol.xs)}}
        columns["residual"] = rec.y - total
        probe_csv = str(self.work / "probe_components.csv")
        for _ in range(PROBE_REPEATS):
            self.attempted += 4
            with span("fileio.read"):
                read_y(str(self.cold_csv))
            with span("fileio.write"):
                fileio.write_columns_csv(probe_csv, columns)
            with span("params.config"):
                Problem(w, rec.y)
            with span("regularizers.coupling_weights"):
                combined_majorizer_weights(total, k0, pen0)
            for x, (_, b, pen) in zip(sol.xs, p.groups):
                self.attempted += 5
                u = np.sqrt(window_sums(x, dense_mask(b)))
                with span("penalties.eval"):
                    smoothed_penalty(u, pen)
                    majorizer_denom(u, pen)
                with span("regularizers.penalty"):
                    group_penalty(x, b, pen)
                with span("regularizers.weights"):
                    majorizer_weights(x, b, pen)
                with span("analysis.envelope"):
                    spec = envelope_spectrum(x, w.fs)
                with span("analysis.peaks"):
                    find_peaks(spec, w.band_hz)

    # -- the measured loop

    def round(self) -> None:
        with self.rec.span("round"):
            self.setup()
            self.extract()
            self.analyze()
            for k, index in enumerate(self.warm_order):
                rec, p, sol = self.solve(index)
                if self.rec.trace and k == 0:
                    self.probes(rec, p, sol)

    def measure(self, seconds: float) -> int:
        start = time.perf_counter()
        longest = 0.0
        rounds = 0
        # at least two rounds: the byte-identity check compares their extracts
        while rounds < 2 or time.perf_counter() - start + longest <= seconds:
            t = time.perf_counter()
            self.round()
            longest = max(longest, time.perf_counter() - t)
            rounds += 1
        return rounds


def warm_time(run: Run, name: str) -> float:
    """Mean over the warm records of each record's median solve time."""
    return mean(median(t) for t in run.warm_times[name].values())


def end_to_end(run: Run) -> dict:
    s, v = run.rec.samples, run.values
    return {
        "setup_s": (median(s["setup"]), "s"),
        "extract_s": (median(s["extract"]), "s"),
        "analyze_s": (median(s["analyze"]), "s"),
        "solve_s": (warm_time(run, "solve"), "s"),
        "solve_to_tol_s": (warm_time(run, "solve_to_tol"), "s"),
        "peak_rss_mb": (median(v["peak_rss_mb"]), "MiB"),
        "rmse": (mean(run.rmse.values()), "amplitude"),
    }


def per_layer(run: Run) -> dict:
    s, v = run.rec.samples, run.values

    def ms(name):
        return (1e3 * median(s[name]), "ms")

    return {
        "cli.import_s": (median(s["cli.import"]), "s"),
        "fileio.read_s": (median(s["fileio.read"]), "s"),
        "fileio.write_s": (median(s["fileio.write"]), "s"),
        "fileio.bytes_read": (median(v["bytes_read"]), "bytes"),
        "fileio.bytes_written": (median(v["bytes_written"]), "bytes"),
        "params.config_ms": ms("params.config"),
        "penalties.eval_ms": ms("penalties.eval"),
        "regularizers.penalty_ms": ms("regularizers.penalty"),
        "regularizers.weights_ms": ms("regularizers.weights"),
        "regularizers.coupling_weights_ms": ms("regularizers.coupling_weights"),
        "solver.iterations": (median(v["iterations"]), "count"),
        "solver.iterations_to_tol": (median(v["iterations_to_tol"]), "count"),
        "solver.ms_per_iter": (median(v["ms_per_iter"]), "ms"),
        "solver.gap_at_stop": (median(v["gap_at_stop"]), "ratio"),
        "solver.gap_at_tol": (median(v["gap_at_tol"]), "ratio"),
        "analysis.envelope_ms": ms("analysis.envelope"),
        "analysis.peaks_ms": ms("analysis.peaks"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rtea benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        run.prepare()
        rounds = run.measure(args.seconds)
    except reference.StaleReference as exc:
        fail(str(exc))
    for msg in run.checks.failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    e2e = end_to_end(run)
    metrics = per_layer(run) if run.rec.trace else e2e
    if run.rec.trace:
        run.rec.write(OUT / f"trace-{args.workload}-s{args.seed}.json", {k: v for k, (v, _) in e2e.items()})
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, records {sorted(run.records)}", file=sys.stderr)
    if not run.checks.failures and not run.failed:
        shutil.rmtree(run.work)
    print(
        json.dumps(
            {
                "correct": not run.checks.failures,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
