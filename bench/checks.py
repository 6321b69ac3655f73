"""Output checks.  Each compares against the benchmark's own ground truth,
a property of the method, or the stored reference optimum -- never
against a stored copy of earlier outputs.  A failed check appends a
message to ``Checks.failures``; the run then reports ``correct: false``.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from objective import objective, periodic_mask

SUM_ATOL = 1e-12  # x1 + x2 + residual == y, per sample
DESCENT_RTOL = 1e-13  # cost may rise by roundoff only
COST_RTOL = 1e-9  # own objective vs the reported final cost
BELOW_OPT_RTOL = 1e-9  # no result may beat the reference optimum
PEAK_BINS = 2  # true fault frequency within two bins of a reported peak


def read_table(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def rmse(a, b) -> float:
    d = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.mean(d * d)))


def terms_from_manifest(manifest: dict, pogs_penalty) -> dict:
    """The objective the CLI says it solved, from its manifest."""
    c = manifest["config"]

    def mask(b):
        return periodic_mask(b["n1"], b["n1"] + b["n0"], b["m"])

    if manifest["mode"] == "pogs":
        family = manifest["settings"]["penalty"]
        return {"eps": pogs_penalty.eps, "groups": [(c["lam"], mask(c["b"]), family, 0.0)]}
    return {
        "lam0": c["lam0"],
        "k0": c["k0"],
        "pen0": (c["penalty0"], c["a0"]),
        "eps": c["eps"],
        "groups": [
            (c["lam1"], mask(c["b1"]), c["penalty1"], c["a1"]),
            (c["lam2"], mask(c["b2"]), c["penalty2"], c["a2"]),
        ],
    }


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def solution(self, tag, y, xs, residual, costs, terms, truth) -> None:
        """Properties every default-settings result must have."""
        err = float(np.max(np.abs(np.sum(xs, axis=0) + residual - y)))
        self.expect(err <= SUM_ATOL, f"{tag}: components + residual differ from y by {err:.3g}")
        rises = np.diff(costs) > DESCENT_RTOL * np.abs(costs[:-1])
        self.expect(not rises.any(), f"{tag}: cost rises at iteration {int(np.argmax(rises)) + 1}")
        own = objective(y, xs, terms)
        self.expect(
            abs(own - costs[-1]) <= COST_RTOL * abs(costs[-1]),
            f"{tag}: objective {own!r} at the returned components, reported {float(costs[-1])!r}",
        )
        for i, (x, t) in enumerate(zip(xs, truth)):
            got, base = rmse(x, t), rmse(y, t)
            self.expect(got < base, f"{tag}: x{i + 1} rmse {got:.4g} not below the input's {base:.4g}")

    def extract_outputs(self, tag, y, truth, out_dir, pogs_penalty) -> tuple:
        """Checks a cold ``extract``'s outputs; returns its components."""
        comp = read_table(out_dir / "components.csv")
        costs = read_table(out_dir / "cost.csv")["cost"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        xs = tuple(comp[k] for k in ("x1", "x2") if k in comp)
        terms = terms_from_manifest(manifest, pogs_penalty)
        self.solution(tag, y, xs, comp["residual"], costs, terms, truth)
        return xs

    def peaks(self, tag, peaks_path, fault_freqs, fs, n) -> None:
        report = json.loads(peaks_path.read_text())["components"]
        tol = PEAK_BINS * fs / n
        for i, f in enumerate(fault_freqs):
            found = [p["freq_hz"] for p in report[f"x{i + 1}"]["peaks"]]
            near = min((abs(g - f) for g in found), default=np.inf)
            self.expect(near <= tol, f"{tag}: x{i + 1} has no peak within {tol:g} Hz of {f:.4g} Hz")

    def to_tol(self, tag, sol, optimum, default_gap) -> float:
        """A run to tol: stopped by tol, not below the optimum, closer to it
        than the default-settings run.  Returns its relative gap."""
        gap = (float(sol.costs[-1]) - optimum) / optimum
        self.expect(sol.converged, f"{tag}: stopped by max_iter, not by tol")
        self.expect(gap >= -BELOW_OPT_RTOL, f"{tag}: cost {gap:.3g} below the reference optimum")
        self.expect(gap <= default_gap, f"{tag}: gap {gap:.3g} above the default run's {default_gap:.3g}")
        return gap
