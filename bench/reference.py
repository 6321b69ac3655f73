"""Reference optima of every warm record, and the command that remakes them.

    python3 bench/reference.py [--workload NAME ...]

rewrites ``bench/reference.json``.  Each optimum is the lowest objective
value reached by the package's own majorize-minimize map, accelerated
with SQUAREM (Varadhan & Roland 2008, scheme S3) and safeguarded so that
the cost never rises.  The problem is strictly convex, so the limit is
the unique optimum; the acceleration gets there in 10^2 to 10^4 map
evaluations, where plain iterations would take ~10^5.  The cost is the
benchmark's own evaluation (``objective.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from rtea import combined_majorizer_weights, majorizer_weights  # noqa: E402

from api import Problem  # noqa: E402
from objective import objective  # noqa: E402
from workloads import WORKLOADS, make_record  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"
# stop once STALL_CYCLES cycles have gained less than STALL_RTOL together
STALL_CYCLES = 30
STALL_RTOL = 1e-12
MAX_CYCLES = 20000


class StaleReference(RuntimeError):
    """The stored entry is for another record or other weights."""


def record_digest(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y, dtype="<f8").tobytes()).hexdigest()


def lambdas(p: Problem) -> list[float]:
    lams = [] if p.coupling is None else [p.coupling[0]]
    return [float(v) for v in lams + [g[0] for g in p.groups]]


def mm_map(p: Problem):
    """One majorize-minimize step on the stacked components."""
    y, n = p.y, p.y.size
    if p.coupling is None:
        lam, b, spec = p.groups[0]
        return lambda x: y / (1.0 + lam * majorizer_weights(x, b, spec))
    lam0, k0, pen0 = p.coupling
    (lam1, b1, pen1), (lam2, b2, pen2) = p.groups

    def step(x):
        x1, x2 = x[:n], x[n:]
        t = 1.0 + lam0 * combined_majorizer_weights(x1 + x2, k0, pen0)
        p1 = 2.0 * t + lam1 * majorizer_weights(x1, b1, pen1)
        p2 = 2.0 * t + lam2 * majorizer_weights(x2, b2, pen2)
        return np.concatenate([(y + t * (x1 - x2)) / p1, (y + t * (x2 - x1)) / p2])

    return step


def optimum(p: Problem) -> tuple[float, int]:
    """Lowest cost reached by safeguarded SQUAREM, and the map evaluations."""
    n = p.y.size
    k = len(p.groups)
    terms = p.objective_terms()
    step = mm_map(p)

    def cost(x):
        return objective(p.y, tuple(x[i * n : (i + 1) * n] for i in range(k)), terms)

    x = np.tile(p.y, k)
    best = [cost(x)]
    evals = 0
    for _ in range(MAX_CYCLES):
        x1 = step(x)
        x2 = step(x1)
        r = x1 - x
        v = x2 - x1 - r
        evals += 2
        nv = float(np.linalg.norm(v))
        alpha = -1.0 if nv == 0.0 else min(-1.0, -float(np.linalg.norm(r)) / nv)
        xn = step(x - 2.0 * alpha * r + alpha * alpha * v)
        evals += 1
        c2, cn = cost(x2), cost(xn)
        x, c = (xn, cn) if np.isfinite(cn) and cn <= c2 else (x2, c2)
        best.append(min(best[-1], c))
        if len(best) > STALL_CYCLES and best[-STALL_CYCLES - 1] - best[-1] <= STALL_RTOL * best[-1]:
            break
    return best[-1], evals


def compute(w) -> list[dict]:
    out = []
    for index in range(w.warm):
        rec = make_record(w, index)
        p = Problem(w, rec.y)
        value, evals = optimum(p)
        out.append(
            {
                "index": index,
                "y_sha256": record_digest(rec.y),
                "lambdas": lambdas(p),
                "optimum": value,
                "map_evals": evals,
            }
        )
        print(f"{w.name} #{index}: optimum {value!r} ({evals} map evaluations)", flush=True)
    return out


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def lookup(ref: dict, w, index: int, rec, p: Problem) -> float:
    """Stored optimum of warm record ``index``; refuses a stale entry."""
    entry = ref[w.name][index]
    if entry["index"] != index or entry["y_sha256"] != record_digest(rec.y):
        raise StaleReference(
            f"{w.name} record {index} differs from the one in {REFERENCE_PATH.name}; "
            "rerun python3 bench/reference.py"
        )
    if not np.allclose(entry["lambdas"], lambdas(p), rtol=1e-12, atol=0.0):
        raise StaleReference(
            f"{w.name} record {index}: the program now chooses other weights than "
            f"those of {REFERENCE_PATH.name}; rerun python3 bench/reference.py"
        )
    return float(entry["optimum"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    ref = load() if REFERENCE_PATH.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        ref[name] = compute(WORKLOADS[name])
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
