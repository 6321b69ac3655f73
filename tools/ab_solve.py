"""Paired A/B of the warm solves of two rtea source trees, after an identity check.

    python tools/ab_solve.py PARENT_DIR CHANGE_DIR --workload NAME --rounds R

Each DIR is a source tree, e.g. one made by ``git archive REV | tar -x -C DIR``;
its package is imported from ``DIR/src``.  Both packages are loaded side by
side in this process, each behind its own copy of ``bench/api.py``, so both
solve the same problems, configured as the benchmark configures them.  The
records are ``bench/workloads.make_record``'s, from the checkout this script
sits in, imported read-only.

First, on every record of the workload's pool, both trees' ``solve()``
(default settings) and ``solve(1_000_000)`` (stopped by tol) must return the
same components and cost history, byte for byte, and the same
``iterations`` and ``converged``.  Any difference is printed and the script
exits 1 before timing anything.

Then come R rounds.  A round times, on each tree, a default-settings solve
of each warm record (``solve_repeats`` of them, as the benchmark does); the
tree that goes first alternates from round to round.  The script prints the
median of the per-round ratios change/parent, their quartiles, and the
number of rounds the change was faster.  BLAS runs on one thread, as in
``bench/run.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, as in bench/run.py

BENCH = Path(__file__).resolve().parent.parent / "bench"
TO_TOL_MAX_ITER = 1_000_000


def load_api(tree: Path, tag: str):
    """``bench/api.py`` bound to the rtea package of ``tree/src``.

    Every name api.py takes from rtea is bound when it is imported, and the
    package imports nothing at call time, so once loaded the module keeps
    its tree's package after ``sys.modules`` forgets it for the next tree.
    """
    src = tree / "src"
    if not (src / "rtea" / "__init__.py").is_file():
        raise SystemExit(f"ab_solve: no package source at {src / 'rtea'}")
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(f"ab_api_{tag}", BENCH / "api.py")
        api = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(api)
    finally:
        sys.path.remove(str(src))
        for name in [n for n in sys.modules if n == "rtea" or n.startswith("rtea.")]:
            del sys.modules[name]
    return api


def differences(a, b) -> list[str]:
    """What differs between two ``api.Solution``s, byte for byte."""
    out = []
    if len(a.xs) != len(b.xs) or any(
        x.shape != y.shape or x.tobytes() != y.tobytes() for x, y in zip(a.xs, b.xs)
    ):
        out.append("xs")
    if a.costs.shape != b.costs.shape or a.costs.tobytes() != b.costs.tobytes():
        out.append("costs")
    if a.iterations != b.iterations:
        out.append(f"iterations {a.iterations} != {b.iterations}")
    if a.converged != b.converged:
        out.append(f"converged {a.converged} != {b.converged}")
    return out


def solve_time(problems, repeats: int) -> float:
    gc.collect()
    t0 = time.perf_counter()
    for p in problems:
        for _ in range(repeats):
            p.solve()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, make_record

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds, 0 for none")
    args = parser.parse_args(argv)
    if args.rounds < 0:
        parser.error("--rounds must be >= 0")

    w = WORKLOADS[args.workload]
    apis = {"parent": load_api(args.parent, "parent"), "change": load_api(args.change, "change")}
    ys = [make_record(w, i).y for i in range(w.pool)]
    problems = {side: [api.Problem(w, y) for y in ys] for side, api in apis.items()}

    bad = 0
    for i in range(w.pool):
        for max_iter, label in ((None, "solve()"), (TO_TOL_MAX_ITER, "solve(1_000_000)")):
            a, b = (problems[side][i].solve(max_iter) for side in ("parent", "change"))
            diff = differences(a, b)
            if diff:
                bad += 1
                print(f"record {i} {label}: differs in {', '.join(diff)}")
    if bad:
        print(f"{args.workload}: {bad} of {2 * w.pool} solves differ")
        return 1
    print(f"{args.workload}: all {2 * w.pool} solves identical on {w.pool} pool records")
    if args.rounds == 0:
        return 0

    warm = {side: ps[: w.warm] for side, ps in problems.items()}
    ratios = []
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        t = {side: solve_time(warm[side], w.solve_repeats) for side in order}
        ratios.append(t["change"] / t["parent"])
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    wins = sum(x < 1.0 for x in ratios)
    print(
        f"{args.workload}: change/parent warm solve time, median {med:.3f} "
        f"(IQR {q1:.3f}-{q3:.3f}), change faster in {wins}/{len(ratios)} rounds"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
