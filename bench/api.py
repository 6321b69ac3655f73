"""Every call the benchmark makes into the package, in one place.

Only public names are used, masks are passed as ``WeightArray``, and the
noise estimate is read whether ``estimate_sigma`` returns a float or an
object with a ``sigma`` field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from rtea import (
    PenaltySpec,
    PeriodSpec,
    beta_lookup,
    build_weight_array,
    default_config,
    estimate_sigma,
    fileio,
    pogs_solve,
    rtea_solve,
)

from objective import periodic_mask

# the single-component penalty the CLI uses in pogs mode (--penalty default)
POGS_PENALTY = PenaltySpec("atan", a=0.0)


@dataclass(frozen=True)
class Solution:
    xs: tuple[np.ndarray, ...]
    costs: np.ndarray
    iterations: int
    converged: bool


def period_specs(w) -> list[PeriodSpec]:
    if w.periods_samples is not None:
        return [PeriodSpec(period_samples=p) for p in w.periods_samples]
    return [PeriodSpec(fault_freq_hz=f, sample_rate_hz=w.fs) for f in w.freqs_hz]


def sigma_of(y) -> float:
    est = estimate_sigma(y)
    return float(getattr(est, "sigma", est))


def read_y(path: str) -> np.ndarray:
    return fileio.read_columns_csv(path)["y"]


def dense_mask(b) -> np.ndarray:
    """The benchmark's own 0/1 copy of a ``WeightArray`` (never passed back)."""
    return periodic_mask(b.n1, b.n1 + b.n0, b.m)


class Problem:
    """The workload's problem on one record, configured as the CLI does.

    ``groups`` lists (lam, WeightArray, PenaltySpec) per component and
    ``coupling`` is (lam0, k0, PenaltySpec) of the sum term, or None.
    """

    def __init__(self, w, y):
        self.y = y
        specs = period_specs(w)
        if w.pogs:
            b = build_weight_array(specs[0])
            lam = beta_lookup(specs[0].n1, specs[0].m) * sigma_of(y)
            self.cfg = None
            self.groups = [(lam, b, POGS_PENALTY)]
            self.coupling = None
        else:
            c = self.cfg = default_config(y, *specs)
            self.groups = [(c.lam1, c.b1, c.pen1), (c.lam2, c.b2, c.pen2)]
            self.coupling = (c.lam0, c.k0, c.pen0)

    def solve(self, max_iter: int | None = None) -> Solution:
        """Default settings, or ``max_iter`` raised so that tol stops the run."""
        if self.cfg is None:
            lam, b, spec = self.groups[0]
            kw = {} if max_iter is None else {"max_iter": max_iter}
            x, costs, it, conv = pogs_solve(self.y, b, lam, spec, full_output=True, **kw)
            return Solution((x,), np.asarray(costs), it, conv)
        cfg = self.cfg if max_iter is None else replace(self.cfg, max_iter=max_iter)
        res = rtea_solve(self.y, cfg)
        return Solution((res.x1, res.x2), res.cost_history, res.iterations, res.converged)

    def objective_terms(self) -> dict:
        """The problem in the form ``objective.objective`` takes."""
        terms = {
            "eps": self.groups[0][2].eps,
            "groups": [(lam, dense_mask(b), spec.family, spec.a) for lam, b, spec in self.groups],
        }
        if self.coupling is not None:
            lam0, k0, pen0 = self.coupling
            terms.update(lam0=lam0, k0=k0, pen0=(pen0.family, pen0.a))
        return terms
