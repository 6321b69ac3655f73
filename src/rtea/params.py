"""Parameter selection: periodic masks from fault periods, the calibrated
regularization-multiplier table, noise estimation and the solver config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .penalties import PenaltySpec
from .regularizers import WeightArray
from .solver import SolverConfig, check_convexity

# Regularization multiplier beta, indexed by [m - 1][n1 - 1].  The m = 1 row
# doubles as the multiplier for the sum-coupling penalty, indexed by its
# group size.  The table is symmetric in (n1, m).
BETA_TABLE = np.array(
    [
        [3.700, 1.700, 1.150, 0.925],
        [1.700, 0.850, 0.625, 0.475],
        [1.150, 0.625, 0.450, 0.375],
        [0.925, 0.475, 0.375, 0.325],
    ]
)
BETA_TABLE.setflags(write=False)

MAD_TO_SIGMA = 1.0 / 0.6745


@dataclass(frozen=True)
class PeriodSpec:
    """Period prior for one component.

    Give either ``period_samples`` directly or ``fault_freq_hz`` together
    with ``sample_rate_hz``.  ``n1`` is the ones-run (group) length and
    ``m`` the number of periods the mask spans.
    """

    period_samples: float | None = None
    fault_freq_hz: float | None = None
    sample_rate_hz: float | None = None
    n1: int = 3
    m: int = 4

    def __post_init__(self):
        if self.period_samples is not None:
            if self.fault_freq_hz is not None:
                raise ValueError("give either period_samples or fault_freq_hz, not both")
            if not self.period_samples > 0:
                raise ValueError(f"period must be positive, got {self.period_samples}")
        else:
            if self.fault_freq_hz is None or self.sample_rate_hz is None:
                raise ValueError(
                    "a period prior is required: either period_samples or "
                    "fault_freq_hz together with sample_rate_hz"
                )
            if not self.fault_freq_hz > 0 or not self.sample_rate_hz > 0:
                raise ValueError("fault_freq_hz and sample_rate_hz must be positive")
        if self.n1 < 1:
            raise ValueError(f"n1 must be >= 1, got {self.n1}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.period_int <= self.n1:
            raise ValueError(
                f"rounded period {self.period_int} leaves no zero gap for "
                f"n1 = {self.n1}"
            )

    @property
    def period(self) -> float:
        if self.period_samples is not None:
            return float(self.period_samples)
        return float(self.sample_rate_hz) / float(self.fault_freq_hz)

    @property
    def period_int(self) -> int:
        return int(round(self.period))


def build_weight_array(spec: PeriodSpec) -> WeightArray:
    """Periodic binary mask for this period prior: length m*round(T) + n1."""
    return WeightArray(n1=spec.n1, n0=spec.period_int - spec.n1, m=spec.m)


def beta_lookup(n1: int, m: int) -> float:
    """Tabulated regularization multiplier; no extrapolation outside 1..4."""
    if not (1 <= n1 <= 4 and 1 <= m <= 4):
        raise ValueError(
            f"beta table covers n1, m in 1..4 only, got n1={n1}, m={m}"
        )
    return float(BETA_TABLE[m - 1][n1 - 1])


def _choose_lambdas(
    eta: float, beta0: float, beta1: float, beta2: float, sigma: float
) -> tuple[float, float, float]:
    """Split the regularization budget between the coupling and component
    penalties: ``lam0 = eta*beta0*sigma``, ``lam_i = 0.5*(1-eta)*beta_i*sigma``.
    ``eta = 0`` drops the coupling term.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    lam0 = eta * beta0 * sigma
    lam1 = 0.5 * (1.0 - eta) * beta1 * sigma
    lam2 = 0.5 * (1.0 - eta) * beta2 * sigma
    return lam0, lam1, lam2


def estimate_sigma(y) -> float:
    """Robust noise level: median absolute deviation scaled for Gaussians."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need a 1-D signal with at least 2 samples")
    mad = float(np.median(np.abs(y - np.median(y))))
    return mad * MAD_TO_SIGMA


def _lambda_scale(sigma: float) -> float:
    """``sigma`` as the scale of the regularization weights: the one check,
    on every path, that the noise estimate can scale them."""
    if not sigma > 0:
        raise ValueError(
            f"noise estimate is {sigma}, which cannot scale the regularization "
            "(the MAD estimate is zero when more than half of the samples are equal)"
        )
    return sigma


def default_config(
    y,
    spec1: PeriodSpec,
    spec2: PeriodSpec,
    eta: float = 0.5,
    a0_fraction: float = 0.5,
    family: str = "atan",
    max_iter: int = 200,
    tol: float = 1e-8,
) -> SolverConfig:
    """Assemble a full solver config from the two period priors.

    The coupling group size is min(n1, n1'); multipliers come from the
    table, the noise level from the MAD estimate of ``y``, and the coupling
    concavity is ``a0_fraction`` of the strict-convexity bound, so the
    resulting problem is convex by construction.  The ``abs`` family, and
    ``eta = 0`` (no coupling term: the MCA baseline), take ``a0 = 0``.
    """
    if not 0.0 <= a0_fraction < 1.0:
        raise ValueError(f"a0_fraction must lie in [0, 1), got {a0_fraction}")
    b1 = build_weight_array(spec1)
    b2 = build_weight_array(spec2)
    k0 = min(spec1.n1, spec2.n1)
    beta0 = beta_lookup(k0, 1)
    beta1 = beta_lookup(spec1.n1, spec1.m)
    beta2 = beta_lookup(spec2.n1, spec2.m)
    sigma = _lambda_scale(estimate_sigma(y))
    lam0, lam1, lam2 = _choose_lambdas(eta, beta0, beta1, beta2, sigma)
    a0 = 0.0
    if lam0 > 0 and family != "abs":
        a0 = a0_fraction * check_convexity(k0, lam0, 0.0)[1]
    pen0 = PenaltySpec(family=family if a0 > 0 else "abs", a=a0)
    convex = PenaltySpec("abs")
    return SolverConfig(
        lam0=lam0,
        lam1=lam1,
        lam2=lam2,
        pen0=pen0,
        pen1=convex,
        pen2=convex,
        k0=k0,
        b1=b1,
        b2=b2,
        max_iter=max_iter,
        tol=tol,
    )
