"""Parameter selection: periodic masks from fault periods, the calibrated
regularization-multiplier table, noise estimation and the solver config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .penalties import PenaltySpec
from .regularizers import WeightArray, _as_signal
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
# The largest coupling concavity in noise units, a0*sigma = a0_fraction /
# (k0*beta0*eta).  The coupling's majorizer denominator grows as a0^2 t^3 in
# a window norm t (penalties._denom_at), that is (a0*sigma)^2 * sigma *
# (t/sigma)^3, so at this cap it stays finite while sigma*(t/sigma)^3 is
# below about 1e108.  Only an eta below about 1e-100 reaches it.
A0_NOISE_MAX = 1e100


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
            given = ("period_samples",)
        else:
            if self.fault_freq_hz is None or self.sample_rate_hz is None:
                raise ValueError(
                    "a period prior is required: either period_samples or "
                    "fault_freq_hz together with sample_rate_hz"
                )
            given = ("fault_freq_hz", "sample_rate_hz")
        for name in given:
            v = getattr(self, name)
            if not 0 < v < np.inf:
                raise ValueError(f"{name} must be a finite positive real, got {v}")
        if not self.period < np.inf:
            raise ValueError(
                f"period sample_rate_hz / fault_freq_hz = {self.sample_rate_hz} / "
                f"{self.fault_freq_hz} overflows"
            )
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
    sigma = _lambda_scale(sigma)
    lam0 = eta * beta0 * sigma
    lam1 = 0.5 * (1.0 - eta) * beta1 * sigma
    lam2 = 0.5 * (1.0 - eta) * beta2 * sigma
    return lam0, lam1, lam2


def _pogs_lam(sigma: float, spec: PeriodSpec) -> float:
    """The weight of the single-component (pogs) solve: ``beta(n1, m)*sigma``."""
    return beta_lookup(spec.n1, spec.m) * _lambda_scale(sigma)


def _median(a: np.ndarray) -> float:
    # np.median's own steps, a partition and the mean of the middle one or
    # two values, without the numpy.ma import np.median makes on first call
    k, j = (a.size - 1) // 2, a.size // 2
    return float(np.partition(a, [k, j])[k : j + 1].mean())


def estimate_sigma(y) -> float:
    """Robust noise level: median absolute deviation scaled for Gaussians."""
    y = _as_signal(y, "observation", min_size=2)
    return _median(np.abs(y - _median(y))) * MAD_TO_SIGMA


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
    return _config(estimate_sigma(y), spec1, spec2, eta, a0_fraction, family, max_iter, tol)


def _config(sigma, spec1, spec2, eta, a0_fraction, family, max_iter, tol) -> SolverConfig:
    """:func:`default_config` at the noise level ``sigma``."""
    if not 0.0 <= a0_fraction < 1.0:
        raise ValueError(f"a0_fraction must lie in [0, 1), got {a0_fraction}")
    b1 = build_weight_array(spec1)
    b2 = build_weight_array(spec2)
    k0 = min(spec1.n1, spec2.n1)
    beta0 = beta_lookup(k0, 1)
    beta1 = beta_lookup(spec1.n1, spec1.m)
    beta2 = beta_lookup(spec2.n1, spec2.m)
    lam0, lam1, lam2 = _choose_lambdas(eta, beta0, beta1, beta2, sigma)
    a0 = 0.0
    if lam0 > 0 and a0_fraction > 0 and family != "abs":
        a0 = a0_fraction * check_convexity(k0, lam0, 0.0)[1]
        if not a0 * sigma <= A0_NOISE_MAX:
            raise ValueError(
                f"eta = {eta} is too small for a concave coupling term: it puts "
                f"the concavity at a0 = {a0:.3g}, where its majorizer can overflow "
                f"(a0 * sigma_hat = {a0 * sigma:.3g} is above {A0_NOISE_MAX:g}); "
                "eta = 0 drops the coupling term"
            )
        if a0 < np.finfo(float).tiny:
            a0 = 0.0  # subnormal: abs to within rounding, and 1/a0 overflows
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
