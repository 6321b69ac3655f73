"""Majorization-minimization solver extracting two repetitive group-sparse
components from a noisy observation.

The objective couples a quadratic data term with three regularizers: a
group penalty on the sum of the components (which may be non-convex within
the convexity bound) and one periodic-mask group penalty per component.
Each iteration minimizes a separable quadratic majorizer of the objective,
so the cost is guaranteed nonincreasing.

Degenerate modes come for free: ``lam0 = 0`` drops the coupling term (plain
two-dictionary morphological decomposition), and :func:`pogs_solve` runs
the single-component denoiser (all-ones mask = plain group-sparse
denoising).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .penalties import PenaltySpec
from .regularizers import (
    WeightArray,
    _as_signal,
    _check_mask,
    _penalty_from_sums,
    _weights,
    combined_majorizer_weights,
    combined_penalty,
    group_penalty,
    majorizer_weights,
)


class NumericalError(RuntimeError):
    """Raised when the iteration produces a non-finite cost."""


def _half_sq_norm(r: np.ndarray) -> float:
    # einsum's own loop, not BLAS: np.dot would split the reduction over
    # BLAS threads, which stall whenever another process holds a core.
    return 0.5 * float(np.einsum("i,i->", r, r))


def check_convexity(k0: int, lam0: float, a0: float) -> tuple[bool, float]:
    """Strict-convexity test for the coupling penalty's concavity parameter.

    Returns ``(a0 < bound, bound)`` with ``bound = 1 / (k0 * lam0)``.
    Requires ``lam0 > 0``; the bound is meaningless otherwise.
    """
    if k0 < 1:
        raise ValueError(f"group size k0 must be >= 1, got {k0}")
    if not lam0 > 0:
        raise ValueError(f"convexity bound requires lam0 > 0, got {lam0}")
    if a0 < 0:
        raise ValueError(f"concavity parameter a0 must be >= 0, got {a0}")
    bound = 1.0 / (k0 * lam0)
    return a0 < bound, bound


@dataclass(frozen=True)
class SolverConfig:
    """Everything one decomposition run needs.

    ``lam0``/``pen0`` weight and shape the penalty on x1 + x2 (group size
    ``k0``); ``lam1``/``pen1``/``b1`` and ``lam2``/``pen2``/``b2`` the
    per-component periodic-mask penalties.  With ``enforce_convexity`` the
    config refuses concavity parameters that would break global convexity.
    """

    lam0: float
    lam1: float
    lam2: float
    pen0: PenaltySpec
    pen1: PenaltySpec
    pen2: PenaltySpec
    k0: int
    b1: WeightArray
    b2: WeightArray
    max_iter: int = 200
    tol: float = 1e-8
    enforce_convexity: bool = True

    def __post_init__(self):
        for name in ("lam0", "lam1", "lam2"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be a finite nonnegative real, got {v}")
        if self.k0 < 1:
            raise ValueError(f"group size k0 must be >= 1, got {self.k0}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        for name in ("b1", "b2"):
            b = getattr(self, name)
            if not isinstance(b, WeightArray):
                raise TypeError(f"{name} must be a WeightArray, got {type(b).__name__}")
        if self.lam0 == 0 and (self.pen0.a or self.pen1.a or self.pen2.a):
            raise ValueError(
                "lam0 == 0 (no coupling term) requires all concavity parameters "
                "a to be 0: convexity cannot be restored by the data term"
            )
        if self.enforce_convexity:
            if self.pen1.a != 0 or self.pen2.a != 0:
                raise ValueError(
                    "convex mode allows non-convexity only in the coupling "
                    "penalty; set pen1.a = pen2.a = 0"
                )
            if self.lam0 > 0:
                ok, bound = check_convexity(self.k0, self.lam0, self.pen0.a)
                if not ok:
                    raise ValueError(
                        f"a0 = {self.pen0.a} violates the strict-convexity bound "
                        f"1/(k0*lam0) = {bound}"
                    )


@dataclass(frozen=True)
class DecompositionResult:
    """Solver output: components, residual and convergence record."""

    x1: np.ndarray
    x2: np.ndarray
    residual: np.ndarray
    cost_history: np.ndarray
    iterations: int
    converged: bool

    @property
    def final_cost(self) -> float:
        return float(self.cost_history[-1])


def eval_cost(y, x1, x2, cfg: SolverConfig) -> float:
    """Objective value at (x1, x2): data term plus the three penalties."""
    y = _as_signal(y)
    x1 = _as_signal(x1)
    x2 = _as_signal(x2)
    if not (y.size == x1.size == x2.size):
        raise ValueError(
            f"length mismatch: y={y.size}, x1={x1.size}, x2={x2.size}"
        )
    total = _half_sq_norm(y - (x1 + x2))
    if cfg.lam0 > 0:
        total += cfg.lam0 * combined_penalty(x1, x2, cfg.k0, cfg.pen0)
    # single parenthesized pair keeps the total invariant under a 1<->2 swap
    reg12 = 0.0
    if cfg.lam1 > 0:
        reg12 += cfg.lam1 * group_penalty(x1, cfg.b1, cfg.pen1)
    if cfg.lam2 > 0:
        reg12 += cfg.lam2 * group_penalty(x2, cfg.b2, cfg.pen2)
    return total + reg12


def rtea_step(y, x1, x2, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """One majorize-minimize update of both components.

    The majorizer is separable per sample, so the update is a pair of
    elementwise divisions; the cost after the step never exceeds the cost
    before it.
    """
    y = _as_signal(y)
    x1 = _as_signal(x1)
    x2 = _as_signal(x2)
    if cfg.lam0 > 0:
        r0 = combined_majorizer_weights(x1 + x2, cfg.k0, cfg.pen0)
        t = 1.0 + cfg.lam0 * r0
    else:
        t = np.ones_like(y)
    p1 = 2.0 * t
    p2 = 2.0 * t
    if cfg.lam1 > 0:
        p1 = p1 + cfg.lam1 * majorizer_weights(x1, cfg.b1, cfg.pen1)
    if cfg.lam2 > 0:
        p2 = p2 + cfg.lam2 * majorizer_weights(x2, cfg.b2, cfg.pen2)
    q1 = y + t * (x1 - x2)
    q2 = y + t * (x2 - x1)
    return q1 / p1, q2 / p2


def _resolve_init(y, init):
    if init is None:
        return y.copy(), y.copy()
    if isinstance(init, str):
        if init == "zeros":
            return np.zeros_like(y), np.zeros_like(y)
        raise ValueError(f"unknown init {init!r}; expected 'zeros' or a pair of arrays")
    x1, x2 = init
    x1 = _as_signal(x1).copy()
    x2 = _as_signal(x2).copy()
    if x1.size != y.size or x2.size != y.size:
        raise ValueError("init components must match the observation length")
    return x1, x2


def rtea_solve(y, cfg: SolverConfig, init=None) -> DecompositionResult:
    """Decompose ``y`` into two repetitive group-sparse components.

    Starts from ``x1 = x2 = y`` unless ``init`` is ``"zeros"`` or an
    explicit pair, and iterates :func:`rtea_step` until the relative cost
    change drops below ``cfg.tol`` or ``cfg.max_iter`` is reached.

    The loop body is a fused form of :func:`rtea_step` + :func:`eval_cost`:
    the masked sliding sums computed for the cost at one iterate are reused
    for the next iterate's majorizer weights, saving a third of the
    convolutions.  The iterates are identical to stepping manually.
    """
    y = _as_signal(y)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains non-finite samples")
    x1, x2 = _resolve_init(y, init)
    n = y.size
    b0 = WeightArray.ones(cfg.k0)
    for b in (b0, cfg.b1, cfg.b2):
        _check_mask(b, n)
    use0, use1, use2 = cfg.lam0 > 0, cfg.lam1 > 0, cfg.lam2 > 0

    def sums_and_cost(a1, a2):
        both = a1 + a2
        s0 = b0._convolve(both * both) if use0 else None
        s1 = cfg.b1._convolve(a1 * a1) if use1 else None
        s2 = cfg.b2._convolve(a2 * a2) if use2 else None
        total = _half_sq_norm(y - both)
        if use0:
            total += cfg.lam0 * _penalty_from_sums(s0, cfg.pen0)
        reg12 = 0.0
        if use1:
            reg12 += cfg.lam1 * _penalty_from_sums(s1, cfg.pen1)
        if use2:
            reg12 += cfg.lam2 * _penalty_from_sums(s2, cfg.pen2)
        return s0, s1, s2, total + reg12

    s0, s1, s2, c = sums_and_cost(x1, x2)
    costs = [c]
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        if use0:
            t = 1.0 + cfg.lam0 * _weights(b0, s0, n, cfg.pen0)
        else:
            t = np.ones_like(y)
        p1 = 2.0 * t
        p2 = 2.0 * t
        if use1:
            p1 = p1 + cfg.lam1 * _weights(cfg.b1, s1, n, cfg.pen1)
        if use2:
            p2 = p2 + cfg.lam2 * _weights(cfg.b2, s2, n, cfg.pen2)
        q1 = y + t * (x1 - x2)
        q2 = y + t * (x2 - x1)
        x1, x2 = q1 / p1, q2 / p2
        s0, s1, s2, c = sums_and_cost(x1, x2)
        if not np.isfinite(c):
            raise NumericalError(f"cost became non-finite at iteration {iterations}")
        costs.append(c)
        if abs(costs[-2] - c) / max(c, 1.0) < cfg.tol:
            converged = True
            break
    return DecompositionResult(
        x1=x1,
        x2=x2,
        residual=y - x1 - x2,
        cost_history=np.asarray(costs),
        iterations=iterations,
        converged=converged,
    )


def pogs_solve(
    y,
    b,
    lam: float,
    spec: PenaltySpec,
    max_iter: int = 200,
    tol: float = 1e-8,
    full_output: bool = False,
):
    """Single-component group-sparse denoiser (periodic or plain mask).

    Minimizes ``0.5*||y - x||^2 + lam * group_penalty(x, b, spec)`` by the
    same majorize-minimize scheme; with an all-ones mask this is the plain
    overlapping group-sparsity denoiser.  Returns the denoised signal, or
    ``(x, cost_history, iterations, converged)`` with ``full_output``.
    """
    y = _as_signal(y)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains non-finite samples")
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    _check_mask(b, y.size)
    x = y.copy()

    def sums_and_cost(a):
        s = b._convolve(a * a)
        return s, _half_sq_norm(y - a) + lam * _penalty_from_sums(s, spec)

    s, c = sums_and_cost(x)
    costs = [c]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = _weights(b, s, y.size, spec)
        x = y / (1.0 + lam * w)
        s, c = sums_and_cost(x)
        if not np.isfinite(c):
            raise NumericalError(f"cost became non-finite at iteration {iterations}")
        costs.append(c)
        if abs(costs[-2] - c) / max(c, 1.0) < tol:
            converged = True
            break
    if full_output:
        return x, np.asarray(costs), iterations, converged
    return x


def combined_majorizer_gap(x1, x2, z1, z2, k0: int, spec: PenaltySpec) -> float:
    """Majorizer of the sum-coupling penalty minus the penalty itself.

    Anchored at (z1, z2) with the constant resolved by tangency, so the gap
    is zero at (x1, x2) == (z1, z2) and nonnegative everywhere else (up to
    roundoff).
    """
    x1 = _as_signal(x1)
    x2 = _as_signal(x2)
    z1 = _as_signal(z1)
    z2 = _as_signal(z2)
    if not (x1.size == x2.size == z1.size == z2.size):
        raise ValueError("all four signals must share one length")
    r0 = combined_majorizer_weights(z1 + z2, k0, spec)
    d = z1 - z2

    def quad(a1, a2):
        return float(np.sum(r0 * (a1 * a1 + a2 * a2 - d * a1 + d * a2)))

    gap = quad(x1, x2) - quad(z1, z2)
    gap += combined_penalty(z1, z2, k0, spec) - combined_penalty(x1, x2, k0, spec)
    return gap
