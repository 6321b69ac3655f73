"""Majorization-minimization solver extracting two repetitive group-sparse
components from a noisy observation.

The objective couples a quadratic data term with three regularizers: a
group penalty on the sum of the components (which may be non-convex within
the convexity bound) and one periodic-mask group penalty per component.
Each iteration minimizes a separable quadratic majorizer of the objective,
so the cost is guaranteed nonincreasing.

The iteration exists once, in :func:`_mm`: it owns the cost history, the
non-finite guard and the stop rule.  Each solver hands it a pair of
closures: ``sums_and_cost`` evaluates the masked window sums and the cost
at an iterate, and ``update`` turns those same sums into majorizer weights
and the next iterate, so each iteration computes every masked sum once.
:func:`rtea_solve` builds its pair from the config, and :func:`pogs_solve`,
the single-component denoiser (all-ones mask = plain group-sparse
denoising), builds its own.  ``lam0 = 0`` drops the coupling term (plain
two-dictionary morphological decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .penalties import PenaltySpec
from .regularizers import WeightArray, _as_signal, _check_mask, _penalty_from_sums, _weights


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


def _check_run(max_iter: int, tol: float, **lams: float) -> None:
    """The checks every solver makes of its settings: each weight finite and
    nonnegative, at least one iteration and a positive stop tolerance."""
    for name, v in lams.items():
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be a finite nonnegative real, got {v}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")


@dataclass(frozen=True)
class SolverConfig:
    """Everything one decomposition run needs.

    ``lam0``/``pen0`` weight and shape the penalty on x1 + x2 (group size
    ``k0``); ``lam1``/``pen1``/``b1`` and ``lam2``/``pen2``/``b2`` the
    per-component periodic-mask penalties.  The config refuses concavity
    parameters that would break global convexity: only the coupling penalty
    may be non-convex, within the bound of :func:`check_convexity`.
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

    def __post_init__(self):
        _check_run(self.max_iter, self.tol, lam0=self.lam0, lam1=self.lam1, lam2=self.lam2)
        if self.k0 < 1:
            raise ValueError(f"group size k0 must be >= 1, got {self.k0}")
        for name in ("b1", "b2"):
            b = getattr(self, name)
            if not isinstance(b, WeightArray):
                raise TypeError(f"{name} must be a WeightArray, got {type(b).__name__}")
        if self.lam0 == 0 and (self.pen0.a or self.pen1.a or self.pen2.a):
            raise ValueError(
                "lam0 == 0 (no coupling term) requires all concavity parameters "
                "a to be 0: convexity cannot be restored by the data term"
            )
        if self.pen1.a != 0 or self.pen2.a != 0:
            raise ValueError(
                "only the coupling penalty may be non-convex; set pen1.a = pen2.a = 0"
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


def _observation(y) -> np.ndarray:
    y = _as_signal(y)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains non-finite samples")
    return y


def _mm(xs, sums_and_cost, update, max_iter: int, tol: float):
    """The one majorize-minimize loop of both solvers.

    ``sums_and_cost(*xs)`` returns the masked window sums at the iterate and
    its cost; ``update(sums, *xs)`` minimizes the majorizer built from those
    sums and returns the next iterate.  The sums computed for one iterate's
    cost are thus reused for its majorizer weights.  Stops when the cost
    changes by less than ``tol`` relative to ``max(cost, 1)``, and raises
    :class:`NumericalError` on a non-finite cost.  Returns ``(xs,
    cost_history, iterations, converged)``.
    """
    sums, c = sums_and_cost(*xs)
    costs = [c]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        xs = update(sums, *xs)
        sums, c = sums_and_cost(*xs)
        if not np.isfinite(c):
            raise NumericalError(f"cost became non-finite at iteration {iterations}")
        costs.append(c)
        if abs(costs[-2] - c) / max(c, 1.0) < tol:
            converged = True
            break
    return xs, np.asarray(costs), iterations, converged


def _two_component(y: np.ndarray, cfg: SolverConfig):
    """The ``(sums_and_cost, update)`` pair of the two-component objective."""
    n = y.size
    b0 = WeightArray.ones(cfg.k0)
    for b in (b0, cfg.b1, cfg.b2):
        _check_mask(b, n)
    use0, use1, use2 = cfg.lam0 > 0, cfg.lam1 > 0, cfg.lam2 > 0

    def sums_and_cost(x1, x2):
        both = x1 + x2
        s0 = b0._convolve(both * both) if use0 else None
        s1 = cfg.b1._convolve(x1 * x1) if use1 else None
        s2 = cfg.b2._convolve(x2 * x2) if use2 else None
        total = _half_sq_norm(y - both)
        if use0:
            total += cfg.lam0 * _penalty_from_sums(s0, cfg.pen0)
        # single parenthesized pair keeps the total invariant under a 1<->2 swap
        reg12 = 0.0
        if use1:
            reg12 += cfg.lam1 * _penalty_from_sums(s1, cfg.pen1)
        if use2:
            reg12 += cfg.lam2 * _penalty_from_sums(s2, cfg.pen2)
        return (s0, s1, s2), total + reg12

    def update(sums, x1, x2):
        # the majorizer is separable per sample: two elementwise divisions
        s0, s1, s2 = sums
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
        return q1 / p1, q2 / p2

    return sums_and_cost, update


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
    explicit pair, and runs the majorize-minimize loop until the cost
    changes by less than ``cfg.tol`` relative to ``max(cost, 1)`` or
    ``cfg.max_iter`` iterations are done.  The cost history holds the
    objective at every iterate, the starting point included.
    """
    y = _observation(y)
    sums_and_cost, update = _two_component(y, cfg)
    (x1, x2), costs, iterations, converged = _mm(
        _resolve_init(y, init), sums_and_cost, update, cfg.max_iter, cfg.tol
    )
    return DecompositionResult(
        x1=x1,
        x2=x2,
        residual=y - x1 - x2,
        cost_history=costs,
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

    Minimizes ``0.5*||y - x||^2 + lam * group_penalty(x, b, spec)`` with the
    same majorize-minimize loop and stop rule as :func:`rtea_solve`; with an
    all-ones mask this is the plain overlapping group-sparsity denoiser.
    Returns the denoised signal, or ``(x, cost_history, iterations,
    converged)`` with ``full_output``.
    """
    y = _observation(y)
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    _check_run(max_iter, tol, lam=lam)
    _check_mask(b, y.size)

    def sums_and_cost(x):
        s = b._convolve(x * x)
        return s, _half_sq_norm(y - x) + lam * _penalty_from_sums(s, spec)

    def update(s, x):
        return (y / (1.0 + lam * _weights(b, s, y.size, spec)),)

    (x,), costs, iterations, converged = _mm((y.copy(),), sums_and_cost, update, max_iter, tol)
    if full_output:
        return x, costs, iterations, converged
    return x
