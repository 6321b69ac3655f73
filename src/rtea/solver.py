"""Majorization-minimization solver extracting two repetitive group-sparse
components from a noisy observation.

The objective couples a quadratic data term with three regularizers: a
group penalty on the sum of the components (which may be non-convex within
the convexity bound) and one periodic-mask group penalty per component.
Each iteration minimizes a separable quadratic majorizer of the objective,
so the cost is guaranteed nonincreasing.

The iteration exists once, in :func:`_mm`: it owns the cost history, the
non-finite guard and the stop rule.  The objective exists once, in
:func:`_objective`, which builds the pair of closures the loop calls:
``norms_and_cost`` evaluates each term's smoothed window norms and the cost
at an iterate, and ``update`` turns those same norms into majorizer weights
and the next iterate, so each iteration computes every masked sum once.
:func:`rtea_solve` builds it for two components, and :func:`pogs_solve`,
the single-component denoiser (all-ones mask = plain group-sparse
denoising), for one component without the coupling term.  Both refuse a
non-convex component penalty.  ``lam0 = 0`` drops the coupling term (plain
two-dictionary morphological decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .penalties import PenaltySpec
from .regularizers import WeightArray, _as_signal, _check_mask, _norms, _penalty, _weights


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


def _check_run(max_iter: int, tol: float, pens, **lams: float) -> None:
    """The checks every solver makes of its settings: each component penalty
    in ``pens`` convex (``a == 0``), each weight finite and nonnegative, at
    least one iteration and a positive stop tolerance."""
    for pen in pens:
        if pen.a != 0:
            raise ValueError(
                f"a component penalty must be convex (a == 0), got a = {pen.a}: "
                "only the coupling penalty may be non-convex"
            )
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
        lams = {"lam0": self.lam0, "lam1": self.lam1, "lam2": self.lam2}
        _check_run(self.max_iter, self.tol, (self.pen1, self.pen2), **lams)
        if self.k0 < 1:
            raise ValueError(f"group size k0 must be >= 1, got {self.k0}")
        for name in ("b1", "b2"):
            b = getattr(self, name)
            if not isinstance(b, WeightArray):
                raise TypeError(f"{name} must be a WeightArray, got {type(b).__name__}")
        if self.lam0 == 0 and self.pen0.a:
            raise ValueError(
                "lam0 == 0 (no coupling term) requires the coupling concavity "
                "pen0.a to be 0: convexity cannot be restored by the data term"
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


def _finite_signal(x, name: str) -> np.ndarray:
    x = _as_signal(x)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite samples")
    return x


def _mm(xs, norms_and_cost, update, max_iter: int, tol: float):
    """The one majorize-minimize loop of both solvers.

    ``norms_and_cost(*xs)`` returns the smoothed window norms at the iterate
    and its cost; ``update(norms, *xs)`` minimizes the majorizer built from
    those norms and returns the next iterate.  The norms computed for one
    iterate's cost are thus reused for its majorizer weights.  Stops when
    the cost changes by less than ``tol`` relative to ``max(cost, 1)``, and
    raises :class:`NumericalError` on a non-finite cost.  Returns ``(xs,
    cost_history, iterations, converged)``.
    """
    norms, c = norms_and_cost(*xs)
    costs = [c]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        xs = update(norms, *xs)
        norms, c = norms_and_cost(*xs)
        if not np.isfinite(c):
            raise NumericalError(f"cost became non-finite at iteration {iterations}")
        costs.append(c)
        if abs(costs[-2] - c) / max(c, 1.0) < tol:
            converged = True
            break
    return xs, np.asarray(costs), iterations, converged


def _objective(y: np.ndarray, groups, coupling):
    """The ``(norms_and_cost, update)`` pair of the objective

        0.5*||y - sum(xs)||^2 + lam0*P(sum(xs); k0) + sum_i lam_i*P(x_i; b_i)

    over one component per entry of ``groups``, each ``(lam, b, pen)``.
    ``coupling`` is ``(lam0, k0, pen0)`` of the all-ones-mask penalty on the
    sum, or None to drop that term; ``t`` then stays the scalar 1.
    """
    n = y.size
    for _, b, _ in groups:
        _check_mask(b, n)
    if coupling is not None:
        lam0, k0, pen0 = coupling
        b0 = WeightArray.ones(k0)
        _check_mask(b0, n)

    def norms_and_cost(*xs):
        both = xs[0] if len(xs) == 1 else xs[0] + xs[1]
        u0 = None if coupling is None else _norms(b0, both, pen0)
        norms = [_norms(b, x, pen) for x, (_, b, pen) in zip(xs, groups)]
        total = _half_sq_norm(y - both)
        if coupling is not None:
            total += lam0 * _penalty(u0, pen0)
        # the component terms summed apart keep the total invariant under a 1<->2 swap
        reg = 0.0
        for u, (lam, _, pen) in zip(norms, groups):
            reg += lam * _penalty(u, pen)
        return (norms, u0), total + reg

    def update(all_norms, *xs):
        # the majorizer is separable per sample: one elementwise division per component
        norms, u0 = all_norms
        t = 1.0 if coupling is None else 1.0 + lam0 * _weights(b0, u0, n, pen0)
        kt = len(xs) * t
        ps = [kt + lam * _weights(b, u, n, pen) for u, (lam, b, pen) in zip(norms, groups)]
        qs = (y,) if len(xs) == 1 else (y + t * (xs[0] - xs[1]), y + t * (xs[1] - xs[0]))
        return [q / p for q, p in zip(qs, ps)]

    return norms_and_cost, update


def _resolve_init(y, init):
    if init is None:
        return y.copy(), y.copy()
    if isinstance(init, str):
        raise ValueError(f"init must be None or a pair of arrays, got {init!r}")
    x1, x2 = (_finite_signal(x, "init").copy() for x in init)
    if x1.size != y.size or x2.size != y.size:
        raise ValueError("init components must match the observation length")
    return x1, x2


def rtea_solve(y, cfg: SolverConfig, init=None) -> DecompositionResult:
    """Decompose ``y`` into two repetitive group-sparse components.

    Starts from ``x1 = x2 = y`` unless ``init`` is an explicit pair, and
    runs the majorize-minimize loop until the cost changes by less than
    ``cfg.tol`` relative to ``max(cost, 1)`` or ``cfg.max_iter``
    iterations are done.  The cost history holds the
    objective at every iterate, the starting point included.
    """
    y = _finite_signal(y, "observation")
    groups = ((cfg.lam1, cfg.b1, cfg.pen1), (cfg.lam2, cfg.b2, cfg.pen2))
    coupling = (cfg.lam0, cfg.k0, cfg.pen0) if cfg.lam0 > 0 else None
    norms_and_cost, update = _objective(y, groups, coupling)
    (x1, x2), costs, iterations, converged = _mm(
        _resolve_init(y, init), norms_and_cost, update, cfg.max_iter, cfg.tol
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

    Minimizes ``0.5*||y - x||^2 + lam * group_penalty(x, b, spec)``, the
    one-component case of :func:`rtea_solve`'s objective, with the same
    loop, stop rule and component rule (``spec.a == 0``); with an all-ones
    mask this is the plain overlapping group-sparsity denoiser.  Returns
    the denoised signal, or ``(x, cost_history, iterations, converged)``
    with ``full_output``.
    """
    y = _finite_signal(y, "observation")
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    _check_run(max_iter, tol, (spec,), lam=lam)
    norms_and_cost, update = _objective(y, ((lam, b, spec),), None)
    (x,), costs, iterations, converged = _mm((y.copy(),), norms_and_cost, update, max_iter, tol)
    if full_output:
        return x, costs, iterations, converged
    return x
