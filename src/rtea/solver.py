"""Majorization-minimization solver extracting two repetitive group-sparse
components from a noisy observation.

The objective couples a quadratic data term with three regularizers: a
group penalty on the sum of the components (which may be non-convex within
the convexity bound) and one periodic-mask group penalty per component.
Each map evaluation minimizes a separable quadratic majorizer of the
objective, and the loop extrapolates along its slow directions (SQUAREM,
with an adaptive bound on the step length) only where that does not raise
the cost, so the cost is guaranteed nonincreasing.

The iteration exists once, in :func:`_mm`: it owns the acceleration, the
cost history, the non-finite guard and the stop rule, and builds the one
result type.  Its one numerical rule: every cost it records, the start's
included, must be finite, or it raises :class:`NumericalError` (the CLI's
exit 3); a non-finite extrapolation is rejected, and the loop emits no numpy
warnings.  The objective exists once, in :func:`_objective`, which
builds the pair of closures the loop calls:
``norms_and_cost`` evaluates each term's smoothed window norms and the cost
at an iterate, and ``update`` turns those same norms into majorizer weights
and the next iterate, so each map evaluation computes every masked sum once.
:func:`rtea_solve` builds it for two components, and :func:`pogs_solve`,
the single-component denoiser (all-ones mask = plain group-sparse
denoising), for one component without the coupling term.  Both refuse a
non-convex component penalty.  ``lam0 = 0`` drops the coupling term (plain
two-dictionary morphological decomposition).
"""

from __future__ import annotations

import math
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
    least one iteration and a finite positive stop tolerance."""
    for pen in pens:
        if pen.a != 0:
            raise ValueError(
                f"a component penalty must be convex (a == 0), got a = {pen.a}: "
                "only the coupling penalty may be non-convex"
            )
    for name, v in lams.items():
        if not 0 <= v < np.inf:
            raise ValueError(f"{name} must be a finite nonnegative real, got {v}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


@dataclass(frozen=True)
class SolverConfig:
    """Everything one decomposition run needs.

    ``lam0``/``pen0`` weight and shape the penalty on x1 + x2 (group size
    ``k0``); ``lam1``/``pen1``/``b1`` and ``lam2``/``pen2``/``b2`` the
    per-component periodic-mask penalties.  The config refuses concavity
    parameters that would break global convexity: only the coupling penalty
    may be non-convex, within the bound of :func:`check_convexity`.
    ``max_iter`` counts map evaluations of the accelerated loop (three per
    SQUAREM cycle), and ``tol`` is its relative stop tolerance on the cost.
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
    """A solve's components ``xs`` (one or two), residual and convergence record."""

    xs: tuple[np.ndarray, ...]
    residual: np.ndarray
    cost_history: np.ndarray
    iterations: int
    converged: bool

    @property
    def x1(self) -> np.ndarray:
        return self.xs[0]

    @property
    def x2(self) -> np.ndarray:
        if len(self.xs) < 2:
            raise AttributeError("a one-component result has no x2")
        return self.xs[1]

    @property
    def final_cost(self) -> float:
        return float(self.cost_history[-1])


def _mm(y, xs, norms_and_cost, update, max_iter: int, tol: float) -> DecompositionResult:
    """The one majorize-minimize loop of both solvers, from the start ``xs``,
    accelerated by safeguarded SQUAREM (Varadhan & Roland, Scand. J. Stat.
    35, 2008, scheme S3) with the adaptive step bound of the SQUAREM
    package (Du & Varadhan, J. Stat. Softw. 92(7), 2020: ``step.max0 = 1``,
    ``mstep = 4``).

    ``norms_and_cost(*xs)`` returns the smoothed window norms at the iterate
    and its cost; ``update(norms, *xs)`` minimizes the majorizer built from
    those norms and returns the next iterate, one map evaluation.  Each cycle
    takes two plain steps ``x -> x1 -> x2``, sets ``r = x1 - x``,
    ``v = x2 - x1 - r`` and ``alpha = min(-1, -||r|| / ||v||)`` (both norms
    summed over the components), clamped at ``-step_max``, and takes one
    step from ``x - 2*alpha*r + alpha**2 * v``; that step is kept only if
    its cost is no higher than cost(x2), so the cost never rises and a
    non-finite extrapolation (NaN or inf fails that test) is rejected.
    ``step_max`` starts at 1; a clamped step that is kept multiplies it by
    4, and one that is rejected divides it by 4, but not below 1.  The
    bound keeps an overshooting step from being retried at the same length
    cycle after cycle, and it keeps the roundoff of two solves of one
    problem (say, of ``y`` and of ``y`` reversed) from being amplified.

    ``max_iter`` and the result's ``iterations`` count map evaluations: a
    cycle is three, and one cut short by the budget ends on its plain
    steps.  ``cost_history[k]`` is the cost of the iterate held after k
    evaluations (a rejected extrapolation repeats cost(x2)).  The loop stops
    when a plain step changes the cost by less than ``tol`` relative to
    ``max(cost, 1)``.

    One numerical rule holds: every cost the loop records, the start's
    included, must be finite, or it raises :class:`NumericalError` naming
    the iteration.  The whole loop ignores numpy's floating-point errors,
    so it emits no numpy warnings: an overflow either rounds to its correct
    limit (an infinite majorizer denominator gives a weight of 0) or shows
    up as a non-finite cost.  The result's residual is ``y`` minus the
    components, subtracted in order.
    """
    costs = []

    def evaluate(xs):
        # the cost of an iterate, recorded, and whether the stop rule holds after it
        norms, c = norms_and_cost(*xs)
        if not np.isfinite(c):
            raise NumericalError(f"cost became non-finite at iteration {len(costs)}")
        done = bool(costs) and abs(costs[-1] - c) / max(c, 1.0) < tol
        costs.append(c)
        return xs, norms, done

    step_max = 1.0
    # an overflow rounds to its limit or shows as a non-finite cost, never as a warning
    with np.errstate(all="ignore"):
        xs, norms, converged = evaluate(xs)
        while len(costs) <= max_iter:
            x0 = xs
            xs, norms, converged = evaluate(update(norms, *xs))
            if converged or len(costs) > max_iter:
                break
            x1 = xs
            xs, norms, converged = evaluate(update(norms, *xs))
            if converged or len(costs) > max_iter:
                break
            rs = [a - b for a, b in zip(x1, x0)]
            vs = [a - b for a, b in zip(xs, x1)]
            for v, r in zip(vs, rs):
                v -= r
            sr = sum(_half_sq_norm(r) for r in rs)
            sv = sum(_half_sq_norm(v) for v in vs)
            alpha = -1.0 if sv == 0.0 else min(-1.0, -math.sqrt(sr / sv))
            clamped = alpha < -step_max
            if clamped:
                alpha = -step_max
            for x, r, v in zip(x0, rs, vs):
                r *= -2.0 * alpha
                r += x
                v *= alpha * alpha
                r += v
            ext = update(norms_and_cost(*rs)[0], *rs)
            ext_norms, c = norms_and_cost(*ext)
            # no NaN or inf passes, as every recorded cost is finite
            if c <= costs[-1]:
                xs, norms = ext, ext_norms
                if clamped:
                    step_max *= 4.0
            else:
                c = costs[-1]
                if clamped:
                    step_max = max(1.0, step_max / 4.0)
            costs.append(c)
    residual = y - xs[0] if len(xs) == 1 else y - xs[0] - xs[1]
    return DecompositionResult(tuple(xs), residual, np.asarray(costs), len(costs) - 1, converged)


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
    # y with each -0.0 made +0.0: y_pos - t*(x0 - x1) is then y + t*(x1 - x0)
    # bit for bit, also where x0 == x1 and y holds -0.0
    y_pos = y + 0.0

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
        # in place, each product and sum the same IEEE operation as in
        # t = 1 + lam0*w0, p = k*t + lam*w and q_i = y + t*(x_i - x_j)
        norms, u0 = all_norms
        t = 1.0
        if coupling is not None:
            t = _weights(b0, u0, n, pen0)
            t *= lam0
            t += 1.0
        kt = len(xs) * t
        ps = []
        for u, (lam, b, pen) in zip(norms, groups):
            p = _weights(b, u, n, pen)
            p *= lam
            p += kt
            ps.append(p)
        if len(xs) == 1:
            qs = [y]
        else:
            d = xs[0] - xs[1]
            d *= t
            q1 = y_pos - d
            d += y
            qs = [d, q1]
        for q, p in zip(qs, ps):
            np.divide(q, p, out=p)
        return ps

    return norms_and_cost, update


def _resolve_init(y, init):
    if init is None:
        return y.copy(), y.copy()
    if isinstance(init, str):
        raise ValueError(f"init must be None or a pair of arrays, got {init!r}")
    x1, x2 = (_as_signal(x, "init").copy() for x in init)
    if x1.size != y.size or x2.size != y.size:
        raise ValueError("init components must match the observation length")
    return x1, x2


def rtea_solve(y, cfg: SolverConfig, init=None) -> DecompositionResult:
    """Decompose ``y`` into two repetitive group-sparse components.

    Starts from ``x1 = x2 = y`` unless ``init`` is an explicit pair, and
    runs the accelerated majorize-minimize loop (:func:`_mm`) until a plain
    step changes the cost by less than ``cfg.tol`` relative to
    ``max(cost, 1)`` or ``cfg.max_iter`` map evaluations are done.  The
    result's ``iterations`` counts map evaluations, and its cost history
    holds the cost of the iterate held after each, the start included.
    """
    y = _as_signal(y, "observation")
    groups = ((cfg.lam1, cfg.b1, cfg.pen1), (cfg.lam2, cfg.b2, cfg.pen2))
    coupling = (cfg.lam0, cfg.k0, cfg.pen0) if cfg.lam0 > 0 else None
    norms_and_cost, update = _objective(y, groups, coupling)
    return _mm(y, _resolve_init(y, init), norms_and_cost, update, cfg.max_iter, cfg.tol)


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
    accelerated loop, stop rule and component rule (``spec.a == 0``);
    ``max_iter`` and the result's ``iterations`` count map evaluations.
    With an all-ones mask this is the plain overlapping group-sparsity
    denoiser.  Returns the one-component :class:`DecompositionResult`,
    whose ``x1`` is the denoised signal.  ``full_output`` returns
    ``(x, cost_history, iterations, converged)`` instead; it is kept only
    for the benchmark's adapter, which unpacks that tuple.
    """
    y = _as_signal(y, "observation")
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    _check_run(max_iter, tol, (spec,), lam=lam)
    norms_and_cost, update = _objective(y, ((lam, b, spec),), None)
    res = _mm(y, (y.copy(),), norms_and_cost, update, max_iter, tol)
    if full_output:
        return res.x1, res.cost_history, res.iterations, res.converged
    return res
