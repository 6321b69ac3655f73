"""Majorization-minimization solver extracting two repetitive group-sparse
components from a noisy observation.

The objective couples a quadratic data term with three regularizers: a
group penalty on the sum of the components (which may be non-convex within
the convexity bound) and one periodic-mask group penalty per component.
Each map evaluation minimizes a quadratic majorizer of the objective
exactly: it majorizes the regularizers and keeps the data term, so the
components couple only within each sample, and the step is a closed-form
2x2 solve per sample (the non-separable MM of Figueiredo, Bioucas-Dias &
Nowak, IEEE TIP 16(12), 2007).  The loop extrapolates along its slow
directions (SQUAREM, with a fixed bound on the step length) only where
that does not raise the cost, so the cost is guaranteed nonincreasing.

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

from ._checks import _as_signal, _check_count, _check_nonnegative, _check_positive, _check_type
from .penalties import PenaltySpec
from .regularizers import WeightArray, _check_mask, _norms, _penalty, _weights


# The bound on the SQUAREM step length |alpha|, the same in every cycle:
# unbounded, the extrapolations overshoot and are rejected in streaks.
STEP_MAX = 8.0


class NumericalError(RuntimeError):
    """Raised when the iteration produces a non-finite cost."""


def _half_sq_norm(r: np.ndarray) -> float:
    # einsum's own loop, not BLAS: np.dot would split the reduction over
    # BLAS threads, which stall whenever another process holds a core.
    return 0.5 * float(np.einsum("i,i->", r, r))


def check_convexity(k0: int, lam0: float, a0: float) -> tuple[bool, float]:
    """Strict-convexity test for the coupling penalty's concavity parameter.

    Returns ``(a0 == 0 or a0 < bound, bound)`` with ``bound = 1 / (k0 *
    lam0)``: ``a0 = 0`` is a convex penalty, so it passes even where
    ``k0 * lam0`` overflows and the bound rounds to 0.  Requires a finite
    ``lam0 > 0``, as the bound is meaningless otherwise, and a finite
    ``a0 >= 0``.
    """
    _check_count("k0", k0)
    _check_positive("lam0", lam0)
    _check_nonnegative("a0", a0)
    bound = 1.0 / (k0 * lam0)
    return a0 == 0 or a0 < bound, bound


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
        _check_nonnegative(name, v)
    _check_count("max_iter", max_iter)
    _check_positive("tol", tol)


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
        for name in ("pen0", "pen1", "pen2"):
            _check_type(name, getattr(self, name), PenaltySpec)
        lams = {"lam0": self.lam0, "lam1": self.lam1, "lam2": self.lam2}
        _check_run(self.max_iter, self.tol, (self.pen1, self.pen2), **lams)
        _check_count("k0", self.k0)
        for name in ("b1", "b2"):
            _check_type(name, getattr(self, name), WeightArray)
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
    35, 2008, scheme S3) with its step length bounded by :data:`STEP_MAX`.

    ``norms_and_cost(*xs)`` returns the smoothed window norms at the iterate
    and its cost; ``update(norms, *xs)`` minimizes the majorizer built from
    those norms and returns the next iterate, one map evaluation.  Each cycle
    takes two plain steps ``x -> x1 -> x2``, sets ``r = x1 - x``,
    ``v = x2 - x1 - r`` and ``alpha = min(-1, -||r|| / ||v||)`` (both norms
    summed over the components), clamped at ``-STEP_MAX``, and takes one
    step from ``x - 2*alpha*r + alpha**2 * v``; that step is kept only if
    its cost is no higher than cost(x2), so the cost never rises and a
    non-finite extrapolation (NaN or inf fails that test) is rejected.  A
    kept and a rejected extrapolation differ only in the iterate held: no
    state but the cost history outlives a cycle.

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
    limit (an infinite majorizer denominator gives a weight of 0, an
    infinite weight a component of 0) or shows up as a non-finite cost.
    The result's residual is ``y`` minus the components, subtracted in
    order.
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
            alpha = -1.0 if sv == 0.0 else max(-STEP_MAX, min(-1.0, -math.sqrt(sr / sv)))
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
            else:
                c = costs[-1]
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
        # the exact minimizer of the majorizer, which keeps the data term and
        # so couples the components only within each sample.  With p_i =
        # lam_i*w_i, one component takes y/(1 + p1); two solve [[t + p1, t],
        # [t, t + p2]] x = [y, y] with t = 1 + lam0*w0: x1 = p2*g and x2 =
        # p1*g for g = y/D, D = t*(p1 + p2) + p1*p2, all in place
        norms, u0 = all_norms
        ps = []
        for u, (lam, b, pen) in zip(norms, groups):
            p = _weights(b, u, pen)
            p *= lam
            ps.append(p)
        if len(xs) == 1:
            p = ps[0]
            p += 1.0
            return [np.divide(y, p, out=p)]
        t = 1.0
        if coupling is not None:
            t = _weights(b0, u0, pen0)
            t *= lam0
            t += 1.0
        p1, p2 = ps
        d = p1 + p2
        d *= t
        g = p1 * p2
        d += g
        np.divide(y, d, out=g)
        # d*g is y wherever D is finite and nonzero and y/D does not
        # overflow, so one reduction finds every sample where the closed
        # form fails; its sum overflowing only sends finite samples there too
        edge = None
        if not math.isfinite(np.einsum("i,i->", d, g)):
            edge = ~np.isfinite(d * g)
            y_e, t_e = y[edge], np.broadcast_to(t, n)[edge]
            p1_e, p2_e, x1_e, x2_e = (v[edge] for v in (p1, p2, *xs))
            x1_edge = _edge_step(y_e, t_e, p1_e, p2_e, x1_e, x2_e)
            x2_edge = _edge_step(y_e, t_e, p2_e, p1_e, x2_e, x1_e)
        p2 *= g
        p1 *= g
        if edge is not None:
            p2[edge] = x1_edge
            p1[edge] = x2_edge
        return [p2, p1]

    return norms_and_cost, update


def _edge_step(y, t, p_i, p_j, x_i, x_j):
    """Component i of the two-component step at samples where the closed
    form fails.  Where ``p_i = p_j = 0`` the majorizer is flat along
    ``x1 - x2``: the step takes the point of ``x1 + x2 = y/t`` nearest the
    iterate ``(x_i, x_j)``.  Elsewhere a weight, ``D`` or ``y/D`` has
    overflowed, and ``y/(t + p_i + t*p_i/p_j)``, the closed form divided
    through by ``p_j`` with ``p_i/p_j`` taken as 1 where the two are equal,
    gives the limit: 0 where ``p_i`` is inf, and ``y/(t + p_i)`` where
    ``p_j`` is inf.  The same function of ``(i, j)`` for both components,
    so a 1<->2 swap swaps the result bit for bit."""
    ratio = np.divide(p_i, p_j, out=np.ones_like(p_i), where=p_i != p_j)
    x = y / (t + p_i + t * ratio)
    flat = (p_i == 0) & (p_j == 0)
    x[flat] = ((y + t * (x_i - x_j)) / (2.0 * t))[flat]
    return x


def _resolve_init(y, init):
    if init is None:
        return y.copy(), y.copy()
    if isinstance(init, str):
        raise ValueError(f"init must be None or a pair of arrays, got {init!r}")
    if len(init) != 2:
        raise ValueError(f"init must be None or a pair of arrays, got {len(init)} arrays")
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
    _check_type("cfg", cfg, SolverConfig)
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
    _check_positive("lam", lam)
    _check_type("spec", spec, PenaltySpec)
    _check_run(max_iter, tol, (spec,))
    norms_and_cost, update = _objective(y, ((lam, b, spec),), None)
    res = _mm(y, (y.copy(),), norms_and_cost, update, max_iter, tol)
    if full_output:
        return res.x1, res.cost_history, res.iterations, res.converged
    return res
