"""Independent brute-force reference implementations used by the tests.

The sums, penalties and weights are written as plain nested loops straight
from the definitions, deliberately avoiding the convolution/sliding-window
code paths used by the package; ``shift_add_sums`` is the one exception,
the masked sums as a zeros buffer plus shifted adds, which pins the order
the package's masked-sum primitive adds in.  The gradient and the majorizer gaps at the
end are built from the package's public regularizer functions; they test
identities that must hold between those functions.  The helpers in between
(raw penalty, scalar majorizer, coupling penalty, single transient, a
benchmark record, row-wise CSV writer) are the small pieces of the model the tests call directly;
``mm_step`` takes one update of the solver's own loop, and
``squarem_cycle`` rebuilds one accelerated cycle from three of them.
"""

import csv
import io
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from rtea._checks import _as_signal
from rtea.penalties import _value_at, majorizer_denom, smoothed_penalty
from rtea.regularizers import (
    WeightArray,
    combined_majorizer_weights,
    group_penalty,
    majorizer_weights,
)
from rtea.solver import STEP_MAX, rtea_solve
from rtea.synth import _draw_transient


def dense_mask(b):
    """The 0/1 mask of a ``WeightArray`` as a float array of length len(b)."""
    unit = np.concatenate([np.ones(b.n1), np.zeros(b.n0)])
    return np.concatenate([np.tile(unit, b.m), np.ones(b.n1)])


def shift_add_sums(v, b, valid=False):
    """A ``WeightArray``'s masked sums of ``v`` as a zeros buffer plus m+1
    adds of the box convolution ``np.convolve(v, ones(n1))``, shifted by
    k*period: k = 0..m into the full convolution, or k = m..0 into its
    ``len(v) - K + 1`` valid entries.  Fixes the order every entry is
    summed in, bit for bit, for ``WeightArray._convolve``."""
    box, p = np.convolve(v, np.ones(b.n1)), b.n1 + b.n0
    if valid:
        out = np.zeros(v.size - len(b) + 1)
        for k in range(b.m, -1, -1):
            lo = k * p + b.n1 - 1
            out += box[lo : lo + out.size]
        return out
    out = np.zeros(v.size + len(b) - 1)
    for k in range(b.m + 1):
        out[k * p : k * p + box.size] += box
    return out


def window_sums_loops(x, b):
    """Masked sums of x**2 at window positions -(K-1) .. N-1, zero-padded."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    n_sig, k = len(x), len(b)
    sums = []
    for n in range(-(k - 1), n_sig):
        s = 0.0
        for j in range(k):
            i = n + j
            if 0 <= i < n_sig:
                s += b[j] * x[i] ** 2
        sums.append(s)
    return np.array(sums)


def group_penalty_loops(x, b, spec):
    """Double-loop group penalty over all window positions, zero-padded."""
    return sum(float(smoothed_penalty(np.sqrt(s), spec)) for s in window_sums_loops(x, b))


def combined_penalty_loops(x1, x2, k0, spec):
    return group_penalty_loops(np.asarray(x1) + np.asarray(x2), np.ones(k0), spec)


def weights_loops(z, b, spec):
    """Triple-loop majorizer weights, one entry per signal sample."""
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    n_sig, k = len(z), len(b)
    r = np.zeros(n_sig)
    for n in range(n_sig):
        acc = 0.0
        for j in range(k):
            if b[j] == 0.0:
                continue
            s = 0.0
            for t in range(k):
                i = n - j + t
                if 0 <= i < n_sig:
                    s += b[t] * z[i] ** 2
            acc += b[j] / float(majorizer_denom(np.sqrt(s), spec))
        r[n] = acc
    return r


def combined_weights_loops(z, k0, spec):
    return weights_loops(z, np.ones(k0), spec)


def penalty(u, spec):
    """Raw (non-smoothed) penalty value; even in u, increasing on u >= 0."""
    return _value_at(np.abs(np.asarray(u, dtype=float)), spec.a, spec.family)


def majorize_scalar(u, v, spec):
    """Quadratic upper bound of smoothed_penalty(u), tangent at u = v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = majorizer_denom(v, spec)
    return u * u / (2.0 * d) - (v * v / (2.0 * d) - smoothed_penalty(v, spec))


def combined_penalty(x1, x2, k0, spec):
    """Group penalty of the sum x1 + x2 with an all-ones mask of size k0."""
    x1 = _as_signal(x1)
    x2 = _as_signal(x2)
    if x1.size != x2.size:
        raise ValueError(f"length mismatch: {x1.size} vs {x2.size}")
    if k0 < 1:
        raise ValueError(f"group size k0 must be >= 1, got {k0}")
    return group_penalty(x1 + x2, WeightArray.ones(k0), spec)


def gen_transient(train, seed=None):
    """Draw one transient of ``train``, seeded by ``train.seed`` unless
    ``seed`` is given: the draw ``gen_train`` makes at each onset."""
    return _draw_transient(np.random.default_rng(train.seed if seed is None else seed), train)


def bench_record(workload, index):
    """Record ``index`` of a benchmark workload's pool, made by
    ``bench/workloads.py`` imported as the benchmark does and forgotten
    after."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    sys.modules.pop("workloads", None)
    try:
        from workloads import WORKLOADS, make_record

        return make_record(WORKLOADS[workload], index)
    finally:
        sys.modules.pop("workloads", None)
        sys.path.remove(bench)


def csv_rowwise(columns):
    """The CSV text of named columns, formatted value by value: integers
    with ``str``, everything else as ``repr(float(v))``, LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    for row in zip(*(np.asarray(c) for c in columns.values())):
        writer.writerow(
            [str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row]
        )
    return buf.getvalue()


def mm_step(y, x1, x2, cfg):
    """One update of ``rtea_solve``'s loop from ``(x1, x2)``, taken by a
    one-iteration ``rtea_solve``: returns the next iterate and the costs
    ``[at (x1, x2), at the next iterate]``."""
    res = rtea_solve(y, replace(cfg, max_iter=1), init=(x1, x2))
    return res.x1, res.x2, res.cost_history


def squarem_cycle(y, x1, x2, cfg):
    """One whole cycle of ``rtea_solve``'s loop from ``(x1, x2)``, rebuilt
    from three ``mm_step`` calls: two plain steps ``x -> a -> b``, then one
    step from ``x - 2*alpha*r + alpha**2 * v`` with ``r = a - x``,
    ``v = b - a - r`` and ``alpha = min(-1, -||r|| / ||v||)`` over both
    components, clamped at ``-STEP_MAX``, kept only if its cost is finite
    and at most cost(b).  Returns the held iterate, the three costs the
    loop records and whether the extrapolation was kept."""
    a1, a2, (_, ca) = mm_step(y, x1, x2, cfg)
    b1, b2, (_, cb) = mm_step(y, a1, a2, cfg)
    rs = (a1 - x1, a2 - x2)
    vs = (b1 - a1 - rs[0], b2 - a2 - rs[1])

    def sq(u):
        # the loop's reduction order, so that alpha agrees to the last bit
        return 0.5 * float(np.einsum("i,i->", u, u))

    sv = sq(vs[0]) + sq(vs[1])
    alpha = -1.0 if sv == 0.0 else min(-1.0, -math.sqrt((sq(rs[0]) + sq(rs[1])) / sv))
    alpha = max(alpha, -STEP_MAX)
    e1, e2 = (x + (-2.0 * alpha) * r + (alpha * alpha) * v for x, r, v in zip((x1, x2), rs, vs))
    e1, e2, (_, ce) = mm_step(y, e1, e2, cfg)
    if np.isfinite(ce) and ce <= cb:
        return e1, e2, [ca, cb, ce], True
    return b1, b2, [ca, cb, cb], False


def mm_cost(y, x1, x2, cfg):
    """The objective at ``(x1, x2)`` as ``rtea_solve`` evaluates it."""
    return mm_step(y, x1, x2, cfg)[2][0]


def cost_loops(y, x1, x2, cfg):
    """Objective value recomputed term by term from the definitions."""
    y = np.asarray(y, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    data = 0.5 * sum((y[i] - x1[i] - x2[i]) ** 2 for i in range(len(y)))
    total = data
    if cfg.lam0:
        total += cfg.lam0 * combined_penalty_loops(x1, x2, cfg.k0, cfg.pen0)
    if cfg.lam1:
        total += cfg.lam1 * group_penalty_loops(x1, dense_mask(cfg.b1), cfg.pen1)
    if cfg.lam2:
        total += cfg.lam2 * group_penalty_loops(x2, dense_mask(cfg.b2), cfg.pen2)
    return total


def analytic_gradient(y, x1, x2, cfg):
    """Gradient of the smooth objective, from the weight identities."""
    resid = -(y - x1 - x2)
    g0 = 0.0
    if cfg.lam0:
        g0 = cfg.lam0 * combined_majorizer_weights(x1 + x2, cfg.k0, cfg.pen0) * (x1 + x2)
    g1 = resid + g0 + cfg.lam1 * majorizer_weights(x1, cfg.b1, cfg.pen1) * x1
    g2 = resid + g0 + cfg.lam2 * majorizer_weights(x2, cfg.b2, cfg.pen2) * x2
    return g1, g2


def group_majorizer_gap(x, z, b, spec):
    """Majorizer value minus the true group penalty, anchored at ``z``.

    The additive constant is resolved by tangency (gap(z, z) == 0); the
    result is nonnegative up to floating-point roundoff.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    w = majorizer_weights(z, b, spec)
    quad_x = 0.5 * float(np.sum(w * x * x))
    quad_z = 0.5 * float(np.sum(w * z * z))
    return quad_x - quad_z + group_penalty(z, b, spec) - group_penalty(x, b, spec)


def combined_majorizer_gap(x1, x2, z1, z2, k0, spec):
    """Majorizer of the sum-coupling penalty minus the penalty itself, as the
    step minimizes it: the group majorizer of the sum x1 + x2, anchored at
    (z1, z2).  Zero at (x1, x2) == (z1, z2) and wherever x1 + x2 == z1 + z2,
    and nonnegative everywhere else (up to roundoff)."""
    x1, x2, z1, z2 = (np.asarray(v, dtype=float) for v in (x1, x2, z1, z2))
    return group_majorizer_gap(x1 + x2, z1 + z2, WeightArray.ones(k0), spec)
