"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain nested loops straight from the
definitions, deliberately avoiding the convolution/sliding-window code
paths used by the package.
"""

import numpy as np

from rtea.penalties import majorizer_denom, smoothed_penalty


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
        total += cfg.lam1 * group_penalty_loops(x1, cfg.b1.array, cfg.pen1)
    if cfg.lam2:
        total += cfg.lam2 * group_penalty_loops(x2, cfg.b2.array, cfg.pen2)
    return total


def analytic_gradient(y, x1, x2, cfg):
    """Gradient of the smooth objective, from the weight identities."""
    from rtea.regularizers import combined_majorizer_weights, majorizer_weights

    resid = -(y - x1 - x2)
    g0 = 0.0
    if cfg.lam0:
        g0 = cfg.lam0 * combined_majorizer_weights(x1 + x2, cfg.k0, cfg.pen0) * (x1 + x2)
    g1 = resid + g0 + cfg.lam1 * majorizer_weights(x1, cfg.b1, cfg.pen1) * x1
    g2 = resid + g0 + cfg.lam2 * majorizer_weights(x2, cfg.b2, cfg.pen2) * x2
    return g1, g2
