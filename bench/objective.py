"""The decomposition objective, evaluated by the benchmark itself.

Window sums are gathered straight from the definition of a masked sliding
window (one strided view of the zero-padded squares, summed over the
mask's ones), not with ``np.convolve`` and not with the package, so the
value checks the program's reported cost from outside.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def periodic_mask(n1: int, period: int, m: int) -> np.ndarray:
    """0/1 mask: m+1 runs of n1 ones at stride ``period``."""
    mask = np.zeros(m * period + n1)
    for k in range(m + 1):
        mask[k * period : k * period + n1] = 1.0
    return mask


def window_sums(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked sums of x**2 at every window position overlapping the
    zero-padded signal, positions -(K-1) .. N-1."""
    k = mask.size
    padded = np.concatenate([np.zeros(k - 1), x * x, np.zeros(k - 1)])
    ones = np.flatnonzero(mask)
    return sliding_window_view(padded, k)[:, ones].sum(axis=1)


def phi(t: np.ndarray, family: str, a: float) -> np.ndarray:
    """Penalty at magnitude t >= 0 for the abs / log / rat / atan families."""
    if a == 0.0 or family == "abs":
        return t
    if family == "log":
        return np.log1p(a * t) / a
    if family == "rat":
        return t / (1.0 + 0.5 * a * t)
    if family == "atan":
        c = 2.0 / (a * np.sqrt(3.0))
        return c * (np.arctan((1.0 + 2.0 * a * t) / np.sqrt(3.0)) - np.pi / 6.0)
    raise ValueError(f"unknown penalty family {family!r}")


def group_term(x, mask, family: str, a: float, eps: float) -> float:
    return float(np.sum(phi(np.sqrt(window_sums(x, mask) + eps), family, a)))


def objective(y, xs, problem: dict) -> float:
    """0.5*||y - sum(xs)||^2 + lam0*coupling + sum_i lam_i*group_i.

    ``problem`` holds ``lam0``, ``k0``, ``pen0`` = (family, a), ``eps`` and a
    list ``groups`` of (lam_i, mask_i, family_i, a_i), one per component.
    """
    total = np.sum(xs, axis=0)
    r = y - total
    cost = 0.5 * float(np.dot(r, r))
    eps = problem["eps"]
    if problem.get("lam0", 0.0) > 0:
        family, a = problem["pen0"]
        cost += problem["lam0"] * group_term(total, np.ones(problem["k0"]), family, a, eps)
    reg = 0.0
    for (lam, mask, family, a), x in zip(problem["groups"], xs):
        reg += lam * group_term(x, mask, family, a, eps)
    return cost + reg
