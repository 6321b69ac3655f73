"""Sparsity-promoting penalty families and their scalar quadratic majorizers.

Four families are supported: "abs" (plain absolute value), and three
non-convex relatives "log", "rat" and "atan".  The package uses the
smoothed form of each, which evaluates the raw penalty at sqrt(u^2 + eps)
instead of |u| so that it is continuously differentiable everywhere.  All
functions are vectorized over numpy arrays and accept plain scalars.  A group
penalty's smoothed window norms ``sqrt(S + eps)``, computed once per iterate,
give both its cost (``_value_at``) and its majorizer weights (``_denom_at``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("abs", "log", "rat", "atan")


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family with concavity parameter ``a`` and smoothing ``eps``.

    ``a`` controls how aggressively the penalty promotes sparsity; ``a = 0``
    always degenerates to the "abs" penalty.  ``eps`` must stay strictly
    positive so that every derived quantity (in particular the majorizer
    denominator) is bounded away from zero.  Both must be finite.
    """

    family: str = "abs"
    a: float = 0.0
    eps: float = 1e-10

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown penalty family {self.family!r}, expected one of {FAMILIES}"
            )
        if not 0 <= self.a < np.inf:
            raise ValueError(f"concavity parameter a must be finite and >= 0, got {self.a}")
        if self.family == "abs" and self.a != 0:
            raise ValueError("'abs' penalty requires a == 0")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"smoothing eps must be finite and > 0, got {self.eps}")


def _value_at(t, a, family):
    # Penalty evaluated at a nonnegative magnitude t.  a == 0 is handled by
    # the abs branch for every family (closed forms divide by a otherwise).
    if a == 0.0 or family == "abs":
        return t
    if family == "log":
        return np.log1p(a * t) / a
    if family == "rat":
        return t / (1.0 + 0.5 * a * t)
    # atan
    c = 2.0 / (a * np.sqrt(3.0))
    return c * (np.arctan((1.0 + 2.0 * a * t) / np.sqrt(3.0)) - np.pi / 6.0)


def _denom_at(t, a, family):
    # t / (d/dt of the smoothed penalty), evaluated at magnitude t >= 0.
    if a == 0.0 or family == "abs":
        return t
    if family == "log":
        return t * (1.0 + a * t)
    if family == "rat":
        return t * (1.0 + 0.5 * a * t) ** 2
    at = a * t
    return t * (1.0 + at + at * at)


def smoothed_penalty(u, spec: PenaltySpec):
    """Smoothed penalty: the raw penalty evaluated at sqrt(u^2 + eps)."""
    u = np.asarray(u, dtype=float)
    return _value_at(np.sqrt(u * u + spec.eps), spec.a, spec.family)


def majorizer_denom(u, spec: PenaltySpec):
    """Denominator of the quadratic majorizer of the smoothed penalty.

    Equals u / (d/du smoothed_penalty(u)) and is strictly positive for every
    real u (eps > 0).  The majorizer anchored at v is
    ``u^2 / (2 * majorizer_denom(v)) + const(v)``.
    """
    u = np.asarray(u, dtype=float)
    return _denom_at(np.sqrt(u * u + spec.eps), spec.a, spec.family)

