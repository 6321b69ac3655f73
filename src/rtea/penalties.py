"""Sparsity-promoting penalty families and their scalar quadratic majorizers.

Four families are available: "abs" (plain absolute value), and three
non-convex relatives "log", "rat" and "atan".  The package uses the
smoothed form of each, which evaluates the raw penalty at sqrt(u^2 + eps)
instead of |u| so that it is continuously differentiable everywhere.  All
functions are vectorized over numpy arrays and accept plain scalars and 0-d
arrays, for which they return a scalar.  A group penalty's smoothed window
norms ``sqrt(S + eps)``, computed once per iterate, give both its cost
(``_value_at``) and its majorizer weights (``_denom_at``).  These two kernels
compute each closed form in place on one or two new arrays, in the operation
order of its plain expression, so the values are those of the expression bit
for bit; the magnitudes passed in are never written to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _check_nonnegative, _check_positive

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
        _check_nonnegative("a", self.a)
        if self.family == "abs" and self.a != 0:
            raise ValueError("'abs' penalty requires a == 0")
        _check_positive("eps", self.eps)


def _value_at(t, a, family):
    # Penalty evaluated at a nonnegative magnitude t.  a == 0 is handled by
    # the abs branch for every family (closed forms divide by a otherwise).
    # Each closed form runs in place on one new array r, in the operation
    # order of the expression in its comment; np.asarray keeps r an array
    # where t is 0-d, so that out= takes it.
    if a == 0.0 or family == "abs":
        return t
    if family == "log":
        # log1p(a*t) / a
        r = np.asarray(a * t)
        np.log1p(r, out=r)
        r /= a
        return r
    if family == "rat":
        # t / (1 + 0.5*a*t)
        r = np.asarray(0.5 * a * t)
        r += 1.0
        return np.divide(t, r, out=r)
    # atan: c*(arctan((1 + 2at)/sqrt(3)) - pi/6), as the one arctan that
    # keeps its precision where a*t is small,
    #     c * arctan(sqrt(3)*at / (2 + at)),  at = min(a*t, 2**60).
    # Past 2**60, 2 + at rounds to at, so the cap moves no value and keeps
    # t = inf at the limit c*pi/3
    c = 2.0 / (a * np.sqrt(3.0))
    r = np.asarray(a * t)
    np.minimum(r, 2.0**60, out=r)
    q = np.sqrt(3.0) * r
    r += 2.0
    q /= r
    np.arctan(q, out=r)
    r *= c
    return r


def _denom_at(t, a, family):
    # t / (d/dt of the smoothed penalty), evaluated at magnitude t >= 0, in
    # place on one new array r as in _value_at
    if a == 0.0 or family == "abs":
        return t
    if family == "log":
        # t * (1 + a*t)
        r = np.asarray(a * t)
        r += 1.0
    elif family == "rat":
        # t * (1 + 0.5*a*t)**2
        r = np.asarray(0.5 * a * t)
        r += 1.0
        r *= r
    else:
        # t * (1 + at + at*at),  at = a*t
        r = np.asarray(a * t)
        sq = r * r
        r += 1.0
        r += sq
    r *= t
    return r


def smoothed_penalty(u, spec: PenaltySpec):
    """Smoothed penalty: the raw penalty evaluated at sqrt(u^2 + eps)."""
    u = np.asarray(u, dtype=float)
    # [()] makes a 0-d result a scalar, as numpy's own ufuncs do
    return _value_at(np.sqrt(u * u + spec.eps), spec.a, spec.family)[()]


def majorizer_denom(u, spec: PenaltySpec):
    """Denominator of the quadratic majorizer of the smoothed penalty.

    Equals u / (d/du smoothed_penalty(u)) and is strictly positive for every
    real u (eps > 0).  The majorizer anchored at v is
    ``u^2 / (2 * majorizer_denom(v)) + const(v)``.
    """
    u = np.asarray(u, dtype=float)
    return _denom_at(np.sqrt(u * u + spec.eps), spec.a, spec.family)[()]
