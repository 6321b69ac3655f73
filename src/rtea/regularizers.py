"""Overlapping-group regularizers and their majorization weight sequences.

The group penalty sums a smoothed penalty of masked sliding-window norms of
the signal.  Signals are zero-padded, and the window sum runs over every
position where the mask overlaps the signal, i.e. positions
``-(K-1) .. N-1`` for a mask of length K over a signal of length N.

Both the penalty and the weight sequences come from a term's smoothed
window norms ``sqrt(S + eps)``, computed once per iterate by :func:`_norms`,
and every convolution with a mask goes through :meth:`WeightArray._convolve`
in one of two shapes: the full convolution of ``x*x``, whose entries are the
window sums, and the valid part of the convolution of the per-window weights
``1/denom(u)``, one entry per sample.  A mask is m+1 copies of an n1-sample
box at stride ``period``, so either shape is one convolution with the box's
n1 ones, made once per mask, plus m+1 adds of it shifted by the period:
O(N*(n1+m)) work instead of O(N*K), with every sum of nonnegative terms
staying nonnegative.  Nothing else is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._checks import _as_signal, _check_count, _check_type
from .penalties import PenaltySpec, _denom_at, _value_at


@dataclass(frozen=True)
class WeightArray:
    """Binary periodic mask: (m+1) runs of ``n1`` ones separated by m runs
    of ``n0`` zeros; it begins and ends with a ones-run.

    ``m`` is the number of periods spanned.  The degenerate ``m = 0`` form
    (a single ones-run, ``n0 = 0``) is permitted so that a plain group of
    size ``n1`` can be expressed with the same type.
    """

    n1: int
    n0: int
    m: int

    def __post_init__(self):
        _check_count("n1", self.n1)
        _check_count("n0", self.n0, 0)
        _check_count("m", self.m, 0)
        if self.m == 0 and self.n0 != 0:
            raise ValueError("m == 0 (single ones-run) requires n0 == 0")

    @property
    def period(self) -> int:
        return self.n1 + self.n0

    def __len__(self) -> int:
        return self.m * (self.n1 + self.n0) + self.n1

    @classmethod
    def ones(cls, k: int) -> "WeightArray":
        """All-ones mask of length k (a single group, no period structure)."""
        return cls(n1=k, n0=0, m=0)

    @cached_property
    def _box(self) -> np.ndarray:
        # the n1 ones of the box convolution, read-only, made once per mask
        box = np.ones(self.n1)
        box.flags.writeable = False
        return box

    def _convolve(self, v: np.ndarray, valid: bool = False) -> np.ndarray:
        """The full convolution of ``v`` with the mask, ``len(v) + K - 1``
        entries for a mask of length K, or with ``valid`` its
        ``len(v) - K + 1`` entries where the mask lies wholly inside ``v``.

        The box convolution of ``v`` is added at each shift ``k*period``.  The
        mask is a palindrome, so this is also its correlation with ``v``: for
        ``v = x*x`` full entry i is the window sum at position ``i - (K-1)``.
        """
        box, p = np.convolve(v, self._box), self.period
        if valid:
            out = np.zeros(v.size - len(self) + 1)
            for k in range(self.m, -1, -1):
                lo = k * p + self.n1 - 1
                out += box[lo : lo + out.size]
            return out
        out = np.zeros(v.size + len(self) - 1)
        for k in range(self.m + 1):
            out[k * p : k * p + box.size] += box
        return out


def _check_mask(b, n: int) -> None:
    """The one mask check of every path: a ``WeightArray`` no longer than
    the ``n``-sample signal it slides over."""
    _check_type("mask", b, WeightArray)
    # the length arithmetically: len() refuses one past sys.maxsize
    length = b.m * b.period + b.n1
    if length > n:
        raise ValueError(f"mask length {length} exceeds signal length {n}")


def _norms(b: WeightArray, x: np.ndarray, spec: PenaltySpec) -> np.ndarray:
    # smoothed window norms sqrt(S + eps) of x under b, for the term's cost and weights
    s = b._convolve(x * x)
    s += spec.eps
    return np.sqrt(s, out=s)


def _penalty(u: np.ndarray, spec: PenaltySpec) -> float:
    return float(_value_at(u, spec.a, spec.family).sum())


def _weights(b: WeightArray, u: np.ndarray, spec: PenaltySpec) -> np.ndarray:
    # majorizer weights of the signal whose smoothed window norms under b are u
    return b._convolve(1.0 / _denom_at(u, spec.a, spec.family), valid=True)


def group_penalty(x, b, spec: PenaltySpec) -> float:
    """Repetitive group-sparsity penalty of ``x`` under binary mask ``b``.

    Sums the smoothed penalty of the masked window root-sum-squares over
    every window position overlapping the (zero-padded) signal.
    """
    x = _as_signal(x, "x")
    _check_mask(b, x.size)
    _check_type("spec", spec, PenaltySpec)
    return _penalty(_norms(b, x, spec), spec)


def majorizer_weights(z, b, spec: PenaltySpec) -> np.ndarray:
    """Per-sample weights of the quadratic majorizer of the group penalty.

    At anchor ``z`` the majorizer is ``0.5 * sum_n w[n] * x[n]^2 + const(z)``
    where ``w = majorizer_weights(z, b, spec)``.  Strictly positive.
    """
    z = _as_signal(z, "z")
    _check_mask(b, z.size)
    _check_type("spec", spec, PenaltySpec)
    return _weights(b, _norms(b, z, spec), spec)


def combined_majorizer_weights(z, k0: int, spec: PenaltySpec) -> np.ndarray:
    """Majorizer weights for the all-ones mask of size k0 (sum regularizer)."""
    _check_count("k0", k0)
    return majorizer_weights(z, WeightArray.ones(k0), spec)

