"""Overlapping-group regularizers and their majorization weight sequences.

The group penalty sums a smoothed penalty of masked sliding-window norms of
the signal.  Signals are zero-padded, and the window sum runs over every
position where the mask overlaps the signal, i.e. positions
``-(K-1) .. N-1`` for a mask of length K over a signal of length N.

Both the penalty and the weight sequences come from a term's smoothed
window norms ``sqrt(S + eps)``, computed once per iterate by :func:`_norms`,
and every convolution with a mask goes through :meth:`WeightArray._convolve`.
A mask is m+1 copies of an n1-sample box at stride ``period``, so each
convolution is one length-n1 box convolution plus m+1 shifted slice-adds:
O(N*(n1+m)) work instead of O(N*K), with every sum of nonnegative terms
staying nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.n1 < 1:
            raise ValueError(f"ones-run length n1 must be >= 1, got {self.n1}")
        if self.n0 < 0:
            raise ValueError(f"zeros-run length n0 must be >= 0, got {self.n0}")
        if self.m < 0:
            raise ValueError(f"period count m must be >= 0, got {self.m}")
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

    def _convolve(self, v: np.ndarray, start: int = 0, size: int | None = None) -> np.ndarray:
        """Entries ``start .. start+size-1`` of the full convolution of ``v``
        with the mask (all ``len(v) + len(self) - 1`` of them by default).

        The box convolution of ``v`` is added at each shift ``k*period``.  The
        mask is a palindrome, so this is also its correlation with ``v``: for
        ``v = x*x`` entry i is the window sum at position ``i - (K-1)``.
        """
        box = np.convolve(v, np.ones(self.n1))
        if size is None:
            size = v.size + len(self) - 1
        out = np.zeros(size)
        for k in range(self.m + 1):
            shift = k * self.period - start  # out index of box[0]
            lo, hi = max(0, -shift), min(box.size, size - shift)
            if lo < hi:
                out[lo + shift : hi + shift] += box[lo:hi]
        return out


def _check_mask(b, n: int) -> None:
    """The one mask check of every path: a ``WeightArray`` no longer than
    the ``n``-sample signal it slides over."""
    if not isinstance(b, WeightArray):
        raise TypeError(f"mask must be a WeightArray, got {type(b).__name__}")
    if len(b) > n:
        raise ValueError(f"mask length {len(b)} exceeds signal length {n}")


def _as_signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    return x


def _norms(b: WeightArray, x: np.ndarray, spec: PenaltySpec) -> np.ndarray:
    # smoothed window norms sqrt(S + eps) of x under b, for the term's cost and weights
    return np.sqrt(b._convolve(x * x) + spec.eps)


def _penalty(u: np.ndarray, spec: PenaltySpec) -> float:
    return float(np.sum(_value_at(u, spec.a, spec.family)))


def _weights(b: WeightArray, u: np.ndarray, n: int, spec: PenaltySpec) -> np.ndarray:
    # majorizer weights of the n-sample signal whose smoothed window norms under b are u
    return b._convolve(1.0 / _denom_at(u, spec.a, spec.family), len(b) - 1, n)


def group_penalty(x, b, spec: PenaltySpec) -> float:
    """Repetitive group-sparsity penalty of ``x`` under binary mask ``b``.

    Sums the smoothed penalty of the masked window root-sum-squares over
    every window position overlapping the (zero-padded) signal.
    """
    x = _as_signal(x)
    _check_mask(b, x.size)
    return _penalty(_norms(b, x, spec), spec)


def majorizer_weights(z, b, spec: PenaltySpec) -> np.ndarray:
    """Per-sample weights of the quadratic majorizer of the group penalty.

    At anchor ``z`` the majorizer is ``0.5 * sum_n w[n] * x[n]^2 + const(z)``
    where ``w = majorizer_weights(z, b, spec)``.  Strictly positive.
    """
    z = _as_signal(z)
    _check_mask(b, z.size)
    return _weights(b, _norms(b, z, spec), z.size, spec)


def combined_majorizer_weights(z, k0: int, spec: PenaltySpec) -> np.ndarray:
    """Majorizer weights for the all-ones mask of size k0 (sum regularizer)."""
    if k0 < 1:
        raise ValueError(f"group size k0 must be >= 1, got {k0}")
    return majorizer_weights(z, WeightArray.ones(k0), spec)

