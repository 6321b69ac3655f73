"""The input rules of the package, each written once: a signal, a count, a
real (positive, nonnegative or a fraction in [0, 1)) and a config object
are checked here on every path, so each rule has one wording.  A leaf
module: of the package it imports nothing, so every other module can
import it."""

from __future__ import annotations

import numbers

import numpy as np


def _as_signal(x, name: str = "signal", min_size: int = 1) -> np.ndarray:
    """The one check of every signal that enters the package: ``x`` as a 1-D
    float array of at least ``min_size`` samples, all finite.  Its errors
    call the argument ``name``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-D signal, got shape {x.shape}")
    if x.size < min_size:
        raise ValueError(f"{name} needs at least {min_size} samples, got {x.size}")
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        i = int(bad[0])
        raise ValueError(
            f"non-finite input: {name} contains non-finite samples ({bad.size} of "
            f"{x.size}), the first {name}[{i}] = {x[i]}"
        )
    return x


def _check_count(name: str, value, minimum: int = 1) -> None:
    """The one check of every size, count and budget: ``value`` an integer
    (a numpy integer is one; a bool is not, nor is a float, even 3.0) of at
    least ``minimum``.  Its errors call the argument ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_real(name: str, value) -> None:
    """The one type rule of every real-valued setting: ``value`` a real
    number (a numpy real scalar is one; a bool is not, nor is a str, None or
    a complex).  Its error calls the argument ``name``."""
    # a bool compares as 0 or 1, but it is not a real
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


def _check_positive(name: str, value) -> None:
    """The one check of every rate, period, tolerance, smoothing and weight
    that must not vanish: ``value`` a finite real > 0.  Its errors call the
    argument ``name``."""
    _check_real(name, value)
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be a finite positive real, got {value}")


def _check_nonnegative(name: str, value) -> None:
    """The one check of every weight, concavity and noise level that may be
    0: ``value`` a finite real >= 0.  Its errors call the argument ``name``."""
    _check_real(name, value)
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be a finite nonnegative real, got {value}")


def _check_fraction(name: str, value) -> None:
    """The one check of every share of a budget or a bound: ``value`` a real
    in [0, 1).  Its errors call the argument ``name``."""
    _check_real(name, value)
    if not 0 <= value < 1:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")


def _check_type(name: str, value, cls: type) -> None:
    """The one check of every config object: ``value`` an instance of
    ``cls``, passed in so this module imports no other module of the
    package.  Its error calls the argument ``name``."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
