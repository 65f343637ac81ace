"""Decay-exponent fits, the Anderson integral, and digamma/trigamma.

The overlap with the idealized jump symbol decays like N^(-2 delta^2/pi^2)
(exact exponent), while det(A) <= exp(-tr(1-A)) bounds it from above by
exp(-I_N) with I_N the Anderson integral

    I_N = sum_{j in W} sum_{k not in W} |<phi_j, e^{i g~} phi_k>|^2,

W a window of N consecutive indices.  Because the squared entries depend
on j - k only, I_N depends on the window solely through its length, and
rescaling the double sum gives

    I_N = (sin^2 delta / pi^2) * [ S(c) + S(-c)
          + N (psi_1(N+1-c) + psi_1(N+1+c)) ],      c = delta / pi,
    S(c) = sum_{t=1}^{N} t / (t - c)^2.

The infinite tails are trigamma values, evaluated by recurrence plus the
asymptotic Bernoulli series, never by truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

# Bernoulli numbers B_2 .. B_12 for the asymptotic expansions.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)
_SHIFT = 16.0


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("polygamma requires strictly positive finite arguments")
    return arr, scalar


def digamma(x):
    """psi(x) for x > 0, relative error <= 1e-13 (recurrence + asymptotics)."""
    arr, scalar = _prepare(x)
    steps = int(np.ceil(max(0.0, _SHIFT - float(arr.min()))))
    acc = np.zeros_like(arr)
    for i in range(steps):
        shifted = arr + i
        acc += np.where(shifted < _SHIFT, 1.0 / shifted, 0.0)
    k = np.ceil(np.maximum(_SHIFT - arr, 0.0))
    y = arr + k
    inv2 = 1.0 / (y * y)
    series = np.zeros_like(y)
    power = inv2.copy()
    for n, b in enumerate(_BERNOULLI, start=1):
        series += b / (2 * n) * power
        power *= inv2
    out = np.log(y) - 0.5 / y - series - acc
    return float(out[0]) if scalar else out


def trigamma(x):
    """psi_1(x) for x > 0, relative error <= 1e-13."""
    arr, scalar = _prepare(x)
    steps = int(np.ceil(max(0.0, _SHIFT - float(arr.min()))))
    acc = np.zeros_like(arr)
    for i in range(steps):
        shifted = arr + i
        acc += np.where(shifted < _SHIFT, 1.0 / (shifted * shifted), 0.0)
    k = np.ceil(np.maximum(_SHIFT - arr, 0.0))
    y = arr + k
    inv = 1.0 / y
    inv2 = inv * inv
    series = np.zeros_like(y)
    power = inv * inv2  # 1/y^3
    for b in _BERNOULLI:
        series += b * power
        power *= inv2
    out = inv + 0.5 * inv2 + series + acc
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

DEFAULT_N_GRID = (128, 181, 256, 362, 512, 724, 1024, 1448, 2048)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares line through (ln N, log value) pairs."""

    slope: float
    intercept: float
    max_abs_residual: float


def fit_decay_exponent(series: Sequence[tuple[int, float]]) -> ExponentFit:
    """Ordinary least squares of log values against ln N."""
    pts = [(int(n), float(v)) for n, v in series]
    if len(pts) < 4:
        raise DomainError("need at least 4 points to fit a decay exponent")
    ns = [n for n, _ in pts]
    if len(set(ns)) != len(ns):
        raise DomainError("N values must be distinct")
    x = np.log(ns)
    y = np.array([v for _, v in pts])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (slope * x + intercept)
    return ExponentFit(slope=float(slope), intercept=float(intercept), max_abs_residual=float(np.max(np.abs(resid))))


def theorem_exponent(delta: float) -> float:
    """Exact decay exponent -2 delta^2 / pi^2 of log|overlap|^2 versus ln N."""
    return -2.0 * delta * delta / (math.pi * math.pi)


def upper_bound_exponent(delta: float) -> float:
    """Upper-bound exponent -(2/pi^2) sin^2(delta)."""
    return -2.0 * math.sin(delta) ** 2 / (math.pi * math.pi)


# ---------------------------------------------------------------------------
# Anderson integral
# ---------------------------------------------------------------------------


def anderson_integral(delta: float, N: int) -> float:
    """Anderson integral I_N for the jump symbol at flux angle ``delta``.

    Translation invariance of the squared matrix elements makes every
    window of N consecutive indices give the same value, so the odd-N
    window {-m, ..., m} and the even-N window {-m, ..., m-1} need no
    separate case.  At |delta| = pi/2 the shifts N + 1 -+ 1/2 stay
    positive, so only |delta| > pi/2 is rejected.
    """
    if abs(delta) > math.pi / 2:
        raise DomainError("anderson_integral requires |delta| <= pi/2")
    if N < 1:
        raise DomainError("N must be >= 1")
    if delta == 0.0:
        return 0.0
    c = delta / math.pi
    t = np.arange(1, N + 1, dtype=float)
    finite = float(np.sum(t / (t - c) ** 2) + np.sum(t / (t + c) ** 2))
    tails = N * (trigamma(N + 1 - c) + trigamma(N + 1 + c))
    return math.sin(delta) ** 2 / math.pi**2 * (finite + tails)
