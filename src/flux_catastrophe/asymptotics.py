"""Decay-exponent fits, the Anderson integral, digamma/trigamma and the
log tail of Euler's sine product.

The overlap with the idealized jump symbol decays like N^(-2 delta^2/pi^2)
(exact exponent) with the Fisher-Hartwig constant 2 log[G(1+c) G(1-c)],
c = delta/pi, as its prefactor in log space, while det(A) <= exp(-tr(1-A))
bounds it from above by exp(-I_N) with I_N the Anderson integral

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
    steps = int(np.ceil(max(0.0, _SHIFT - float(arr.min(initial=_SHIFT)))))
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
    steps = int(np.ceil(max(0.0, _SHIFT - float(arr.min(initial=_SHIFT)))))
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


def _hurwitz_zeta(s: int, x: float) -> float:
    """zeta(s, x) = sum_{d>=0} (x + d)^(-s) for an integer s >= 2 and x >= 64.

    Euler-Maclaurin at x:
    x^(1-s) / (s-1) + x^(-s) / 2 + sum_j B_2j / (2j)! s (s+1) ... (s+2j-2) x^(-s-2j+1),
    through B_12; at x >= 64 and s <= 10 the next term is below 1e-19 of
    the first.
    """
    out = x ** (1 - s) / (s - 1) + 0.5 * x ** (-s)
    rising = float(s)  # s (s+1) ... (s+2j-2)
    power = x ** (-s - 1)  # x^(-s-2j+1)
    factorial = 2.0  # (2j)!
    for j, b in enumerate(_BERNOULLI, start=1):
        out += b / factorial * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= x * x
        factorial *= (2 * j + 1) * (2 * j + 2)
    return out


# euler_product_log_tail takes the terms d < 64 one by one, then the zeta
# series at x = max(N, 64), where c^2 / x^2 <= 2^-14 and five terms leave a
# relative remainder below 1e-22.
_TAIL_DIRECT_TERMS = 64
_TAIL_ZETA_TERMS = 5


def euler_product_log_tail(c: float, N: int) -> float:
    """tau_N = sum_{d>=N} log(1 - c^2/d^2) for |c| <= 1/2 and N >= 1.

    The log of the tail of Euler's product sin(pi c) / (pi c) =
    prod_{d>=1} (1 - c^2/d^2).  Expanding each log,

        tau_N = -sum_{k>=1} (c^(2k) / k) zeta(2k, N),

    with zeta(s, x) the Hurwitz zeta function.  Every term is negative, so
    nothing cancels.
    """
    if abs(c) > 0.5:
        raise DomainError("euler_product_log_tail requires |c| <= 1/2")
    if N < 1:
        raise DomainError("N must be >= 1")
    c2 = c * c
    x = max(N, _TAIL_DIRECT_TERMS)
    d = np.arange(N, x, dtype=float)
    tail = float(np.sum(np.log1p(-c2 / (d * d))))
    power = 1.0
    for k in range(1, _TAIL_ZETA_TERMS + 1):
        power *= c2
        tail -= power / k * _hurwitz_zeta(2 * k, float(x))
    return tail


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


# zeta(2m - 1) - 1 for m = 2 .. 15, to double precision
_ZETA_ODD_MINUS_ONE = (
    0.2020569031595943, 0.03692775514336993, 0.008349277381922827, 0.0020083928260822143,
    0.0004941886041194645, 0.00012271334757848915, 3.058823630702049e-05, 7.637197637899763e-06,
    1.908212716553939e-06, 4.769329867878064e-07, 1.1921992596531106e-07, 2.980350351465228e-08,
    7.45071178983543e-09, 1.862659723513049e-09,
)
_EULER_GAMMA = 0.5772156649015329


def theorem_constant(delta: float) -> float:
    """Fisher-Hartwig constant 2 log[G(1+c) G(1-c)], c = delta / pi, of log|overlap|^2.

    log|det T_N|^2 = -2 c^2 ln N + 2 log[G(1+c) G(1-c)] + o(1) for the jump
    symbol (G is Barnes' G-function), and

        log G(1+c) + log G(1-c) = -(1+gamma) c^2 - sum_{m>=2} zeta(2m-1) c^(2m) / m.

    Splitting zeta(2m-1) = 1 + (zeta(2m-1) - 1) sums the ones in closed
    form, sum_{m>=2} c^(2m) / m = -log(1 - c^2) - c^2, and leaves a remainder
    whose terms fall like (c/2)^(2m) <= 16^(-m) for |delta| <= pi/2; every
    term has the same sign.
    """
    c2 = (delta / math.pi) ** 2
    power = c2
    rest = 0.0
    for m, z in enumerate(_ZETA_ODD_MINUS_ONE, start=2):
        power *= c2
        rest += z * power / m
    return 2.0 * (-_EULER_GAMMA * c2 + math.log1p(-c2) - rest)


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
