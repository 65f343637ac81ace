"""Decay-exponent fits, the Anderson integral and the Hurwitz zeta function
behind digamma, trigamma and the Barnes-G constant.

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
    S(c) = sum_{t=1}^{N} t / (t - c)^2
         = psi(N+1-c) - psi(1-c) + c [psi_1(1-c) - psi_1(N+1-c)],

by t / (t - c)^2 = 1 / (t - c) + c / (t - c)^2, so I_N costs O(1).

Every infinite sum in the package is a value of hurwitz_zeta: one
recurrence plus one Euler-Maclaurin series gives psi = -zeta(1, .),
psi_1 = zeta(2, .), the odd zeta values of the Barnes-G constant and the
tail of matrixcore.fh_log_det, never a truncated sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

# Bernoulli numbers B_2 .. B_12 for the Euler-Maclaurin series.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)
_ASYMPTOTIC_FROM = 64.0


def hurwitz_zeta(s: int, x):
    """zeta(s, x) = sum_{d>=0} (x + d)^(-s) for an integer s >= 1 and x > 0.

    At s = 1 the series diverges and the regularised value -psi(x) is
    returned (DLMF 25.11), so digamma and trigamma are -zeta(1, x) and
    zeta(2, x).  The recurrence zeta(s, x) = x^(-s) + zeta(s, x + 1) raises
    every argument below 64 to y in [64, 65); from y >= 64 on,
    Euler-Maclaurin applies:

        zeta(s, y) = y^(1-s) / (s-1) + y^(-s) / 2
                     + sum_{j=1}^{6} B_2j / (2j)! s (s+1) ... (s+2j-2) y^(-s-2j+1),

    with -ln y in place of y^(1-s) / (s-1) at s = 1.  For s <= 29 the
    first omitted term is below 3e-15 of the sum.  Scalars give a float,
    arrays an array.
    """
    if s < 1:
        raise DomainError("hurwitz_zeta requires an integer s >= 1")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("hurwitz_zeta requires strictly positive finite arguments")
    steps = np.ceil(np.maximum(_ASYMPTOTIC_FROM - arr, 0.0))
    # the recurrence terms of the arguments below 64 only, one column each
    low = steps > 0.0
    i = np.arange(steps.max(initial=0.0))[:, None]
    head = np.zeros_like(arr)
    head[low] = np.sum(np.where(i < steps[low], (arr[low] + i) ** -s, 0.0), axis=0)
    y = arr + steps
    power = y ** -s  # y^(-s-2j+1) in the loop
    out = (-np.log(y) if s == 1 else y ** (1 - s) / (s - 1)) + 0.5 * power
    power /= y
    coef = s / 2.0  # s (s+1) ... (s+2j-2) / (2j)!
    for j, b in enumerate(_BERNOULLI, start=1):
        out += b * coef * power
        coef *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2))
        power /= y * y
    out += head
    return float(out[0]) if scalar else out


def digamma(x):
    """psi(x) = -zeta(1, x) for x > 0."""
    return -hurwitz_zeta(1, x)


def trigamma(x):
    """psi_1(x) = zeta(2, x) for x > 0."""
    return hurwitz_zeta(2, x)


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


_EULER_GAMMA = 0.5772156649015329


def theorem_constant(delta: float) -> float:
    """Fisher-Hartwig constant 2 log[G(1+c) G(1-c)], c = delta / pi, of log|overlap|^2.

    log|det T_N|^2 = -2 c^2 ln N + 2 log[G(1+c) G(1-c)] + o(1) for the jump
    symbol (G is Barnes' G-function), and

        log G(1+c) + log G(1-c) = -(1+gamma) c^2 - sum_{m>=2} zeta(2m-1) c^(2m) / m.

    Splitting zeta(2m-1) = 1 + zeta(2m-1, 2) sums the ones in closed form,
    sum_{m>=2} c^(2m) / m = -log(1 - c^2) - c^2, and leaves a remainder
    whose terms fall like (c/2)^(2m) <= 16^(-m) for |delta| <= pi/2; every
    term has the same sign, and m <= 15 reaches double precision.
    """
    c2 = (delta / math.pi) ** 2
    power = c2
    rest = 0.0
    for m in range(2, 16):
        power *= c2
        rest += hurwitz_zeta(2 * m - 1, 2.0) * power / m
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
    # S(b) + N psi_1(N+1-b) for b = +-c, the closed form of the module docstring
    b = np.array([delta, -delta]) / math.pi
    terms = digamma(N + 1 - b) - digamma(1 - b) + b * trigamma(1 - b) + (N - b) * trigamma(N + 1 - b)
    return math.sin(delta) ** 2 / math.pi**2 * float(np.sum(terms))
