"""Decay-exponent fits, the Anderson integral, the jump-symbol log-determinant
and the Hurwitz zeta function behind digamma, trigamma and the Barnes-G
constant.

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
tail of fh_log_det, never a truncated sum.

fh_log_det, log|det| of the periodic jump-symbol matrix (matrixcore's
fh_matrix, its test oracle), lives here because it is a 63-term Cauchy sum
plus a Hurwitz tail.  The exponent_fit, anderson and energy experiments are
closed forms through and through, so this module imports numpy only where
an array comes in, and their processes load none.  hurwitz_zeta keeps two
paths, picked by the argument's type: a Python number runs the recurrence
and the series in floats, an array runs them column-wise in numpy, with
the series code shared.  Each wins where it is used: the closed forms above
take a handful of values, while the Dirichlet K_M assembly (hilbert) takes
61,030 arguments in 91 calls per dirichlet_hilbert benchmark run, where a
float loop costs 156 ms against 5.7 ms for the array calls (best of 5,
2-core Xeon VM).  Both add the recurrence terms in ascending order, so an
argument's value does not depend on the batch it comes in, and on the
arguments of the benchmark's dirichlet_hilbert config the two paths agree
to 1 ulp.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import DomainError

# Bernoulli numbers B_2 .. B_12 for the Euler-Maclaurin series.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)
_ASYMPTOTIC_FROM = 64.0


def _euler_maclaurin(s: int, y, log):
    """zeta(s, y) for y >= 64 (a float or an array), ``log`` the natural log of its kind."""
    power = y ** -s  # y^(-s-2j+1) in the loop
    out = (-log(y) if s == 1 else y ** (1 - s) / (s - 1)) + 0.5 * power
    power = power / y
    coef = s / 2.0  # s (s+1) ... (s+2j-2) / (2j)!
    for j, b in enumerate(_BERNOULLI, start=1):
        out = out + b * coef * power
        coef *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2))
        power = power / (y * y)
    return out


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
    first omitted term is below 3e-15 of the sum.  A Python int or float
    takes the math path and gives a float; anything else is an array of
    arguments, each recurrence step one masked row, summed down each
    column in ascending order as the float path sums, and gives an array
    (a 0-d array a float).
    """
    if s < 1:
        raise DomainError("hurwitz_zeta requires an integer s >= 1")
    if isinstance(x, (int, float)):
        x = float(x)
        if not 0.0 < x < math.inf:
            raise DomainError("hurwitz_zeta requires strictly positive finite arguments")
        steps = math.ceil(max(_ASYMPTOTIC_FROM - x, 0.0))
        head = sum((x + i) ** -s for i in range(steps))
        return _euler_maclaurin(s, x + steps, math.log) + head

    import numpy as np

    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("hurwitz_zeta requires strictly positive finite arguments")
    steps = np.ceil(np.maximum(_ASYMPTOTIC_FROM - arr, 0.0))
    # the recurrence terms of the arguments below 64 only, one column each, summed down the
    # column in ascending i like the float path: np.cumsum adds row after row whatever the
    # batch, where np.sum would sum a lone column pairwise and a wider block row by row
    low = steps > 0.0
    i = np.arange(steps.max(initial=0.0))[:, None]
    head = np.zeros_like(arr)
    if len(i):
        head[low] = np.cumsum(np.where(i < steps[low], (arr[low] + i) ** -s, 0.0), axis=0)[-1]
    out = _euler_maclaurin(s, arr + steps, np.log) + head
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


class ExponentFit(NamedTuple):
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
    # closed-form least squares on sums centred at the means of ln N and the values
    x = [math.log(n) for n in ns]
    y = [v for _, v in pts]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    slope = math.fsum(d * (yi - y_mean) for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)
    intercept = y_mean - slope * x_mean
    resid = max(abs(yi - (slope * xi + intercept)) for xi, yi in zip(x, y))
    return ExponentFit(slope=slope, intercept=intercept, max_abs_residual=resid)


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
    terms = 0.0
    for b in (delta / math.pi, -delta / math.pi):
        terms += digamma(N + 1 - b) - digamma(1 - b) + b * trigamma(1 - b) + (N - b) * trigamma(N + 1 - b)
    return math.sin(delta) ** 2 / math.pi**2 * terms


def fh_log_det(delta: float, N: int) -> float:
    """log|det matrixcore.fh_matrix(delta, N)| in O(1), from Cauchy's determinant formula.

    With c = delta / pi the matrix is (sin(delta) / pi) times the Cauchy
    matrix 1 / ((k + c) - j), whose determinant is a ratio of difference
    products.  Grouping its factors by d = |j - k| gives

        |det| = |sin(delta) / delta|^N  prod_{d=1}^{N-1} (1 - c^2/d^2)^-(N-d),

    and Euler's product sin(pi c) / (pi c) = prod_{d>=1} (1 - c^2/d^2)
    absorbs the first factor, leaving sum_{d>=1} min(d, N) log(1 - c^2/d^2).
    The terms d < 64 are summed directly.  Beyond, c^2/d^2 <= 2^-14, so
    five terms of the log series leave a relative remainder below 1e-22,
    and summing them over d with hurwitz_zeta gives, with
    X = max(N, 64),

        log|det| = sum_{d=1}^{63} min(d, N) log(1 - c^2/d^2)
                   - sum_{k=1}^{5} (c^(2k) / k) [zeta(2k-1, 64) - zeta(2k-1, X)
                                                 + N zeta(2k, X)],

    where zeta(1, .) is -psi.  Since |c| <= 1/2, every term is negative and
    no sum cancels, where the textbook form subtracts sums of size
    N^2 log N.  Dense LU of fh_matrix is the test oracle.  The domain is
    fh_matrix's, |delta| <= pi/2 and N >= 1, and delta = 0 gives exactly 0.0.
    """
    if abs(delta) > math.pi / 2:
        raise DomainError("fh_log_det requires |delta| <= pi/2")
    if N < 1:
        raise DomainError("N must be >= 1")
    if delta == 0.0:
        return 0.0
    c2 = (delta / math.pi) ** 2
    out = math.fsum(min(d, N) * math.log1p(-c2 / (d * d)) for d in range(1, 64))
    x = float(max(N, 64))
    for k in range(1, 6):
        out -= c2**k / k * (hurwitz_zeta(2 * k - 1, 64.0) - hurwitz_zeta(2 * k - 1, x) + N * hurwitz_zeta(2 * k, x))
    return float(out)
