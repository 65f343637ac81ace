"""Independent oracles used to pin expected values.

Everything here deliberately avoids the code paths under test: cofactor
expansion instead of LU, Cauchy's product formula instead of any matrix
at all, raw partial sums with elementary Euler-Maclaurin closures instead
of the recurrence-based polygamma, and midpoint Riemann sums instead of
Gauss-Legendre panels.  The periodic energy difference is summed level by
level in Python integers and 50-digit mpmath arithmetic.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def cofactor_det(m: np.ndarray) -> complex:
    """Determinant by recursive cofactor expansion (use only for tiny n)."""
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    sub = np.delete(m, 0, axis=0)
    for col in range(n):
        minor = np.delete(sub, col, axis=1)
        total += (-1.0) ** col * complex(m[0, col]) * cofactor_det(minor)
    return total


def cauchy_fh_logdet_sq(delta: float, N: int) -> float:
    """log |det T_N|^2 of the jump-symbol matrix via Cauchy's determinant formula.

    The matrix sin(delta)/(delta - pi(j-k)) is (sin(delta)/pi) times a
    Cauchy matrix with nodes x_j = j + delta/pi and y_k = k, whose
    determinant is a ratio of difference products; in log space:

        log|det|^2 = 2N log|sin(delta)/pi| + 4 sum_{d=1}^{N-1} (N-d) log d
                     - 2 sum_{d=-(N-1)}^{N-1} (N-|d|) log|d + delta/pi|
    """
    if delta == 0.0:
        return 0.0
    c = delta / math.pi
    d = np.arange(1, N, dtype=float)
    val = 2.0 * N * math.log(abs(math.sin(delta)) / math.pi)
    val += 4.0 * float(np.sum((N - d) * np.log(d)))
    alld = np.arange(-(N - 1), N, dtype=float)
    val -= 2.0 * float(np.sum((N - np.abs(alld)) * np.log(np.abs(alld + c))))
    return val


def anderson_bruteforce(delta: float, N: int, window_start: int | None = None, k_terms: int = 200_000) -> float:
    """Anderson integral by direct double summation over the complement.

    Sums |sin(delta) / (pi (j-k) + delta)|^2 for j inside an N-point window
    and k outside, truncating the k range at ``k_terms`` on each side and
    closing the truncated tails with the Euler-Maclaurin remainder of
    1/(x)^2 sums (error far below 1e-12).
    """
    if window_start is None:
        window_start = -((N - 1) // 2)
    window = np.arange(window_start, window_start + N)
    lo, hi = window[0], window[-1]
    s2 = math.sin(delta) ** 2
    ks_up = np.arange(hi + 1, hi + 1 + k_terms, dtype=float)
    ks_dn = np.arange(lo - k_terms, lo, dtype=float)
    total = 0.0
    for j in window:
        total += float(np.sum(s2 / (math.pi * (j - ks_up) + delta) ** 2))
        total += float(np.sum(s2 / (math.pi * (j - ks_dn) + delta) ** 2))
        # tails beyond the truncation, one per side
        up_next = (math.pi * (ks_up[-1] + 1 - j) - delta) / math.pi
        dn_next = (math.pi * (j - (ks_dn[0] - 1)) + delta) / math.pi
        total += s2 / math.pi**2 * (_inv_square_tail(up_next) + _inv_square_tail(dn_next))
    return total


def _inv_square_tail(z: float) -> float:
    """sum_{n>=0} 1/(z+n)^2 for large z via the Euler-Maclaurin closure."""
    return 1.0 / z + 1.0 / (2.0 * z * z) + 1.0 / (6.0 * z**3) - 1.0 / (30.0 * z**5)


def inv_square_tail_partial(a: float, terms: int = 10**7) -> float:
    """sum_{t>=1} 1/(t+a)^2 by a ``terms``-term partial sum plus the
    elementary remainder; accurate to ~1e-15 absolute."""
    t = np.arange(1, terms + 1, dtype=float)
    partial = float(np.sum(1.0 / (t + a) ** 2))
    return partial + _inv_square_tail(terms + 1 + a)


def k_entry_bruteforce(M: int, j: int, k: int, l_terms: int = 10**7) -> float:
    """(K_M)_{jk} by direct summation with an integral-closed tail."""
    l = np.arange(M + 1, M + 1 + l_terms, dtype=float)
    base = (l - 0.5) ** 2
    partial = float(np.sum(j * k / ((base - j * j) * (base - k * k))))
    # remaining terms behave like j k / l^4; close with the integral
    z = M + l_terms + 0.5
    partial += j * k * (1.0 / (3.0 * z**3) + 1.0 / (2.0 * z**4))
    return partial


def riemann_abs_moment(a, lo: float, hi: float, n: int = 10**7, weight_y: bool = False) -> float:
    """Midpoint Riemann sum of |a| or |y a(y)| with n points."""
    xs = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    vals = np.abs(a(xs))
    if weight_y:
        vals = np.abs(xs) * vals
    return float(np.sum(vals) * (hi - lo) / n)


def toeplitz_from_coefficients(coeffs: dict[int, complex], N: int) -> np.ndarray:
    """Exact T_N(f) for a trigonometric polynomial with Fourier coefficients
    f(x) = sum_n coeffs[n] exp(i pi n x / L): entry (j, k) = coeffs[k - j]."""
    m = np.zeros((N, N), dtype=complex)
    for j in range(N):
        for k in range(N):
            m[j, k] = coeffs.get(k - j, 0.0)
    return m


def random_positive_real_symbol(rng: np.random.Generator, floor: float, degree: int = 3):
    """A random symbol f = floor + |p|^2 + i q with Re f >= floor certified.

    Returns (f callable, fourier coefficients dict, floor).  p and q are
    random real trig polynomials, so the coefficients of f are exact
    convolutions and T_N(f) can be written down without quadrature.
    """
    p = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    q = rng.standard_normal(degree + 1)

    coeffs: dict[int, complex] = {}

    def add(n: int, v: complex):
        coeffs[n] = coeffs.get(n, 0.0) + v

    add(0, floor)
    # |p|^2 where p(x) = sum_{n=0}^{deg} p_n e^{i pi n x / L}
    for n1 in range(degree + 1):
        for n2 in range(degree + 1):
            add(n1 - n2, p[n1] * np.conj(p[n2]))
    # i q with q(x) = sum q_n cos(pi n x / L) real
    for n in range(degree + 1):
        add(n, 0.5j * q[n])
        add(-n, 0.5j * q[n])

    def f(x, L):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=complex)
        for n, v in coeffs.items():
            out += v * np.exp(1j * math.pi * n * x / L)
        return out

    return f, coeffs, floor


def energy_difference_mp(total_flux: float, N: int, L: float) -> mpmath.mpf:
    """Periodic E_a - E_0 at 50 digits from exact level-by-level index sums.

    The free window is {-m, ..., m} (odd N) or {-m, ..., m-1} (even N) with
    m = N // 2; the perturbed one is shifted by -n, where total_flux =
    n pi + delta with delta in (-pi/2, pi/2].  Each eigenvalue
    ((j pi + phi) / L)^2 expands to (pi^2 j^2 + 2 pi phi j + phi^2) / L^2,
    and the integer sums over j are accumulated one index at a time.
    """
    with mpmath.workdps(50):
        phi = mpmath.mpf(total_flux)
        n = int(mpmath.ceil(phi / mpmath.pi - mpmath.mpf(1) / 2))
        m = N // 2
        free = range(-m, m + 1) if N % 2 else range(-m, m)
        pert = range(free.start - n, free.stop - n)
        sum_p = sum(pert)
        squares = sum(j * j for j in pert) - sum(j * j for j in free)
        return (mpmath.pi**2 * squares + 2 * mpmath.pi * phi * sum_p + N * phi**2) / mpmath.mpf(L) ** 2
