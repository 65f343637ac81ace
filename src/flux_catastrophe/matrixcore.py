"""Toeplitz matrices and products, their log-determinants and norms.

The overlap objects are N x N arrays: classical Toeplitz in the plane-wave
basis of the periodic problem, Toeplitz-minus-Hankel in the Dirichlet
sine basis.  This module holds what every consumer shares: the strided
view that turns 2N - 1 coefficients into a Toeplitz matrix, the FFT
product toeplitz_product that applies it without forming it, the
closed-form jump-symbol matrix fh_matrix and its O(1) log-determinant
fh_log_det, the dense log-determinant, the certified trace norm, and the
power-iteration norm of a symmetric operator given by its product.

Determinants of these matrices decay polynomially in N, so only their
magnitudes are kept, in log space throughout.  fh_log_det sums Cauchy's
product formula for the periodic jump-symbol matrix in O(1) (its docstring
has the derivation); hilbert.dirichlet_flux_logdet reduces the Dirichlet
one to a real (N // 2) x (N // 2) determinant of low rank plus identity,
which it takes from blocks of toeplitz_product without forming it.
log_det, dense LU with partial pivoting (LAPACK via numpy), factors the
exact overlap matrix, whose O(N^3) LU is the costliest step of an overlap
sweep.  The matrices themselves are assembled in O(N^2) from O(N)
verified coefficients, and the trace norm of the low-rank Delta_N costs
O(N^2 k).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .asymptotics import hurwitz_zeta
from .errors import DomainError, NumericalError


def log_det(matrix: np.ndarray) -> float:
    """log|det| via LU with partial pivoting; -inf for a singular matrix.

    The magnitude accumulates ln|u_ii| over the pivots.  The phase of the
    determinant is not kept: every consumer reads |det|^2 only.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("log_det needs a square matrix")
    sign, logabs = np.linalg.slogdet(m)
    return -math.inf if sign == 0 else float(logabs)


_SKETCH_SEED = 0x5EED
_SKETCH_COLUMNS = 32
_SKETCH_REL_TOL = 1e-10
_RESIDUAL_BLOCK_ENTRIES = 1 << 18


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values, from a certified randomized range finder.

    A matrix of low numerical rank (such as Delta_N, whose symbol vanishes
    outside the potential's support) is compressed first: a fixed-seed
    Gaussian sketch Y = A Omega with k columns gives an orthonormal basis
    Q = qr(Y), and the singular values of the small matrix B = Q* A are
    summed (Halko, Martinsson, Tropp, SIAM Review 53, 2011).

    The sum is accepted only under an a-posteriori certificate.  Since
    ||Q*|| <= 1, sum sigma(B) <= ||A||_1 <= sum sigma(B) + ||R||_1 with
    R = A - Q B, and ||R||_1 <= sqrt(rank R) ||R||_F <= sqrt(n) ||R||_F
    for n = min(rows, cols).  So the result is within a relative 1e-10 of
    the trace norm once sqrt(n) ||R||_F <= 1e-10 sum sigma(B).  Otherwise
    k doubles; once k would reach n/2 (and always for small matrices) the
    dense LAPACK SVD is used instead.  ||R||_F is accumulated over row
    blocks, so no second full-size temporary is allocated.  The seed is
    fixed, so the result is deterministic for a given matrix.
    """
    a = np.asarray(m)
    rows, cols = a.shape
    n = min(rows, cols)
    rng = np.random.default_rng(_SKETCH_SEED)
    k = _SKETCH_COLUMNS
    while 2 * k < n:
        omega = rng.standard_normal((cols, k))
        if np.iscomplexobj(a):
            omega = omega + 1j * rng.standard_normal((cols, k))
        q, _ = np.linalg.qr(a @ omega)
        b = q.conj().T @ a
        total = float(np.sum(np.linalg.svd(b, compute_uv=False)))
        step = max(1, _RESIDUAL_BLOCK_ENTRIES // cols)
        residual_sq = 0.0
        for lo in range(0, rows, step):
            block = a[lo : lo + step] - q[lo : lo + step] @ b
            residual_sq += float(np.vdot(block, block).real)
        if math.sqrt(n * residual_sq) <= _SKETCH_REL_TOL * total:
            return total
        k *= 2
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


_POWER_REL_TOL = 1e-10
_POWER_MAX_ITER = 10_000


def operator_norm(apply: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Norm (largest |eigenvalue|) of a real symmetric n x n operator, given as v -> A v.

    Power iteration from a fixed pseudorandom unit vector, so the result is
    deterministic.  It stops once two successive estimates agree to a
    relative 1e-10 and raises NumericalError after 10,000 iterations.
    """
    v = np.random.default_rng(_SKETCH_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    prev = -1.0
    sigma = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = apply(v)
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        v = w / sigma
        if abs(sigma - prev) <= _POWER_REL_TOL * sigma:
            return sigma
        prev = sigma
    raise NumericalError(
        "power iteration stagnated before reaching tolerance",
        last_two=(prev, sigma),
        rel_tol=_POWER_REL_TOL,
        max_iter=_POWER_MAX_ITER,
    )


def toeplitz(t: np.ndarray, N: int) -> np.ndarray:
    """Read-only N x N view with entry (j, k) = t[(N - 1) + j - k]."""
    return sliding_window_view(t[::-1], N)[::-1]


def toeplitz_product(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """toeplitz(t, n) @ v for real t and a real vector or (n, k) block v, n = len(v), in O(k n log n).

    The product is entries n - 1 .. 2n - 2 of the convolution t * v (3n - 2
    entries).  A cyclic convolution of length >= 2n - 1, one real FFT along
    axis 0, folds the entries past its end onto indices below n - 1 only, so
    those are exact.  One call serves every column of a block.
    """
    n = len(v)
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.rfft(v, size, axis=0)
    np.multiply(np.fft.rfft(t, size).reshape((-1,) + (1,) * (v.ndim - 1)), spectrum, out=spectrum)
    return np.fft.irfft(spectrum, size, axis=0)[n - 1 : 2 * n - 1]


def fh_matrix(delta: float, N: int) -> np.ndarray:
    """Toeplitz matrix with entries sin(delta) / (delta - pi (j-k)).

    This is the determinant-carrying matrix of the jump symbol: the
    diagonal is sin(delta)/delta, which the same formula gives at d = 0
    to within an ulp for every delta down to the smallest subnormal; only
    delta = 0 (0/0) is set to the limit 1.  At
    |delta| = pi/2 it is (1/pi) times the nonsingular Cauchy matrix
    1/(1/2 -+ (j-k)), so only |delta| > pi/2 is rejected.  The result
    is a writable copy of a strided view of the 2N - 1 coefficients, so
    the only N x N allocation is the result itself.
    """
    if abs(delta) > np.pi / 2:
        raise DomainError("fh_matrix requires |delta| <= pi/2")
    if N < 1:
        raise DomainError("N must be >= 1")
    d = np.arange(-(N - 1), N, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(delta) / (delta - np.pi * d)
    if delta == 0.0:
        s[N - 1] = 1.0
    return toeplitz(s, N).copy()


def fh_log_det(delta: float, N: int) -> float:
    """log|det fh_matrix(delta, N)| in O(1), from Cauchy's determinant formula.

    With c = delta / pi the matrix is (sin(delta) / pi) times the Cauchy
    matrix 1 / ((k + c) - j), whose determinant is a ratio of difference
    products.  Grouping its factors by d = |j - k| gives

        |det| = |sin(delta) / delta|^N  prod_{d=1}^{N-1} (1 - c^2/d^2)^-(N-d),

    and Euler's product sin(pi c) / (pi c) = prod_{d>=1} (1 - c^2/d^2)
    absorbs the first factor, leaving sum_{d>=1} min(d, N) log(1 - c^2/d^2).
    The terms d < 64 are summed directly.  Beyond, c^2/d^2 <= 2^-14, so
    five terms of the log series leave a relative remainder below 1e-22,
    and summing them over d with asymptotics.hurwitz_zeta gives, with
    X = max(N, 64),

        log|det| = sum_{d=1}^{63} min(d, N) log(1 - c^2/d^2)
                   - sum_{k=1}^{5} (c^(2k) / k) [zeta(2k-1, 64) - zeta(2k-1, X)
                                                 + N zeta(2k, X)],

    where zeta(1, .) is -psi.  Since |c| <= 1/2, every term is negative and
    no sum cancels, where the textbook form subtracts sums of size
    N^2 log N.  Dense LU of fh_matrix is the test oracle.  The domain is
    fh_matrix's, |delta| <= pi/2 and N >= 1, and delta = 0 gives exactly 0.0.
    """
    if abs(delta) > np.pi / 2:
        raise DomainError("fh_log_det requires |delta| <= pi/2")
    if N < 1:
        raise DomainError("N must be >= 1")
    if delta == 0.0:
        return 0.0
    c2 = (delta / math.pi) ** 2
    d = np.arange(1.0, 64.0)
    out = float(np.sum(np.minimum(d, N) * np.log1p(-c2 / (d * d))))
    x = float(max(N, 64))
    for k in range(1, 6):
        lo, hi = hurwitz_zeta(2 * k - 1, [64.0, x])
        out -= c2**k / k * (lo - hi + N * hurwitz_zeta(2 * k, x))
    return float(out)
