"""Toeplitz matrices and products, their log-determinants and norms.

The overlap objects are N x N operators: classical Toeplitz in the
plane-wave basis of the periodic problem, Toeplitz-minus-Hankel in the
Dirichlet sine basis.  This module holds what every consumer shares: the
strided view that turns 2N - 1 coefficients into a Toeplitz matrix, the FFT
operator toeplitz_hankel_operator that applies T(t) - H(h) without forming
it, one forward and one inverse FFT along the contiguous last axis of a
(k, N) block per call, the closed-form jump-symbol coefficients
fh_coefficients with their matrix fh_matrix, the dense log-determinant,
the certified Rayleigh-Ritz log det(A^H A) of a contraction A, the trace
norm of a matrix given by a small core and its Gram matrix, and the
power-iteration norm of a symmetric operator given by its product.

Determinants of these matrices decay polynomially in N, so only their
magnitudes are kept, in log space throughout.  The determinant of the
periodic jump-symbol matrix needs no array: asymptotics.fh_log_det sums
Cauchy's product formula for it in O(1), and in both bases the overlap
determinant follows from the jump determinant and a p x p determinant on
Delta_N's core (overlap).  The Dirichlet jump determinant is det(G^T G) of
a contraction G, the parity factor (hilbert), with few singular values
below 1 - rounding; ritz_sketch takes it from G's block products, off the
singular values of G on a sketch, and the tests' oracle takes the overlap
log-det the same way from the overlap matrix's FFT products.
It holds the sketch's orthonormal rows Q and one block for A Q, which
turns into E Q in place, two (k, N) blocks and nothing else of that size:
products, projections and the tall-skinny QRs that orthonormalize the
sketch and factor A Q stream through row and column slices of at most
8 MB, and a sketch that fails its certificate is extended by new rows
rather than drawn again.  The sketch rows are random signs, +1 or -1, from
the standard library's generator under a fixed seed: the certificate is
computed from the rows the sketch gives, so it holds for any sketch, and
the distribution only sets how soon it passes.
log_det, dense LU with partial pivoting (LAPACK via numpy), is the O(N^3)
oracle they are tested against; no overlap sweep calls it.  trace_norm is
the last step of ||Delta_N||_1: overlap writes Delta_N = V^H C V with a
p x p core C from Chebyshev interpolation of the basis and a closed-form
Gram matrix V V^H; p follows from the support and the density, not from N
(overlap bounds the error).
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NumericalError

# a block product V -> A V along the last axis of a vector or (k, n) block
Product = Callable[[np.ndarray], np.ndarray]


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
# every row or column slice ritz_sketch streams through its products and QRs stays within this many bytes
_BLOCK_BYTES = 1 << 23


def _signs(rng: random.Random, rows: int, n: int) -> np.ndarray:
    """The next (rows, n) entries of rng's sign stream, each +1 or -1.

    Row by row, rng.randbytes gives 4 ceil(n / 32) bytes, and bit j of them,
    most significant bit of each byte first, gives entry j as 1 - 2 bit.  A
    row takes whole 32-bit words of the generator, so rows drawn in two
    slices equal the same rows drawn at once.
    """
    width = 32 * -(-n // 32)
    bits = np.unpackbits(np.frombuffer(rng.randbytes(rows * width // 8), dtype=np.uint8))
    return 1.0 - 2.0 * bits.reshape(rows, width)[:, :n]


def _row_slices(k: int, width: int) -> list[slice]:
    """Slices of range(k) of at most _BLOCK_BYTES // (256 width) rows (one at least), as a row's product holds
    a few complex rows of FFT length 2 width .. 4 width."""
    step = max(1, _BLOCK_BYTES // (256 * width))
    return [slice(lo, min(k, lo + step)) for lo in range(0, k, step)]


def _column_slices(k: int, n: int) -> list[slice]:
    """m = max(1, n // w) near-equal slices of range(n), w = max(k, _BLOCK_BYTES // 64 k): each at least k wide,
    so a slice's QR keeps all k rows, and a complex (k, w) slice a quarter of the budget, as numpy's QR of it
    holds about four copies."""
    m = max(1, n // max(k, _BLOCK_BYTES // (64 * k)))
    return [slice(n * i // m, n * (i + 1) // m) for i in range(m)]


def _rows(op: Callable[[slice], np.ndarray], k: int, width: int) -> np.ndarray:
    """The (k, .) block whose row slices are op(slice), slices from _row_slices(k, width), in one array."""
    slices = _row_slices(k, width)
    first = op(slices[0])
    out = np.empty((k, first.shape[1]), dtype=first.dtype)
    out[slices[0]] = first
    for sl in slices[1:]:
        out[sl] = op(sl)
    return out


def _tsqr_r(blocks: list[np.ndarray]) -> np.ndarray:
    """R of Y^T = Z R for Y the rows of the blocks stacked, each block (k_i, n), n >= sum k_i, by tall-skinny QR
    (Demmel, Grigori, Hoemmen, Langou, SIAM J. Sci. Comput. 34, 2012): the R of each column slice, then the R
    of those stacked, so no copy of Y exists."""
    rs = []
    for sl in _column_slices(sum(len(b) for b in blocks), blocks[0].shape[1]):
        # numpy's QR copies its input, so a single block's slice goes in as a view
        piece = blocks[0][:, sl] if len(blocks) == 1 else np.concatenate([b[:, sl] for b in blocks])
        rs.append(np.linalg.qr(piece.T, mode="r"))
    return rs[0] if len(rs) == 1 else np.linalg.qr(np.concatenate(rs), mode="r")


def _orthonormalize(y: np.ndarray) -> None:
    """Overwrite the rows of the (k, n) block y, k <= n, with Q^T from y^T = Q R, by the same tall-skinny QR:
    each column slice's Householder Q lands in place, and the Q of the stacked R factors then mixes each
    slice's k rows.  Q is orthonormal to rounding whatever the rank of y."""
    k = len(y)
    parts = _column_slices(k, y.shape[1])
    rs = []
    for sl in parts:
        z, r = np.linalg.qr(y[:, sl].T)
        y[:, sl] = z.T
        rs.append(r)
    if len(parts) > 1:
        z = np.linalg.qr(np.concatenate(rs))[0]
        for i, sl in enumerate(parts):
            y[:, sl] = z[i * k : (i + 1) * k].T @ y[:, sl]


def _project_out(y: np.ndarray, q_blocks: list[np.ndarray]) -> None:
    """y -= (y Q^H) Q in place, block by block of the orthonormal rows Q, each product summed over column slices."""
    parts = _column_slices(len(y), y.shape[1])
    for q in q_blocks:
        c = sum(q[:, sl].conj() @ y[:, sl].T for sl in parts).T
        for sl in parts:
            y[:, sl] -= c @ q[:, sl]


class RitzSketch(NamedTuple):
    """What ritz_sketch certifies and what its last pass leaves: the log-det, the sketch's orthonormal rows q,
    (k, n), the rows ``rest`` of A Q past n, (k, m - n) for A from C^n to C^m (A Q's first n entries become
    E Q), the R of (A Q)^T = Z R, so that Q^H E Q = I - R^H R, the tail tr E - sum theta, the k x k Gram
    matrix D D^H of the residual rows D = E Q - (Q^H E Q) Q, whose trace is ||D||_F^2 and whose largest
    eigenvalue is ||D||_2^2.  The empty sketch (k = 0) has tail tr E; the identity sketch (k = n) is exact,
    tail and residual 0."""

    log_det: float
    q: np.ndarray
    rest: np.ndarray
    r: np.ndarray
    tail: float
    residual: np.ndarray


def ritz_sketch(
    forward: Product, adjoint: Product, trace: float, n: int, abs_err: float, columns: int = _SKETCH_COLUMNS
) -> RitzSketch:
    """log det(A^H A) of a contraction A on C^n, certified, from V -> A V and W -> A^H W alone, with its sketch.

    The products act on C-contiguous (k, .) blocks, one vector per row, and
    trace is tr E, E = I - A^H A >= 0.  When few eigenvalues of E lie above
    rounding, a randomized Rayleigh-Ritz sum finds the determinant (Halko,
    Martinsson, Tropp, SIAM Review 53, 2011): a fixed-seed random-sign
    sketch Omega of k rows (entries +1 or -1, _signs of random.Random
    seeded with _SKETCH_SEED) gives the orthonormal rows Q of
    qr((E Omega)^T).  Halko et al. allow any test matrix (section 4), and
    the bound g below is a posteriori, computed from the Q at hand, so the
    certificate does not depend on the sketch's distribution.
    The Ritz values are theta = 1 - s^2 over the singular values s of A Q
    (from the R factor of (A Q)^T), the sum is 2 sum log s, and A Q also
    gives E Q = Q - A^H (A Q).

    The Schur complement on (Q, Q_perp) gives det(I - E) =
    det(I - E_11) det(I - S), S = E_22 + E_21 (I - E_11)^-1 E_12 >= 0, so
    the sum exceeds the log-det by at most g / (1 - g) for any g >= tr S:

        g = (tr E - sum theta) + ||E Q - Q (Q^H E Q)||_F^2 / s_min^2 + rounding,

    as tr E_22 = tr E - tr E_11 and E_21 is the residual of E Q.  The
    rounding term carries the two trace sums, (log2 n + k) eps (tr E +
    sum |theta|), and each s's own error: A Q, an FFT product with
    ||A|| <= 1, is about log2(2n) eps off per row, the QR and the k x k SVD
    add about k eps, and 2 log s moves by 2 / s times that, in all
    2 (log2(2n) + k) eps sum 1 / s.  Ritz values of A^H A would carry
    1 / s^2 there (Golub & Van Loan, Matrix Computations, section 8.6).

    The sum is returned once g / (1 - g) <= abs_err.  Otherwise the sketch
    is extended, not redrawn (Halko et al., section 4.4): as many new rows
    as Q holds are the next rows of the same sign stream, E is applied to
    them alone, and they are projected off Q and orthonormalized twice,
    each time followed by a QR.  A Q is formed again for the old rows as
    well, since theirs became E Q.  Once k >= n the identity replaces the
    sketch, which is exact.  The rounding term
    grows with k, so when it alone exceeds the budget NumericalError is
    raised with the bound achieved, the budget requested, s_min and k.  So
    is it, after an extension, when the tail tr E - sum theta alone still
    exceeds the budget, the extension took less than half of the tail
    before it, and a Ritz value is at or below 0 (E is PSD up to the
    rounding of A's coefficients, which can leave it slightly indefinite).
    That stop is a judgement on observed progress, not a certificate: the
    doubled sketch found little of the tail, and the sketch already reaches
    E's floor, so the tail is read as spread over the complement, where a
    larger sketch takes it only k rows at a time (the context adds the
    tail).  It only ever raises, never returns an uncertified sum.  tr E
    within the budget gives 0.0; s_min = 0 gives -inf.

    The sketch comes back with the log-det (RitzSketch), and with it the
    Woodbury inverse (A^H A)^-1 ~ I + Q^H ((R^H R)^-1 - I) Q, which drops
    E_22 and E_21.  Their norms are at most the tail and ||E_21||_2 =
    ||E Q - Q (Q^H E Q)||_2, from the Gram matrix of the residual rows handed
    back, and ||(A^H A)^-1|| = 1 / s_min^2, s_min of R, so to first order
    the inverse is off by a relative (max(tail, 0) + ||E_21||_2) / s_min^2,
    for the caller to judge: the log-det's certificate alone sizes the sketch.

    Memory: Q and one block that holds A Q and then, in place, E Q: two
    (k, n) blocks when A maps C^n to C^n.  While the sketch is extended the
    new rows are a third, which becomes part of Q.  Products stream through
    row slices, and the projections and the tall-skinny QRs (_tsqr_r,
    _orthonormalize) through column slices, of at most 8 MB each
    (_BLOCK_BYTES).
    """
    eps = float(np.finfo(float).eps)
    # the empty sketch: tr E alone bounds the sum, so E = 0 gives exactly 0.0
    g = trace * (1.0 + n.bit_length() * eps)
    if g < 1.0 and g / (1.0 - g) <= abs_err:
        return RitzSketch(0.0, np.zeros((0, n)), np.zeros((0, 0)), np.zeros((0, 0)), trace, np.zeros((0, 0)))
    rng = random.Random(_SKETCH_SEED)
    q_blocks: list[np.ndarray] = []
    k, previous_tail = columns, math.inf
    while True:
        if k >= n:  # the identity sketch is exact
            q_blocks = [np.eye(n)]
        else:

            def sketch(sl: slice) -> np.ndarray:
                omega = _signs(rng, sl.stop - sl.start, n)
                return omega - adjoint(forward(omega))

            y = _rows(sketch, k - sum(len(b) for b in q_blocks), n)
            for _ in range(2 if q_blocks else 1):
                _project_out(y, q_blocks)
                _orthonormalize(y)
            q_blocks.append(y)
        aq_blocks = [_rows(lambda sl: forward(q[sl]), len(q), n) for q in q_blocks]
        r = _tsqr_r(aq_blocks)
        s = np.linalg.svd(r, compute_uv=False)
        ld = 2.0 * float(np.sum(np.log(s))) if s[-1] > 0.0 else -math.inf
        if k >= n or s[-1] == 0.0:
            tail, residual = 0.0, np.zeros(r.shape)
        else:
            for q, aq in zip(q_blocks, aq_blocks):
                eq = aq[:, :n]  # A Q turns into E Q in place, row slice by row slice
                for sl in _row_slices(len(q), n):
                    eq[sl] = q[sl] - adjoint(aq[sl])
                _project_out(eq, q_blocks)
            slices = (np.concatenate([aq[:, sl] for aq in aq_blocks]) for sl in _column_slices(k, n))
            residual = sum(e @ e.conj().T for e in slices)  # D D^H, D = E Q - Q (Q^H E Q)
            theta = 1.0 - s * s  # ascending, as s descends
            rounding = eps * (
                (n.bit_length() + k) * (trace + float(np.sum(np.abs(theta))))
                + 2 * ((2 * n).bit_length() + k) * float(np.sum(1.0 / s))
            )
            tail = trace - float(np.sum(theta))
            g = max(tail, 0.0) + float(np.trace(residual).real) / s[-1] ** 2 + rounding
            if not (g < 1.0 and g / (1.0 - g) <= abs_err):
                achieved = float(g / (1.0 - g)) if g < 1.0 else math.inf
                context = dict(achieved=achieved, requested=abs_err, s_min=float(s[-1]), k=k)
                if rounding >= 1.0 or rounding / (1.0 - rounding) > abs_err:
                    raise NumericalError("log-det rounding alone exceeds the budget", **context)
                if tail > abs_err and 2.0 * tail >= previous_tail and theta[0] <= 0.0:
                    raise NumericalError("log-det tail is spread over the sketch's complement", tail=tail, **context)
                del aq_blocks, aq, eq  # before the next pass draws its sketch rows
                k, previous_tail = 2 * k, tail
                continue
        # one block is handed back as it is: a copy of A Q's rows past n would double them at N = 2^20
        q, rest = (q_blocks[0], aq_blocks[0][:, n:]) if len(q_blocks) == 1 else (
            np.concatenate(q_blocks), np.concatenate([aq[:, n:] for aq in aq_blocks]))
        return RitzSketch(ld, q, rest, r, tail, residual)


def trace_norm(core: np.ndarray, gram: np.ndarray) -> float:
    """Sum of the singular values of V^H core V, from the p x p core and gram = V V^H alone, in O(p^3).

    V = F W for F = Q sqrt(lambda) from eigh(gram) (rounding below zero set to zero) and a
    partial isometry W, so V^H core V and F^H core F share their nonzero singular values
    for any number of columns of V; gram = I gives the dense trace norm.
    """
    lam, q = np.linalg.eigh(gram)
    f = q * np.sqrt(np.maximum(lam, 0.0))
    return float(np.sum(np.linalg.svd(f.conj().T @ core @ f, compute_uv=False)))


_POWER_REL_TOL = 1e-10
_POWER_MAX_ITER = 10_000


def operator_norm(apply: Product, n: int) -> float:
    """Norm (largest |eigenvalue|) of a real symmetric n x n operator, given as v -> A v.

    Power iteration from a fixed unit vector, the first n signs of the
    sketch stream over sqrt(n), so the result is deterministic.  It stops
    once two successive estimates agree to a relative 1e-10 and raises
    NumericalError after 10,000 iterations.
    """
    v = _signs(random.Random(_SKETCH_SEED), 1, n)[0] / math.sqrt(n)
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


def toeplitz_hankel_operator(t: np.ndarray | None, h: np.ndarray | None = None) -> Product:
    """v -> (T(t) - H(h)) v along the last axis of a vector or (k, n) block, in O(k n log n) per call.

    T_jk = t[(n - 1) + j - k] and H_jk = h[j + k], j, k = 0..n-1, each from
    2n - 1 coefficients; t = None leaves -H(h), h = None leaves T(t).  T v is
    entries n - 1 .. 2n - 2 of the convolution t * v, and H v the same
    entries of h * rev(v), rev(v)_m = v[n - 1 - m].  A cyclic convolution of
    length size >= 2n - 1 folds the entries past its end onto indices below
    n - 1 only, so those are exact.  With w = e^{-2 pi i / size} the DFT of
    rev(v) is w^{j (n - 1)} V[-j], read off the block's own transform V
    (V[-j] = conj V[j] for real v), so both symbol spectra, the Hankel one
    times w^{j (n - 1)} (j (n - 1) reduced mod size first), are computed once
    and a call costs one forward and one inverse FFT of the block, a real
    pair when the symbols and v are real; a complex v under real symbols
    takes its real and imaginary parts apart.  The result is a new
    C-contiguous array.
    """
    n = (len(h if t is None else t) + 1) // 2
    size = 1 << (2 * n - 2).bit_length()
    real = not any(np.iscomplexobj(s) for s in (t, h))
    forward, inverse = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    t_hat = 0.0 if t is None else forward(t, size)
    h_hat = None
    if h is not None:
        j = np.arange(size // 2 + 1 if real else size)
        h_hat = forward(h, size) * np.exp(-2j * np.pi / size * (j * (n - 1) % size))

    def apply(v: np.ndarray) -> np.ndarray:
        if real and np.iscomplexobj(v):
            return apply(v.real) + 1j * apply(v.imag)
        spectrum = forward(v, size)
        if h_hat is None:
            spectrum *= t_hat
        else:
            if real:  # V[-j] = conj V[j]
                mirror = np.conj(spectrum)
                mirror *= h_hat
            else:  # V[-j]: V[0], then V reversed
                mirror = np.empty_like(spectrum)
                np.multiply(spectrum[..., :1], h_hat[:1], out=mirror[..., :1])
                np.multiply(spectrum[..., :0:-1], h_hat[1:], out=mirror[..., 1:])
            spectrum *= t_hat
            spectrum -= mirror
            del mirror
        # the complex inverse overwrites the spectrum; only the n entries kept outlive the call
        product = inverse(spectrum, size) if real else inverse(spectrum, size, out=spectrum)
        return np.ascontiguousarray(product[..., n - 1 : 2 * n - 1])

    return apply


def fh_coefficients(delta: float, N: int) -> np.ndarray:
    """The 2N - 1 coefficients sin(delta) / (delta - pi d), d = -(N-1) .. N-1, of fh_matrix.

    The d = 0 entry sin(delta)/delta is what the same formula gives to
    within an ulp for every delta down to the smallest subnormal; only
    delta = 0 (0/0) is set to the limit 1.  At |delta| = pi/2 the matrix is
    (1/pi) times the nonsingular Cauchy matrix 1/(1/2 -+ (j-k)), so only
    |delta| > pi/2 is rejected.
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
    return s


def fh_matrix(delta: float, N: int) -> np.ndarray:
    """Toeplitz matrix with entries sin(delta) / (delta - pi (j-k)), the jump symbol's.

    This is the determinant-carrying matrix of the jump symbol, a writable
    copy of a strided view of fh_coefficients, so the only N x N allocation
    is the result itself.
    """
    return toeplitz(fh_coefficients(delta, N), N).copy()
