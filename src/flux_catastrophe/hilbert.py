"""Dirichlet-case reduction: K matrices, Hilbert sections, and the upper bound.

The N x N Dirichlet jump-symbol matrix, overlap.flux_matrix(Phi_L(L),
DIRICHLET, N), is F = c I + i s S, c = cos Phi_L(L), s = sin Phi_L(L),
with a real symmetric S that couples only opposite parities:
S = [[0, B], [B^T, 0]] on the T = ceil(N/2) odd and M = floor(N/2) even
indices.  The Schur complement on these parity blocks gives, for every N,

    det F = c^(N - 2M) det(c^2 I + s^2 B^T B),  I - B^T B = (4/pi^2) K,

up to the sign similarity diag((-1)^k) on K, since the infinite matrix is
unitary and I - B^T B sums the odd rows beyond N:

    K_jk = j k sum_{l > T} 1 / [((l-1/2)^2 - j^2)((l-1/2)^2 - k^2)],  j, k = 1..M.

So |D~_{N,L}| = |cos delta_L|^(N-2M) |det(I - (4/pi^2) sin^2(delta_L) K)|,
and for even N (T = M) K is the paper's K_M.  Partial fractions split K_M
into four pieces K^{--} + K^{+-} + K^{-+} + K^{++} whose entries are
infinite sums of products 1/(l - 1/2 -+ j); every such sum collapses to
digamma/trigamma closed forms, so no truncation parameter exists anywhere
in this module.

K^{--} is a flipped finite section of the square of the Hilbert matrix
H = (1/(j+k-1/2)) and inherits the norm bound ||K^{--}|| <= pi^2/4 from
||H|| = pi; its trace grows like (1/4) ln N while the other pieces stay
O(1), which is what produces the sin^2(delta) upper-bound exponent.  The
Hankel section of H and K^{--} are applied by FFT Toeplitz products from
O(M) vectors and their traces are closed forms.  K itself is applied the
same way, four FFT Toeplitz/Hankel products per block of columns, and
dirichlet_flux_logdet takes log det(I - (4/pi^2) sin^2(delta) K) from its
few eigenvalues above rounding with the shared certified engine
matrixcore.ritz_log_det, so only k_matrix, the dense oracle, holds an
M x M array.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import digamma, trigamma
from .errors import DomainError
from .matrixcore import operator_norm, ritz_log_det, toeplitz_product


def hilbert_section_norm(M: int) -> float:
    """Operator norm of the M x M section (1/(j+k-1/2))_{j,k=1..M} of H_{-1/2}.

    The section is the Hankel matrix h_{j+k}, h_s = 1/(s - 1/2), so its
    product with v is the Toeplitz product of h with v reversed.  Finite
    sections are strictly below the full norm pi and increase with M.
    """
    if M < 1:
        raise DomainError("dimension must be >= 1")
    h = 1.0 / (np.arange(2, 2 * M + 1) - 0.5)
    return operator_norm(lambda v: toeplitz_product(h, v[::-1]), M)


def _k_vectors(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """j = 1..M, S_j = sum_{l > T} 1 / ((l-1/2)^2 - j^2) and the diagonal K_jj, all in closed form.

    K_jk = j k (S_j - S_k) / (j^2 - k^2) off the diagonal, so these three
    vectors fix all of K.
    """
    M, T = N // 2, (N + 1) // 2
    jv = np.arange(1, M + 1, dtype=float)
    psi_plus = digamma(T + 0.5 + jv)
    psi_minus = digamma(T + 0.5 - jv)
    S = (psi_plus - psi_minus) / (2.0 * jv)
    diag = 0.25 * (trigamma(T + 0.5 - jv) + trigamma(T + 0.5 + jv)) - 0.5 * S
    return jv, S, diag


def k_matrix(N: int) -> np.ndarray:
    """The M x M matrix K of N particles (K_M for even N = 2M), the dense oracle of dirichlet_flux_logdet.

    It is computed independently of the four partial-fraction parts, so
    the decomposition identity K = K^{--} + K^{+-} + K^{-+} + K^{++} is a
    real consistency check rather than a tautology.  Off the diagonal
    K_jk = j k (S_j - S_k) / (j^2 - k^2), built in place in the result with
    one M x M scratch array that holds j k and then j^2 - k^2, so the peak
    is two M x M arrays.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    jv, S, diag = _k_vectors(N)
    K = np.subtract.outer(S, S)
    scratch = np.multiply.outer(jv, jv)
    K *= scratch
    np.subtract.outer(jv**2, jv**2, out=scratch)
    np.fill_diagonal(scratch, 1.0)
    K /= scratch
    del scratch
    np.fill_diagonal(K, diag)
    return K


def _k_product(N: int) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """V -> K V for an (M, k) block V in O(k M log M), and tr K.

    jk / (j^2 - k^2) = (j/2) [1/(j - k) - 1/(j + k)] turns the off-diagonal
    entries into K V = diag V + (j/2) [S (T - H) V - (T - H)(S V)] with the
    Toeplitz T_jk = 1/(j - k) (zero diagonal) and the Hankel H_jk = 1/(j + k),
    whose diagonal term drops out of the difference; each is one
    toeplitz_product over all k columns.
    """
    jv, S, diag = _k_vectors(N)
    M = len(jv)
    d = np.arange(1 - M, M, dtype=float)
    t = np.divide(1.0, d, out=np.zeros_like(d), where=d != 0)
    h = 1.0 / np.arange(2, 2 * M + 1, dtype=float)
    half_j, S, diag = 0.5 * jv[:, None], S[:, None], diag[:, None]

    def t_minus_h(V: np.ndarray) -> np.ndarray:
        return toeplitz_product(t, V) - toeplitz_product(h, V[::-1])

    def apply(V: np.ndarray) -> np.ndarray:
        return diag * V + half_j * (S * t_minus_h(V) - t_minus_h(S * V))

    return apply, float(np.sum(diag))


class KPartNorms(NamedTuple):
    """Trace norms of the K pieces plus the operator norm of K^{--}, in CSV column order.

    K^{--} and K^{++} are positive semidefinite, so their trace norms are
    their traces; the mixed pieces are bounded by Cauchy-Schwarz on the
    Hilbert-Schmidt factors, all in closed form.
    """

    t_mm: float
    t_pp: float
    t_mixed: float
    op_mm: float


def k_part_traces(M: int) -> tuple[float, float]:
    """Traces (1/4) sum_{j=0}^{M-1} psi_1(x + j) of K^{--} (x = 1/2) and K^{++} (x = M + 3/2).

    Summed over j, psi_1(x + j) counts 1/(x + m)^2 min(m + 1, M) times: the
    tail m >= M is M psi_1(x + M), and the head (m + 1)/(x + m)^2 =
    1/(x + m) + (1 - x)/(x + m)^2 is two polygamma differences.
    """
    x = np.array([0.5, M + 1.5])
    t = M * trigamma(x + M) + digamma(x + M) - digamma(x) + (1.0 - x) * (trigamma(x) - trigamma(x + M))
    return 0.25 * float(t[0]), 0.25 * float(t[1])


def k_part_norms(M: int) -> KPartNorms:
    """The dirichlet_hilbert row's K-part norms in O(M) memory.

    K^{--}_jk = (psi(x_j) - psi(x_k)) / (4 (k - j)), psi_1(x_j) / 4 on the
    diagonal, x_j = M + 1/2 - j.  With f = psi(x) and the Toeplitz
    T_jk = 1/(k - j) (zero diagonal), K^{--} v = (1/4) [f Tv - T(f v) +
    psi_1(x) v]: two Toeplitz products per power-iteration step.
    """
    if M < 1:
        raise DomainError("M must be >= 1")
    t_mm, t_pp = k_part_traces(M)
    # ||P A*(1-P)||_2^2 = 4 tr K^{--} and ||P B (1-P)||_2^2 = 4 tr K^{++}
    t_mixed = 0.25 * math.sqrt(4.0 * t_mm) * math.sqrt(4.0 * t_pp)
    x = M + 0.5 - np.arange(1, M + 1, dtype=float)
    f, df = digamma(x), trigamma(x)
    d = np.arange(1 - M, M, dtype=float)
    t = np.divide(-1.0, d, out=np.zeros_like(d), where=d != 0)
    op_mm = operator_norm(lambda v: 0.25 * (f * toeplitz_product(t, v) - toeplitz_product(t, f * v) + df * v), M)
    return KPartNorms(t_mm, t_pp, t_mixed, op_mm)


_SKETCH_COLUMNS = 24
_LOGDET_ABS_ERR = 1e-12


def dirichlet_flux_logdet(delta: float, N: int) -> float:
    """log|D~_{N,L}| of the N x N Dirichlet jump-symbol matrix, any N >= 1, from O(M) vectors.

    det F = c^(N - 2M) det(c^2 I + s^2 B^T B) with I - B^T B = (4/pi^2) K
    (module docstring) makes it (N - 2M) log|cos delta| plus
    log det(I - alpha K), alpha = (4/pi^2) sin^2(delta), M = N // 2; odd N
    at delta = pi/2 gives exactly -inf and delta = 0 exactly 0.0.

    K is positive semidefinite, and all but its first twenty or so
    eigenvalues are below rounding for N <= 2^17, so matrixcore.ritz_log_det
    takes log det(I - alpha K) from a k = 24 column Rayleigh-Ritz sketch of
    E = alpha K, certified to 1e-12 under the closed-form trace alpha tr K
    (the sum of the closed-form diagonal).  K is only ever applied to M x k
    blocks (_k_product), so for M > k no M x M array exists.  LU of the
    dense K of k_matrix and of overlap.flux_matrix(Phi, DIRICHLET, N),
    Phi = n pi + delta, are the test oracles.
    """
    if abs(delta) > math.pi / 2:
        raise DomainError("dirichlet_flux_logdet requires |delta| <= pi/2")
    if N < 1:
        raise DomainError("N must be >= 1")
    odd = 0.0
    if N % 2:
        if abs(delta) == math.pi / 2:
            return -math.inf
        odd = math.log(abs(math.cos(delta)))
    alpha = (4.0 / math.pi**2) * math.sin(delta) ** 2
    M = N // 2
    if alpha == 0.0 or M == 0:
        return odd
    apply, trace = _k_product(N)
    return odd + ritz_log_det(lambda V: alpha * apply(V), alpha * trace, M, _LOGDET_ABS_ERR, _SKETCH_COLUMNS)
