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
O(M) vectors and their traces are closed forms, so only k_matrix and
dirichlet_flux_logdet hold an M x M array.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .asymptotics import digamma, trigamma
from .errors import DomainError
from .matrixcore import log_det, operator_norm, toeplitz_product


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


def k_matrix(N: int) -> np.ndarray:
    """The M x M matrix K of N particles (K_M for even N = 2M) from polygamma closed forms.

    It is computed independently of the four partial-fraction parts, so
    the decomposition identity K = K^{--} + K^{+-} + K^{-+} + K^{++} is a
    real consistency check rather than a tautology.  Off the diagonal
    K_jk = j k (S_j - S_k) / (j^2 - k^2), built in place in the result with
    one M x M scratch array that holds j k and then j^2 - k^2, so the peak
    is two M x M arrays.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    M, T = N // 2, (N + 1) // 2
    jv = np.arange(1, M + 1, dtype=float)
    psi_plus = digamma(T + 0.5 + jv)
    psi_minus = digamma(T + 0.5 - jv)

    # direct form: sum_l 1/((l-1/2)^2 - j^2) = (psi(T+1/2+j) - psi(T+1/2-j))/(2j)
    S = (psi_plus - psi_minus) / (2.0 * jv)
    K = np.subtract.outer(S, S)
    scratch = np.multiply.outer(jv, jv)
    K *= scratch
    np.subtract.outer(jv**2, jv**2, out=scratch)
    np.fill_diagonal(scratch, 1.0)
    K /= scratch
    del scratch
    diag = 0.25 * (trigamma(T + 0.5 - jv) + trigamma(T + 0.5 + jv)) - (psi_plus - psi_minus) / (4.0 * jv)
    np.fill_diagonal(K, diag)
    return K


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


def dirichlet_flux_logdet(delta: float, N: int) -> float:
    """log|D~_{N,L}| of the N x N Dirichlet jump-symbol matrix, any N >= 1.

    det F = c^(N - 2M) det(c^2 I + s^2 B^T B) with I - B^T B = (4/pi^2) K
    (module docstring) makes it (N - 2M) log|cos delta| plus the real M x M
    log|det(I - (4/pi^2) sin^2(delta) K)|, M = N // 2; odd N at delta = pi/2
    gives exactly -inf.  Dense LU of overlap.flux_matrix(Phi, DIRICHLET, N),
    Phi = n pi + delta, is the test oracle.
    """
    if abs(delta) > math.pi / 2:
        raise DomainError("dirichlet_flux_logdet requires |delta| <= pi/2")
    A = k_matrix(N)
    A *= -(4.0 / math.pi**2) * math.sin(delta) ** 2
    A.flat[:: N // 2 + 1] += 1.0
    ld = log_det(A)
    if N % 2:
        ld += -math.inf if abs(delta) == math.pi / 2 else math.log(abs(math.cos(delta)))
    return ld
