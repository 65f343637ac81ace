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
O(M) vectors and their traces are closed forms.  As c^2 + s^2 = 1,
I - alpha K = c^2 I + s^2 B^T B = G^T G, alpha = (4/pi^2) sin^2(delta), is
the Gram matrix of G = [|c| I; |s| B], F's M even-parity columns up to a
phase per block.  Up to signs B is (2/pi) B', one Toeplitz-minus-Hankel
section, so dirichlet_flux_logdet hands _parity_factor's G to the shared
certified engine matrixcore.ritz_sketch; only k_matrix, the dense oracle,
holds an M x M array.  The same sketch (dirichlet_rest_sketch) also gives
overlap the Woodbury inverse of the jump matrix for the Dirichlet G, so a
grid point runs it once for both determinants.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .asymptotics import digamma, trigamma
from .errors import DomainError
from .matrixcore import Product, RitzSketch, operator_norm, ritz_sketch, toeplitz_hankel_operator


def hilbert_section_norm(M: int) -> float:
    """Operator norm of the M x M section (1/(j+k-1/2))_{j,k=1..M} of H_{-1/2}.

    The section is the Hankel matrix h_{j+k}, h_s = 1/(s - 1/2), whose FFT
    operator (applied as -H, of the same norm) needs no matrix.  Finite
    sections are strictly below the full norm pi and increase with M.
    """
    if M < 1:
        raise DomainError("dimension must be >= 1")
    h = 1.0 / (np.arange(2, 2 * M + 1) - 0.5)
    return operator_norm(toeplitz_hankel_operator(None, h), M)


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


def parity_block(N: int) -> tuple[Product, Product]:
    """(V -> B' V, W -> B'^T W) on (k, M) and (k, T) blocks, in O(k T log T), M = N // 2, T = N - M.

    B'_ab = 1/(2(a - b) - 1) - 1/(2(a + b) - 1), a = 1..T, b = 1..M, is
    T(t) - H(h) with t_u = 1/(2u - 1) and h_v = 1/(2v + 3) (v = a + b - 2),
    one FFT operator on T x T blocks: a (k, M) block is padded with a zero
    column when N is odd (T = M + 1), and B'^T runs on the reversed t.  In
    flux_matrix's order B = D_1 (2/pi) B' D_2, D_1 = diag((-1)^(a+1)) and
    D_2 = diag((-1)^(b+1)) (module docstring).
    """
    M, T = N // 2, (N + 1) // 2
    u = np.arange(1 - T, T, dtype=float)
    t, h = 1.0 / (2.0 * u - 1.0), 1.0 / (2.0 * np.arange(2 * T - 1) + 3.0)
    b, bt = toeplitz_hankel_operator(t, h), toeplitz_hankel_operator(t[::-1], h)
    return (lambda V: b(np.pad(V, [(0, 0), (0, T - M)]))), (lambda W: bt(W)[:, :M])


def _parity_factor(N: int, delta: float) -> tuple[Product, Product]:
    """V -> G V and W -> G^T W on (k, .) blocks, G = [|cos delta| I_M; (2/pi) |sin delta| B'], B' of parity_block.
    G^T G = I - alpha K up to diag((-1)^b) (module docstring)."""
    M = N // 2
    b, bt = parity_block(N)
    c, s = abs(math.cos(delta)), (2.0 / math.pi) * abs(math.sin(delta))

    def forward(V: np.ndarray) -> np.ndarray:
        return np.concatenate([c * V, s * b(V)], axis=1)

    def adjoint(W: np.ndarray) -> np.ndarray:
        return c * W[:, :M] + s * bt(np.ascontiguousarray(W[:, M:]))

    return forward, adjoint


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
    psi_1(x) v]: one FFT Toeplitz product of the stacked [v, f v] per
    power-iteration step.
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
    product = toeplitz_hankel_operator(t)

    def apply(v: np.ndarray) -> np.ndarray:
        tv, tfv = product(np.stack([v, f * v]))
        return 0.25 * (f * tv - tfv + df * v)

    op_mm = operator_norm(apply, M)
    return KPartNorms(t_mm, t_pp, t_mixed, op_mm)


_SKETCH_COLUMNS = 24
_LOGDET_ABS_ERR = 1e-12


def dirichlet_flux_logdet(delta: float, N: int) -> float:
    """log|D~_{N,L}| of the N x N Dirichlet jump-symbol matrix, any N >= 1, from O(N) vectors: by det F =
    c^(N - 2M) det(G^T G) (module docstring), (N - 2M) log|cos delta| + dirichlet_rest_sketch(delta, N)'s log-det,
    M = N // 2, so odd N at delta = pi/2 gives exactly -inf.  LU of I - alpha K with k_matrix's K and of
    overlap.flux_matrix(Phi, DIRICHLET, N), Phi = n pi + delta, are the test oracles."""
    odd = N % 2 and (-math.inf if abs(delta) == math.pi / 2 else math.log(abs(math.cos(delta))))
    return odd + dirichlet_rest_sketch(delta, N).log_det


def dirichlet_rest_sketch(delta: float, N: int) -> RitzSketch:
    """matrixcore.ritz_sketch on _parity_factor's G: its log-det is log det(G^T G), log|det F| without the odd-N
    factor, for odd N log|det F_rest| of F on the complement of its off-diagonal part's null vector, finite at
    delta = pi/2 too; its q, rest (G Q's odd part, (2/pi) |sin delta| B' Q) and R also give (G^T G)^-1, overlap's
    Dirichlet jump inverse.

    G depends on delta through |cos delta| and |sin delta| alone (so -delta gives the same bits); delta = 0
    (and N = 1) gives exactly 0.0 and the empty sketch.  All but twenty or so eigenvalues of I - G^T G =
    alpha K, alpha = (4/pi^2) sin^2(delta), are below rounding for N <= 2^17, so ritz_sketch takes it from a
    k = 24 row sketch, certified to 1e-12 under the closed-form trace alpha tr K; the tail tr E - sum theta
    it leaves reads at most 1.6e-14 and the residual ||E Q - Q H||_F 1.6e-14 on the sweep_dirichlet grid, 7.0e-14
    and 4.2e-13 at N = 2^17.  For M > k no M x M array exists.
    """
    if abs(delta) > math.pi / 2:
        raise DomainError("dirichlet_flux_logdet requires |delta| <= pi/2")
    if N < 1:
        raise DomainError("N must be >= 1")
    alpha = (4.0 / math.pi**2) * math.sin(delta) ** 2
    M = N // 2
    if alpha == 0.0 or M == 0:
        return RitzSketch(0.0, np.zeros((0, M)), np.zeros((0, N - M)), np.zeros((0, 0)), 0.0, np.zeros((0, 0)))
    trace = alpha * float(np.sum(_k_vectors(N)[2]))
    return ritz_sketch(*_parity_factor(N, delta), trace, M, _LOGDET_ABS_ERR, _SKETCH_COLUMNS)
