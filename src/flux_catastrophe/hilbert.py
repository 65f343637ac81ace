"""Dirichlet-case reduction: K matrices, Hilbert sections, and the upper bound.

For even particle number N = 2M the Dirichlet jump-symbol determinant
reduces to an M x M problem,

    |D~_{N,L}| = |det( I - (4/pi^2) sin^2(delta_L) K_M )|,

where (K_M)_{jk} = j k sum_{l > M} 1 / [((l-1/2)^2 - j^2)((l-1/2)^2 - k^2)].
Partial fractions split K_M into four pieces K^{--} + K^{+-} + K^{-+} + K^{++}
whose entries are infinite sums of products 1/(l - 1/2 -+ j); every such sum
collapses to digamma/trigamma closed forms, so no truncation parameter
exists anywhere in this module.

K^{--} is a flipped finite section of the square of the Hilbert matrix
H = (1/(j+k-1/2)) and inherits the norm bound ||K^{--}|| <= pi^2/4 from
||H|| = pi; its trace grows like (1/4) ln N while the other pieces stay
O(1), which is what produces the sin^2(delta) upper-bound exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import digamma, trigamma
from .errors import DomainError
from .matrixcore import log_det, operator_norm
from .overlap import dirichlet_flux_closed_form


def hilbert_section(M: int) -> np.ndarray:
    """Finite section (1/(j+k-1/2))_{j,k=1..M} of the Hilbert matrix H_{-1/2}."""
    if M < 1:
        raise DomainError("dimension must be >= 1")
    j = np.arange(1, M + 1, dtype=float)
    return 1.0 / (j[:, None] + j[None, :] - 0.5)


def hilbert_section_norm(M: int) -> float:
    """Operator norm of the M x M section of H_{-1/2} (power iteration).

    Finite sections are strictly below the full operator norm pi and
    increase with M.
    """
    return operator_norm(hilbert_section(M))


def k_matrix(M: int) -> np.ndarray:
    """K_M from polygamma closed forms (second-order partial fractions).

    It is computed independently of the four partial-fraction parts, so
    the decomposition identity K = K^{--} + K^{+-} + K^{-+} + K^{++} is a
    real consistency check rather than a tautology.  Off the diagonal
    K_jk = j k (S_j - S_k) / (j^2 - k^2), built in place in the result with
    one M x M scratch array that holds j k and then j^2 - k^2, so the peak
    is two M x M arrays.
    """
    if M < 1:
        raise DomainError("M must be >= 1")
    jv = np.arange(1, M + 1, dtype=float)
    psi_plus = digamma(M + 0.5 + jv)
    psi_minus = digamma(M + 0.5 - jv)

    # direct form: sum_l 1/((l-1/2)^2 - j^2) = (psi(M+1/2+j) - psi(M+1/2-j))/(2j)
    S = (psi_plus - psi_minus) / (2.0 * jv)
    K = np.subtract.outer(S, S)
    scratch = np.multiply.outer(jv, jv)
    K *= scratch
    np.subtract.outer(jv**2, jv**2, out=scratch)
    np.fill_diagonal(scratch, 1.0)
    K /= scratch
    del scratch
    diag = 0.25 * (trigamma(M + 0.5 - jv) + trigamma(M + 0.5 + jv)) - (psi_plus - psi_minus) / (4.0 * jv)
    np.fill_diagonal(K, diag)
    return K


def _divided_differences(f: np.ndarray, df: np.ndarray, scale: float) -> np.ndarray:
    """scale (f_j - f_k) / (j - k) off the diagonal and scale df_j on it.

    Built in place from two M x M arrays, the result and the index gaps.
    """
    idx = np.arange(f.size, dtype=float)
    out = np.subtract.outer(f, f)
    gaps = np.subtract.outer(idx, idx)
    np.fill_diagonal(gaps, 1.0)
    out /= gaps
    out *= scale
    np.fill_diagonal(out, scale * df)
    return out


def _k_minus_minus(M: int) -> np.ndarray:
    """K^{--}_{jk} = (psi(M+1/2-j) - psi(M+1/2-k)) / (4 (k - j)), trigamma / 4 on the diagonal."""
    if M < 1:
        raise DomainError("M must be >= 1")
    x = M + 0.5 - np.arange(1, M + 1, dtype=float)
    return _divided_differences(-digamma(x), trigamma(x), 0.25)


@dataclass(frozen=True)
class KPartNorms:
    """Trace norms of the K pieces plus the operator norm of K^{--}.

    K^{--} and K^{++} are positive semidefinite, so their trace norms are
    their traces; the mixed pieces are bounded by Cauchy-Schwarz on the
    Hilbert-Schmidt factors, all in closed form.
    """

    t_mm: float
    t_pp: float
    t_mixed: float
    op_mm: float


def k_part_traces(M: int) -> tuple[float, float]:
    """Closed-form traces of K^{--} and K^{++} (no matrix assembly)."""
    jv = np.arange(1, M + 1, dtype=float)
    t_mm = 0.25 * float(np.sum(trigamma(jv - 0.5)))
    t_pp = 0.25 * float(np.sum(trigamma(M + 0.5 + jv)))
    return t_mm, t_pp


def k_part_norms(M: int) -> KPartNorms:
    t_mm, t_pp = k_part_traces(M)
    # ||P A*(1-P)||_2^2 = 4 tr K^{--} and ||P B (1-P)||_2^2 = 4 tr K^{++}
    t_mixed = 0.25 * math.sqrt(4.0 * t_mm) * math.sqrt(4.0 * t_pp)
    op_mm = operator_norm(_k_minus_minus(M))
    return KPartNorms(t_mm=t_mm, t_pp=t_pp, t_mixed=t_mixed, op_mm=op_mm)


def dirichlet_flux_logdet(delta: float, M: int) -> float:
    """log|det(I - (4/pi^2) sin^2(delta) K_M)| for even particle number N = 2M.

    It equals log |D~_{N,L}| of the assembled 2M x 2M Dirichlet
    jump-symbol matrix; `block_reduction_check` verifies the agreement.
    """
    if abs(delta) > math.pi / 2:
        raise DomainError("dirichlet_flux_logdet requires |delta| <= pi/2")
    A = k_matrix(M)
    A *= -(4.0 / math.pi**2) * math.sin(delta) ** 2
    A.flat[:: M + 1] += 1.0
    return log_det(A)


def block_reduction_check(delta: float, M: int) -> tuple[float, float]:
    """(log|det block|, log|det reduced|) for the 2M x 2M vs K_M determinants."""
    block = dirichlet_flux_closed_form(delta, 2 * M)
    return log_det(block), dirichlet_flux_logdet(delta, M)
