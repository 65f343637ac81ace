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
from .matrixcore import LogDet, log_det, operator_norm
from .overlap import dirichlet_flux_closed_form


def hilbert_section(M: int, eta: float = -0.5) -> np.ndarray:
    """Finite section (1/(j+k+eta))_{j,k=1..M} of the Hilbert matrix."""
    if eta <= -2.0 and float(eta).is_integer():
        raise DomainError("-eta must not be a positive integer")
    if M < 1:
        raise DomainError("dimension must be >= 1")
    j = np.arange(1, M + 1, dtype=float)
    return 1.0 / (j[:, None] + j[None, :] + eta)


def hilbert_section_norm(M: int) -> float:
    """Operator norm of the M x M section of H_{-1/2} (power iteration).

    Finite sections are strictly below the full operator norm pi and
    increase with M.
    """
    return operator_norm(hilbert_section(M))


def flip_operator(M: int) -> np.ndarray:
    """The index-reversing involution Theta_M (unitary, Theta^2 = I)."""
    return np.fliplr(np.eye(M))


def hilbert_square_closed_form(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(H^2)_{pq} = sum_r 1/((p+r-1/2)(q+r-1/2)) via digamma differences.

    Equals (psi(p+1/2) - psi(q+1/2)) / (p - q) off the diagonal and
    psi_1(p+1/2) on it; valid for p, q > -1/2 so the flipped K^{--}
    indexing (which reaches p = 0) stays inside the domain.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    diff = p - q
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (digamma(p + 0.5) - digamma(q + 0.5)) / np.where(diff == 0.0, 1.0, diff)
    diag = trigamma(p + 0.5)
    return np.where(diff == 0.0, diag, off)


def k_matrix(M: int) -> np.ndarray:
    """K_M from polygamma closed forms (second-order partial fractions).

    It is computed independently of the parts in ``k_parts``, so the
    decomposition identity K = K^{--} + K^{+-} + K^{-+} + K^{++} is a real
    consistency check rather than a tautology.
    """
    if M < 1:
        raise DomainError("M must be >= 1")
    jv = np.arange(1, M + 1, dtype=float)
    j = jv[:, None]
    k = jv[None, :]
    psi_plus = digamma(M + 0.5 + jv)
    psi_minus = digamma(M + 0.5 - jv)

    # direct form: sum_l 1/((l-1/2)^2 - j^2) = (psi(M+1/2+j) - psi(M+1/2-j))/(2j)
    S = (psi_plus - psi_minus) / (2.0 * jv)
    denom = j**2 - k**2
    with np.errstate(divide="ignore", invalid="ignore"):
        K = j * k * (S[:, None] - S[None, :]) / np.where(denom == 0.0, 1.0, denom)
    diag = 0.25 * (trigamma(M + 0.5 - jv) + trigamma(M + 0.5 + jv)) - (psi_plus - psi_minus) / (4.0 * jv)
    K[np.arange(M), np.arange(M)] = diag
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


def k_parts(M: int) -> dict[str, np.ndarray]:
    """The four parts of K_M, keyed '--', '+-', '-+', '++', from polygamma closed forms."""
    kmm = _k_minus_minus(M)
    jv = np.arange(1, M + 1, dtype=float)
    psi_plus = digamma(M + 0.5 + jv)
    psi_minus = digamma(M + 0.5 - jv)
    jk = jv[:, None] + jv[None, :]
    kpm = -0.25 * (psi_plus[:, None] - psi_minus[None, :]) / jk
    kmp = -0.25 * (psi_plus[None, :] - psi_minus[:, None]) / jk
    kpp = _divided_differences(psi_plus, trigamma(M + 0.5 + jv), 0.25)
    return {"--": kmm, "+-": kpm, "-+": kmp, "++": kpp}


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


def dirichlet_flux_logdet(delta: float, M: int) -> LogDet:
    """log det(I - (4/pi^2) sin^2(delta) K_M) for even particle number N = 2M.

    The log magnitude equals log |D~_{N,L}| of the assembled 2M x 2M
    Dirichlet jump-symbol matrix; `block_reduction_check` verifies the
    agreement.
    """
    if abs(delta) > math.pi / 2:
        raise DomainError("dirichlet_flux_logdet requires |delta| <= pi/2")
    K = k_matrix(M)
    A = np.eye(M) - (4.0 / math.pi**2) * math.sin(delta) ** 2 * K
    return log_det(A)


def block_reduction_check(delta: float, M: int) -> tuple[float, float]:
    """(log|det block|, log|det reduced|) for the 2M x 2M vs K_M determinants."""
    block = dirichlet_flux_closed_form(delta, 2 * M)
    ld_block = log_det(block).log_magnitude
    ld_reduced = dirichlet_flux_logdet(delta, M).log_magnitude
    return ld_block, ld_reduced


def remainder_logdet(delta: float, M: int) -> LogDet:
    """The bounded second factor of the Dirichlet determinant split.

    det(I - [I - (4/pi^2) sin^2 K^{--}]^{-1} (4/pi^2) sin^2 (K^{++} + K^{+-} + K^{-+})).
    Only boundedness is expected of it; no asymptotics are asserted.
    """
    parts = k_parts(M)
    c = (4.0 / math.pi**2) * math.sin(delta) ** 2
    lead = np.eye(M) - c * parts["--"]
    rest = c * (parts["++"] + parts["+-"] + parts["-+"])
    A = np.eye(M) - np.linalg.solve(lead, rest)
    return log_det(A)


def remark_overlap_logdet(delta: float, N: int, eta: float = -0.5) -> LogDet:
    """Exploratory determinant det(I - (sin^2 delta / pi^2) P_N H_eta^2 P_N).

    This is the object controlling the exact Dirichlet asymptotics; no
    Szego-type theorem covers it, so the value is reported without any
    asserted decay rate.
    """
    # (H_eta^2)_{jk} = sum_{r>=1} 1/((j+r+eta)(k+r+eta))
    #              = (psi(j+eta+1) - psi(k+eta+1)) / (j-k), trigamma on the diagonal
    x = np.arange(1, N + 1, dtype=float) + eta + 1.0
    A = np.eye(N) - (math.sin(delta) ** 2 / math.pi**2) * _divided_differences(digamma(x), trigamma(x), 1.0)
    return log_det(A)
