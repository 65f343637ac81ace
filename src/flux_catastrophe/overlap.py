"""Exact N-fermion ground-state overlap matrices and the factorization checks.

Periodic case.  With occupied windows N_0 (free) and N_{n_L} (perturbed),
the overlap determinant equals det T_N(e^{i g_L}) in the plane-wave basis,
where g_L(x) = Phi_L(x) - delta_L x / L; the matrix is classical Toeplitz,
so only the 2N-1 Fourier-type integrals

    t_d = (1/2L) int_{-L}^{L} e^{i g_L(x)} e^{i pi d x / L} dx

are needed.  Outside the potential's support g_L is linear, so those parts
integrate in closed form and quadrature only ever sees the support.

The companion matrix T_N(e^{i g~_L}) with
g~_L(x) = Phi_L(L) sign(x) - delta_L x / L has the exact entries
(-1)^{n_L} sin(delta_L) / (delta_L - pi (j-k)); the sign flip for odd n_L is
invisible in |det| but matters for the entrywise difference Delta_N.

Dirichlet case.  g_L = Phi_L in the sine/cosine basis; products of two
basis functions reduce to single cosines/sines, so the N^2 entries are
assembled from O(N) one-dimensional integrals.  The jump-symbol matrix has
the closed form with diagonal cos(Phi_L(L)) and off-diagonal entries
(2i/pi) sin(Phi_L(L)) [1/(j+k) +- 1/(j-k)] on opposite parities.

Delta_N has low numerical rank.  In both bases the exact and the jump
symbol agree outside the support [-R, R], so
Delta_N = <phi_j, (e^{i g_L} - e^{i g~_L}) phi_k> only sees the basis
functions restricted to [-R, R].  On the path L = N / (2 rho) their
frequencies fill a band of width about 2 pi rho, and functions limited to
an interval of length 2R and to that band span, up to an accuracy eps, a
space of dimension about 2 R rho plus a term logarithmic in 1/eps (the
Slepian time-frequency count), whatever N is.  For the benchmark's
Gaussian bump (R = 4, rho = 1) 13 singular values lie above 1e-12 sigma_max
from N = 128 to 2048.  matrixcore.trace_norm uses this through a
certified randomized range finder; it is the same compact-support fact
behind the paper's estimate ||Delta_N||_1 <= (N/L) int |y a(y)| dy.

evaluate_point builds both matrices once per grid point and derives the
log-determinants, C_{N,L}, ||Delta_N||_1 and the moment bound from them;
overlap_at and delta_matrix_bound_check are views of its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .matrixcore import LogDet, SymbolKind, SymbolMatrix, log_det, trace_norm
from .matrixcore import fh_matrix
from .potential import FluxProfile, MagneticPotential, flux_profile, moment_integrals
from .quadrature import cis_integral, gauss_legendre_rule
from .spectrum import BoundaryCondition


@dataclass(frozen=True)
class OverlapResult:
    """Log-determinants and their ratio C_{N,L} for one grid point."""

    N: int
    L: float
    bc: BoundaryCondition
    delta_L: float
    n_L: int
    logdet_exact: LogDet
    logdet_flux: LogDet
    c_ratio: float


def _support_nodes(a: MagneticPotential, L: float, omega_max: float, refine: int):
    """Panel nodes/weights covering the potential support at resolution level ``refine``."""
    R = min(a.support_radius, L)
    wavelength = 2.0 * math.pi / omega_max if omega_max > 0 else 2.0 * R
    base_width = min(wavelength / 8.0, a.resolution_scale / 2.0)
    width = base_width / (2.0**refine)
    brk = sorted({-R, R} | {b for b in a.breakpoints if -R < b < R} | {0.0})
    edges: list[float] = [brk[0]]
    for lo, hi in zip(brk[:-1], brk[1:]):
        k = max(1, int(math.ceil((hi - lo) / width)))
        edges.extend(np.linspace(lo, hi, k + 1)[1:].tolist())
    edges_arr = np.asarray(edges)
    x, w = gauss_legendre_rule(16)
    mid = 0.5 * (edges_arr[1:] + edges_arr[:-1])
    half = 0.5 * (edges_arr[1:] - edges_arr[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return R, nodes, weights


def _periodic_overlap_coefficients(
    a: MagneticPotential, L: float, prof: FluxProfile, N: int, refine: int
) -> np.ndarray:
    """The 2N-1 Toeplitz coefficients t_d of e^{i g_L}, d = -(N-1) .. N-1."""
    delta = prof.delta_L
    total = prof.total_flux
    d = np.arange(-(N - 1), N, dtype=float)
    omega = (np.pi * d - delta) / L
    omega_max = float(np.max(np.abs(omega)))
    R, nodes, weights = _support_nodes(a, L, omega_max, refine)
    g = prof.phi_at(nodes) - delta * nodes / L
    boundary = np.exp(1j * g) * weights
    phases = np.exp(1j * np.outer(np.pi * d / L, nodes))
    middle = phases @ boundary
    right = np.exp(1j * total) * cis_integral(omega, R, L) if L > R else 0.0
    left = np.exp(-1j * total) * cis_integral(omega, -L, -R) if L > R else 0.0
    return (middle + right + left) / (2.0 * L)


def _toeplitz_from_coefficients(t: np.ndarray, N: int) -> np.ndarray:
    rows = np.arange(N)
    return t[(N - 1) + rows[:, None] - rows[None, :]]


def _dirichlet_trig_integrals(
    a: MagneticPotential, L: float, prof: FluxProfile, N: int, refine: int
) -> tuple[np.ndarray, np.ndarray]:
    """I_cos[m], I_sin[m] = int e^{i Phi_L(x)} {cos, sin}(pi m x / 2L) dx, m = 0..2N."""
    ms = np.arange(0, 2 * N + 1, dtype=float)
    omega = np.pi * ms / (2.0 * L)
    omega_max = float(omega[-1])
    R, nodes, weights = _support_nodes(a, L, omega_max, refine)
    eig = np.exp(1j * prof.phi_at(nodes)) * weights
    args = np.outer(omega, nodes)
    icos = np.cos(args) @ eig
    isin = np.sin(args) @ eig
    if L > R:
        phi = prof.total_flux
        # on the outer intervals e^{i Phi_L} is the constant e^{+-i phi}, and
        # Re/Im of int e^{i w x} dx give the cosine/sine integrals directly
        right = cis_integral(omega, R, L)
        left = cis_integral(omega, -L, -R)
        icos += np.exp(1j * phi) * right.real + np.exp(-1j * phi) * left.real
        isin += np.exp(1j * phi) * right.imag + np.exp(-1j * phi) * left.imag
    return icos, isin


def _dirichlet_entries_from_integrals(icos: np.ndarray, isin: np.ndarray, N: int, L: float) -> np.ndarray:
    j = np.arange(1, N + 1)
    jj = j[:, None]
    kk = j[None, :]
    diffs = jj - kk
    sums = jj + kk
    ic = icos[np.abs(diffs)]
    ic_sum = icos[sums]
    is_diff = np.sign(diffs) * isin[np.abs(diffs)]
    is_sum = isin[sums]
    both_even = (jj % 2 == 0) & (kk % 2 == 0)
    both_odd = (jj % 2 == 1) & (kk % 2 == 1)
    row_even = (jj % 2 == 0) & (kk % 2 == 1)
    entries = np.where(
        both_even,
        ic - ic_sum,
        np.where(
            both_odd,
            ic + ic_sum,
            np.where(row_even, is_diff + is_sum, -is_diff + is_sum),
        ),
    )
    return entries / (2.0 * L)


def overlap_matrix(
    a: MagneticPotential,
    bc: BoundaryCondition,
    N: int,
    L: float,
    *,
    quadrature_tol: float = 1e-10,
    max_refine: int = 4,
) -> SymbolMatrix:
    """Overlap matrix of the free and perturbed N-fermion ground states.

    Returns T_N(e^{i g_L}) in the free eigenbasis; its determinant equals
    the physical overlap determinant between the occupied windows N_0 and
    N_{n_L} (periodic) or 1..N (Dirichlet).  Entries are verified by
    doubling the quadrature resolution until they move by less than
    ``quadrature_tol``.
    """
    bc = BoundaryCondition.parse(bc)
    if N < 1:
        raise DomainError("N must be >= 1")
    if L < a.support_radius:
        raise DomainError(
            f"L = {L} is smaller than the support radius {a.support_radius}; "
            "the compact-support reduction requires L >= support_radius"
        )
    prof = flux_profile(a, L)

    def build(refine: int) -> np.ndarray:
        if bc is BoundaryCondition.PERIODIC:
            t = _periodic_overlap_coefficients(a, L, prof, N, refine)
            return _toeplitz_from_coefficients(t, N)
        icos, isin = _dirichlet_trig_integrals(a, L, prof, N, refine)
        return _dirichlet_entries_from_integrals(icos, isin, N, L)

    current = build(0)
    for refine in range(1, max_refine + 1):
        refined = build(refine)
        worst = float(np.max(np.abs(refined - current)))
        current = refined
        if worst <= quadrature_tol:
            break
    else:
        raise NumericalError(
            "overlap entry quadrature did not settle",
            achieved=worst,
            requested=quadrature_tol,
        )
    return SymbolMatrix(entries=current, n=N, bc=bc, symbol_kind=SymbolKind.EXACT_GAUGE, L=L)


def periodic_flux_closed_form(delta: float, n_L: int, N: int) -> np.ndarray:
    """Entries of T_N(e^{i g~_L}): (-1)^{n_L} sin(delta)/(delta - pi(j-k))."""
    return (-1.0) ** (n_L % 2) * fh_matrix(delta, N).entries


def dirichlet_flux_closed_form(total_flux: float, N: int) -> np.ndarray:
    """Closed-form Dirichlet matrix of the jump symbol e^{i Phi_L(L) sign(x)}.

    Diagonal cos(Phi); (2i/pi) sin(Phi) [1/(j+k) + 1/(j-k)] for even row j,
    odd column k; the same with a minus on 1/(j-k) for odd j, even k; zero
    when j +- k is even.
    """
    j = np.arange(1, N + 1)
    jj = j[:, None]
    kk = j[None, :]
    entries = np.zeros((N, N), dtype=complex)
    np.fill_diagonal(entries, math.cos(total_flux))
    odd_pair = (jj - kk) % 2 == 1  # excludes the diagonal
    with np.errstate(divide="ignore"):
        plus = 1.0 / (jj + kk) + 1.0 / np.where(jj == kk, 1, jj - kk)
        minus = 1.0 / (jj + kk) - 1.0 / np.where(jj == kk, 1, jj - kk)
    coeff = 2j / math.pi * math.sin(total_flux)
    row_even = (jj % 2 == 0) & odd_pair
    row_odd = (jj % 2 == 1) & odd_pair
    entries[row_even] = coeff * plus[row_even]
    entries[row_odd] = coeff * minus[row_odd]
    return entries


def flux_matrix(a: MagneticPotential, bc: BoundaryCondition, N: int, L: float) -> SymbolMatrix:
    """Closed-form matrix T_N(e^{i g~_L}) of the idealized jump symbol."""
    bc = BoundaryCondition.parse(bc)
    if L < a.support_radius:
        raise DomainError("L must be at least the support radius")
    prof = flux_profile(a, L)
    if bc is BoundaryCondition.PERIODIC:
        entries = periodic_flux_closed_form(prof.delta_L, prof.n_L, N)
    else:
        entries = dirichlet_flux_closed_form(prof.total_flux, N)
    return SymbolMatrix(entries=entries, n=N, bc=bc, symbol_kind=SymbolKind.DISCONTINUOUS_FLUX, L=L)


# ---------------------------------------------------------------------------
# one grid point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaBoundCheck:
    trace_norm_delta: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class GridPoint:
    """Everything one (N, L) grid point yields: C_{N,L} and the Delta_N bound."""

    overlap: OverlapResult
    bound_check: DeltaBoundCheck


def evaluate_point(
    a: MagneticPotential,
    bc: BoundaryCondition,
    N: int,
    L: float,
    *,
    slack: float = 1e-8,
) -> GridPoint:
    """Build T_N(e^{i g_L}) and T_N(e^{i g~_L}) once and derive every result.

    From the two matrices: both log-determinants, C_{N,L} = |D|^2 / |D~|^2,
    Delta_N = T_N(e^{i g_L}) - T_N(e^{i g~_L}) and its trace norm, checked
    against the periodic proof's estimate ||Delta_N||_1 <= (N/L) int |y a(y)| dy
    (numerically it holds for the Dirichlet basis as well; the same
    splitting argument applies entrywise).
    """
    prof = flux_profile(a, L)
    exact = overlap_matrix(a, bc, N, L).entries
    flux = flux_matrix(a, bc, N, L).entries
    ld_exact = log_det(exact)
    ld_flux = log_det(flux)
    if math.isinf(ld_flux.log_magnitude):
        c_ratio = math.inf
    else:
        c_ratio = math.exp(2.0 * (ld_exact.log_magnitude - ld_flux.log_magnitude))
    tn = trace_norm(exact - flux)
    _, weighted = moment_integrals(a, L)
    bound = N / L * weighted
    return GridPoint(
        overlap=OverlapResult(
            N=N,
            L=L,
            bc=BoundaryCondition.parse(bc),
            delta_L=prof.delta_L,
            n_L=prof.n_L,
            logdet_exact=ld_exact,
            logdet_flux=ld_flux,
            c_ratio=c_ratio,
        ),
        bound_check=DeltaBoundCheck(trace_norm_delta=tn, bound=bound, holds=tn <= bound + slack),
    )


def overlap_at(a: MagneticPotential, bc: BoundaryCondition, N: int, L: float) -> OverlapResult:
    """Both log-determinants and C_{N,L} = |D|^2 / |D~|^2 at one (N, L)."""
    return evaluate_point(a, bc, N, L).overlap


def delta_matrix_bound_check(
    a: MagneticPotential,
    bc: BoundaryCondition,
    N: int,
    L: float,
    *,
    slack: float = 1e-8,
) -> DeltaBoundCheck:
    """Trace-norm bound ||Delta_N||_1 <= (N/L) int |y a(y)| dy at one (N, L)."""
    return evaluate_point(a, bc, N, L, slack=slack).bound_check


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------


@dataclass
class LemmaCheckReport:
    results: list[OverlapResult]
    min_ratio: float
    max_ratio: float
    band_factor: float
    flagged: bool
    degenerate: list[int]

    def summary(self) -> str:
        if not self.results:
            return "no grid points evaluated"
        spread = self.max_ratio / self.min_ratio if self.min_ratio > 0 else math.inf
        status = "FLAGGED" if self.flagged else "ok"
        return (
            f"C ratio in [{self.min_ratio:.6g}, {self.max_ratio:.6g}] "
            f"(spread {spread:.4g}, alarm band {self.band_factor:g}): {status}"
        )


def lemma_factorization_check(
    a: MagneticPotential,
    bc: BoundaryCondition,
    n_grid: Sequence[int],
    rho: float,
    *,
    band_factor: float = 1e4,
) -> LemmaCheckReport:
    """Track C_{N,L} along the thermodynamic path L = N / (2 rho).

    The proof guarantees 0 < delta_1 <= C_{N,L} <= delta_2 for small
    enough density but names no values, so this is an empirical band: the
    report flags spreads above ``band_factor`` and lists grid points with
    a vanishing flux determinant separately.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    results: list[OverlapResult] = []
    degenerate: list[int] = []
    for N in n_grid:
        L = N / (2.0 * rho)
        if L < a.support_radius:
            raise DomainError(f"grid point N={N} gives L={L} below the support radius")
        res = overlap_at(a, bc, int(N), L)
        if math.isinf(res.c_ratio) or res.c_ratio == 0.0:
            degenerate.append(int(N))
        results.append(res)
    finite = [r.c_ratio for r in results if math.isfinite(r.c_ratio) and r.c_ratio > 0]
    lo = min(finite) if finite else math.nan
    hi = max(finite) if finite else math.nan
    flagged = bool(finite) and hi / lo > band_factor
    return LemmaCheckReport(
        results=results,
        min_ratio=lo,
        max_ratio=hi,
        band_factor=band_factor,
        flagged=flagged,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# symbol splitting (periodic proof of the factorization lemma)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSymbols:
    """The four hermitian split symbols e^+, e^-, f^+, f^- of the periodic proof.

    With Theta the Heaviside function (Theta(0) = 1, so x = 0 belongs to
    the '+' branch and the '-' branch is supported on x < 0):

        e^{i g_L} - e^{i g~_L} = e^+ + e^- + i (f^- - f^+)   pointwise.
    """

    e_plus: Callable[[np.ndarray], np.ndarray]
    e_minus: Callable[[np.ndarray], np.ndarray]
    f_plus: Callable[[np.ndarray], np.ndarray]
    f_minus: Callable[[np.ndarray], np.ndarray]
    exact_symbol: Callable[[np.ndarray], np.ndarray]
    flux_symbol: Callable[[np.ndarray], np.ndarray]

    def reconstruction(self, x):
        return self.e_plus(x) + self.e_minus(x) + 1j * (self.f_minus(x) - self.f_plus(x))

    def difference(self, x):
        return self.exact_symbol(x) - self.flux_symbol(x)


def heaviside(x):
    """Heaviside step with Theta(0) = 1."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0)


def periodic_split_symbols(a: MagneticPotential, L: float) -> SplitSymbols:
    prof = flux_profile(a, L)
    delta = prof.delta_L
    total = prof.total_flux

    def g(x):
        return prof.phi_at(x) - delta * np.asarray(x, dtype=float) / L

    def g_tilde(x):
        x = np.asarray(x, dtype=float)
        sgn = np.where(x >= 0.0, 1.0, -1.0)  # sign(0) = +1, matching Theta(0) = 1
        return total * sgn - delta * x / L

    def e_plus(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * heaviside(x) * np.sin(0.5 * prof.phi_plus(x) - delta * x / L) * np.sin(0.5 * prof.phi_minus(x))

    def _minus_branch(x):
        # Theta(-x) restricted to the complement of the '+' branch: since
        # Theta(0) = 1 assigns x = 0 to '+', the '-' symbols live on x < 0.
        return np.where(np.asarray(x, dtype=float) < 0.0, 1.0, 0.0)

    def e_minus(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * _minus_branch(x) * np.sin(0.5 * prof.phi_minus(x) + delta * x / L) * np.sin(
            0.5 * prof.phi_plus(x)
        )

    def f_plus(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * heaviside(x) * np.cos(0.5 * prof.phi_plus(x) - delta * x / L) * np.sin(0.5 * prof.phi_minus(x))

    def f_minus(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * _minus_branch(x) * np.cos(0.5 * prof.phi_minus(x) + delta * x / L) * np.sin(
            0.5 * prof.phi_plus(x)
        )

    return SplitSymbols(
        e_plus=e_plus,
        e_minus=e_minus,
        f_plus=f_plus,
        f_minus=f_minus,
        exact_symbol=lambda x: np.exp(1j * g(x)),
        flux_symbol=lambda x: np.exp(1j * g_tilde(x)),
    )
