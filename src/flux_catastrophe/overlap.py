"""Exact N-fermion ground-state overlap matrices and the factorization checks.

Periodic case.  With occupied windows N_0 (free) and N_{n_L} (perturbed),
the overlap determinant equals det T_N(e^{i g_L}) in the plane-wave basis,
where g_L(x) = Phi_L(x) - delta_L x / L; the matrix is classical Toeplitz,
so only the 2N-1 Fourier-type integrals

    t_d = (1/2L) int_{-L}^{L} e^{i g_L(x)} e^{i pi d x / L} dx

are needed: t_d = F((pi d - delta_L) / L) with the transform F below.

The companion T_N(e^{i g~_L}), g~_L(x) = Phi_L(L) sign(x) - delta_L x / L,
needs only Phi_L(L) = n_L pi + delta_L (flux_matrix, in both bases): entries
(-1)^{n_L} sin(delta_L) / (delta_L - pi (j-k)); the sign flip for odd n_L is
invisible in |det| but matters for the entrywise difference Delta_N.

Dirichlet case.  g_L = Phi_L.  The free eigenfunctions are sin(j y) / sqrt(L)
with y = pi (x + L) / 2L, so entry (j, k) is c_{|j-k|} - c_{j+k} with
c_m = (1/2L) int_{-L}^{L} e^{i Phi_L(x)} cos(m y) dx, m = 0..2N: a
Toeplitz-minus-Hankel matrix, as in Deift, Its & Krasovsky (Ann. of
Math. 174, 2011).  As cos(m y) is the mean of i^{+-m} e^{+-i m pi x / 2L},
c_m = [i^m F(m pi / 2L) + i^{-m} F(-m pi / 2L)] / 2 with the transform F
below.  The jump symbol has c~_0 = cos(Phi_L(L)) and
c~_m = -(2i/pi) sin(Phi_L(L)) sin(m pi/2) / m.

Support sums.  Both bases sample one transform,
F(w) = (1/2L) int_{-L}^{L} e^{i Phi_L(x)} e^{i w x} dx, on an evenly spaced
grid w_m = (step (shift + m) - delta) / L: the periodic t_d need step = pi
and delta = delta_L, the Dirichlet c_m step = pi/2 and delta = 0.  Outside
[-R, R] e^{i Phi_L} is the constant e^{+-i Phi_L(L)}, so those parts are
closed-form cis integrals (zero when L = R).  Over the support the
quadrature nodes x give sum_x w_x e^{i (Phi_L(x) - delta x / L)}
e^{i (shift + m) step x / L}, whose phases _phase_sums factors.

Quadrature check.  support_nodes' panels end at the breakpoints and are at
most an eighth of the shortest wavelength wide; the doubling driver the
moment shares, quadrature.adaptive_gauss_legendre, halves them all and
compares the O(N) coefficient vectors, not two N x N matrices.
Periodic entries are the t_d themselves, so max |dt_d| is the entrywise
change exactly; a Dirichlet entry is c_{|j-k|} - c_{j+k}, so 2 max |dc_m|
bounds every entry change from above and the driver gets half the entry
tolerance.  As |c| <= 1 (the symbol is unimodular) its max(1, |c|) floor
leaves the check absolute.  overlap_coefficients returns the accepted
vector, and flux_coefficients the closed-form one of the jump symbol;
_assemble builds either matrix from strided Toeplitz and Hankel views.

|D| without a matrix.  The overlap matrix A is a finite section of the
unitary multiplication by e^{i g_L}, so E = I - A^H A is positive
semidefinite and log|D|^2 = log det(I - E).  Only O(log N) eigenvalues of
E lie above rounding (about 30 at N = 2048 on the benchmark sweeps), and
overlap_log_det_sq hands E to matrixcore.ritz_log_det: E V = V - A^H (A V)
costs two FFT Toeplitz products per factor (A is T(t), or T(c_|d|) - H(c)
in the Dirichlet case, which is complex symmetric, so A^H v =
conj(A conj v)), and tr E = N - ||A||_F^2 is a closed form in O(N).

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

evaluate_point builds the flux profile and both coefficient vectors once
per grid point and derives C_{N,L}, ||Delta_N||_1 and the moment bound; the
jump log-determinant comes in closed form from (delta_L, N).  The band gate on
C_{N,L} along a grid is the overlap_sweep row of the CLI's experiment
table (cli._c_band_gate).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .hilbert import dirichlet_flux_logdet
from .matrixcore import fh_coefficients, fh_log_det, ritz_log_det, toeplitz, toeplitz_product, trace_norm
from .potential import FluxProfile, MagneticPotential, flux_decomposition, flux_profile, moment_integrals
from .quadrature import adaptive_gauss_legendre, build_edges, cis_integral, gauss_legendre_rule, panel_nodes
from .spectrum import BoundaryCondition


def support_nodes(a: MagneticPotential, L: float, omega_max: float, refine: int):
    """(R, nodes, weights) of 16-point panels on [-R, R], R = min(support_radius, L), ending at
    a's breakpoints and at most 2 pi / omega_max / 8 wide, each halved ``refine`` times."""
    R = min(a.support_radius, L)
    wavelength = 2.0 * math.pi / omega_max if omega_max > 0 else 2.0 * R
    edges = build_edges(-R, R, a.breakpoints, wavelength / 8.0, refine)
    return (R, *panel_nodes(edges, *gauss_legendre_rule(16)))


def _phase_sums(h: float, shift: int, M: int, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """S[m] = sum_x values_x e^{i (shift + m) h x} for m = 0 .. M-1.

    With B = ceil(sqrt(M)) and m = B q + r, each phase factors as
    e^{i (shift + B q) h x} e^{i r h x}, so B + ceil(M / B) rows of complex
    exponentials and one (ceil(M / B) x n) (n x B) matrix product replace
    M x n exponentials.  Every phase is a product of two exponentials and
    stays exact to rounding.
    """
    B = math.isqrt(M - 1) + 1
    Q = -(-M // B)
    outer = np.exp(1j * np.outer(h * (shift + B * np.arange(Q)), nodes)) * values
    inner = np.exp(1j * np.outer(nodes, h * np.arange(B)))
    return (outer @ inner).ravel()[:M]


def _symbol_transform(prof: FluxProfile, step: float, delta: float, shift: int, M: int, refine: int) -> np.ndarray:
    """F(w) = (1/2L) int_{-L}^{L} e^{i Phi_L(x)} e^{i w x} dx at w_m = (step (shift + m) - delta) / L, m = 0..M-1."""
    L = prof.L
    omega = (step * (shift + np.arange(M)) - delta) / L
    R, nodes, weights = support_nodes(prof.potential, L, float(np.max(np.abs(omega))), refine)
    values = np.exp(1j * (prof.phi_at(nodes) - delta * nodes / L)) * weights
    support = _phase_sums(step / L, shift, M, nodes, values)
    # e^{i Phi_L} is e^{+i Phi_L(L)} on [R, L] and e^{-i Phi_L(L)} on [-L, -R]
    right = np.exp(1j * prof.total_flux) * cis_integral(omega, R, L)
    left = np.exp(-1j * prof.total_flux) * cis_integral(omega, -L, -R)
    return (support + right + left) / (2.0 * L)


def _periodic_overlap_coefficients(prof: FluxProfile, N: int, refine: int) -> np.ndarray:
    """The 2N-1 Toeplitz coefficients t_d of e^{i g_L}, d = -(N-1) .. N-1."""
    return _symbol_transform(prof, np.pi, prof.delta_L, -(N - 1), 2 * N - 1, refine)


def _dirichlet_cosine_coefficients(prof: FluxProfile, N: int, refine: int) -> np.ndarray:
    """c_m = (1/2L) int_{-L}^{L} e^{i Phi_L} cos(m y) dx, m = 0..2N, with y = pi (x + L) / 2L."""
    F = _symbol_transform(prof, np.pi / 2.0, 0.0, -2 * N, 4 * N + 1, refine)
    # cos(m y) is the mean of i^{+-m} e^{+-i m pi x / 2L}
    i_m = np.array([1.0, 1j, -1.0, -1j])[np.arange(2 * N + 1) % 4]
    return 0.5 * (i_m * F[2 * N :] + i_m.conj() * F[2 * N :: -1])


def _assemble(c: np.ndarray, N: int, periodic: bool) -> np.ndarray:
    """New N x N array with entry (j, k) = c[(N - 1) + j - k] (periodic, c[0 .. 2N-2])
    or c[|j - k|] - c[j + k], j, k = 1..N (Dirichlet, c[0 .. 2N])."""
    if periodic:
        return toeplitz(c, N).copy()
    return np.subtract(toeplitz(np.concatenate([c[N - 1 : 0 : -1], c[:N]]), N), sliding_window_view(c[2:], N))


# Quadrature doubling check: refine until no entry moves by more than
# _QUADRATURE_TOL.
_QUADRATURE_TOL = 1e-10


def overlap_coefficients(prof: FluxProfile, bc: BoundaryCondition, N: int) -> np.ndarray:
    """The verified coefficients of the overlap matrix: t_d, d = -(N-1) .. N-1 (periodic), or c_m, m = 0..2N.

    They are verified by doubling the quadrature resolution until no entry
    of the matrix they assemble to can move by more than 1e-10.
    """
    bc = BoundaryCondition.parse(bc)
    if N < 1:
        raise DomainError("N must be >= 1")
    if prof.L < prof.potential.support_radius:
        raise DomainError(
            f"L = {prof.L} is smaller than the support radius {prof.potential.support_radius}; "
            "the compact-support reduction requires L >= support_radius"
        )
    periodic = bc is BoundaryCondition.PERIODIC
    coefficients = _periodic_overlap_coefficients if periodic else _dirichlet_cosine_coefficients
    # an entry is t_{j-k} (periodic) or c_{|j-k|} - c_{j+k} (Dirichlet)
    coefficients_per_entry = 1.0 if periodic else 2.0
    tol = _QUADRATURE_TOL / coefficients_per_entry
    return adaptive_gauss_legendre(lambda refine: coefficients(prof, N, refine), tol)


def overlap_matrix(prof: FluxProfile, bc: BoundaryCondition, N: int) -> np.ndarray:
    """Overlap matrix of the free and perturbed N-fermion ground states.

    Returns T_N(e^{i g_L}) in the free eigenbasis on the profile's [-L, L];
    its determinant equals the physical overlap determinant between the
    occupied windows N_0 and N_{n_L} (periodic) or 1..N (Dirichlet).  It is
    assembled once, from overlap_coefficients.
    """
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    return _assemble(overlap_coefficients(prof, bc, N), N, periodic)


def flux_coefficients(total_flux: float, bc: BoundaryCondition, N: int) -> np.ndarray:
    """Closed-form coefficients of T_N(e^{i g~_L}), the jump symbol of Phi = Phi_L(L) = n_L pi + delta_L.

    Periodic: (-1)^{n_L} fh_coefficients(delta_L, N).  Dirichlet: the symbol
    is e^{-i Phi} below y = pi/2 and e^{+i Phi} above, so c~_m vanishes for
    even m > 0 and off the diagonal cos(Phi) only opposite parities couple.
    At delta_L = pi/2 c~_0 is exactly 0, where math.cos would leave 6e-17:
    the matrix is then exactly singular for odd N (unequal parity classes).
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    n_L, delta_L = flux_decomposition(total_flux)
    if BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC:
        s = fh_coefficients(delta_L, N)
        return np.negative(s, out=s) if n_L % 2 else s
    odd = np.arange(1, 2 * N + 1, 2)
    c = np.zeros(2 * N + 1, dtype=complex)
    c[0] = 0.0 if delta_L == math.pi / 2 else math.cos(total_flux)
    # sin(m pi/2) = (-1)^((m-1)/2) for odd m
    c[odd] = -2j * math.sin(total_flux) / (math.pi * odd) * (-1.0) ** (odd // 2)
    return c


def flux_matrix(total_flux: float, bc: BoundaryCondition, N: int) -> np.ndarray:
    """Closed-form T_N(e^{i g~_L}), assembled from flux_coefficients."""
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    return _assemble(flux_coefficients(total_flux, bc, N), N, periodic)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo exactly, each part with at most 26 significant bits (Veltkamp's splitting)."""
    t = 134217729.0 * x
    hi = t - (t - x)
    return hi, x - hi


def _weighted_squares(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Floats whose exact sum is sum_i w_i |c_i|^2, for integer weights 0 <= w_i < 2^26.

    |c|^2 = re^2 + im^2, and with x = hi + lo each of hi^2, 2 hi lo and
    lo^2 is exact; splitting it once more leaves 26-bit parts whose
    products with w are exact, so math.fsum of the result rounds once.
    """
    terms = []
    for x in (c.real, c.imag):
        hi, lo = _split(x)
        for square in (hi * hi, 2.0 * hi * lo, lo * lo):
            terms.extend(w * part for part in _split(square))
    return np.concatenate(terms)


def _frobenius_deficit(c: np.ndarray, N: int, periodic: bool) -> float:
    """N - ||A||_F^2 for A = _assemble(c, N, periodic), in O(N), summed exactly and rounded once.

    Periodic: ||A||_F^2 = sum_d (N - |d|) |t_d|^2.  Dirichlet:
    ||A||_F^2 = S_1 + S_2 - 2 Re X, with the Toeplitz part
    S_1 = N |c_0|^2 + 2 sum_{d>=1} (N - d) |c_d|^2, the Hankel part
    S_2 = sum_{s=2}^{2N} min(s - 1, 2N + 1 - s) |c_s|^2 and the cross term
    X = sum_{j,k} c_|j-k| conj(c_{j+k}) = sum_d w_d c_d conj(sum_s c_s),
    s = d + 2, d + 4, .., 2N - d (w_0 = 1, w_d = 2), whose inner sums are
    differences of per-parity prefix sums.  S_1 and S_2 are of size N and
    nearly cancel N, so they are summed exactly; X is a few units.
    """
    if periodic:
        squares = _weighted_squares(N - np.abs(np.arange(1 - N, N)), c)
        cross = 0.0
    else:
        d, s = np.arange(N), np.arange(2, 2 * N + 1)
        squares = np.concatenate(
            [
                _weighted_squares(np.where(d == 0, N, 2 * (N - d)), c[:N]),
                _weighted_squares(np.minimum(s - 1, 2 * N + 1 - s), c[2:]),
            ]
        )
        prefix = np.empty_like(c)
        prefix[0::2], prefix[1::2] = np.cumsum(c[0::2]), np.cumsum(c[1::2])
        inner = prefix[2 * N - d] - prefix[d]
        cross = 2.0 * float(np.sum(np.where(d == 0, 1.0, 2.0) * c[:N] * inner.conj()).real)
    return math.fsum(np.concatenate([[N, cross], -squares]))


def _overlap_product(c: np.ndarray, N: int, periodic: bool) -> Callable[[np.ndarray, bool], np.ndarray]:
    """(V, adjoint) -> A V or A^H V on (N, k) blocks, A = _assemble(c, N, periodic), by FFT products.

    Periodic A = T(t) and A^H = T(conj t reversed).  Dirichlet
    A = T(c_|d|) - H(c) with the Hankel H_jk = c_{j+k} applied as a Toeplitz
    product of the reversed block; A is complex symmetric, so
    A^H v = conj(A conj v).
    """
    if periodic:
        t_h = c[::-1].conj()
        return lambda V, adjoint: toeplitz_product(t_h if adjoint else c, V)
    t, h = np.concatenate([c[N - 1 : 0 : -1], c[:N]]), c[2:]

    def product(V: np.ndarray, adjoint: bool) -> np.ndarray:
        V = V.conj() if adjoint else V
        out = toeplitz_product(t, V) - toeplitz_product(h, V[::-1])
        return out.conj() if adjoint else out

    return product


# log|D|^2 is certified to this absolute error
_LOGDET_ABS_ERR = 1e-10


def overlap_log_det_sq(c: np.ndarray, bc: BoundaryCondition, N: int) -> float:
    """log|det A|^2 of the overlap matrix A = _assemble(c, N, periodic), without forming it.

    A is a finite section of the unitary multiplication by e^{i g_L}, so
    E = I - A^H A is positive semidefinite and log|det A|^2 = log det(I - E).
    matrixcore.ritz_log_det takes it to an absolute 1e-10 from the block
    products E V = V - A^H (A V) of _overlap_product and the closed-form
    tr E = N - ||A||_F^2 of _frobenius_deficit.  Dense LU of overlap_matrix
    is the test oracle.
    """
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    product = _overlap_product(c, N, periodic)
    trace = _frobenius_deficit(c, N, periodic)
    return ritz_log_det(lambda V: V - product(product(V, False), True), trace, N, _LOGDET_ABS_ERR)


# ---------------------------------------------------------------------------
# one grid point
# ---------------------------------------------------------------------------


class GridPoint(NamedTuple):
    """What one (N, L) grid point yields, in the column order of the overlap CSV.

    log_D_sq and log_Dtilde_sq are log |det|^2 of T_N(e^{i g_L}) and
    T_N(e^{i g~_L}); c_ratio is C_{N,L} = |D|^2 / |D~|^2 (inf when D~ = 0);
    bound_holds compares ||Delta_N||_1 with its moment bound.
    """

    delta_L: float
    n_L: int
    log_D_sq: float
    log_Dtilde_sq: float
    c_ratio: float
    trace_norm_delta: float
    bound: float
    bound_holds: bool


def evaluate_point(a: MagneticPotential, bc: BoundaryCondition, N: int, L: float) -> GridPoint:
    """Build the flux profile and the coefficients of both overlap matrices once each, and derive every result.

    overlap_coefficients reads the profile and flux_coefficients only its
    Phi_L(L).  |D~| depends on (delta_L, N) alone: matrixcore.fh_log_det in
    O(1) (periodic; the sign (-1)^{n_L} leaves |det| unchanged) or the real
    parity reduction hilbert.dirichlet_flux_logdet (Dirichlet).  |D| comes
    from overlap_log_det_sq, certified to 1e-10 from FFT products of the
    coefficients, and C_{N,L} = |D|^2 / |D~|^2.  No dense LU runs, and the
    one N x N array is Delta_N = T_N(e^{i g_L}) - T_N(e^{i g~_L}), assembled
    from the coefficient difference.  Its trace norm is checked against the
    periodic proof's estimate ||Delta_N||_1 <= (N/L) int |y a(y)| dy
    (numerically it holds for the Dirichlet basis as well; the same
    splitting argument applies entrywise), up to an absolute slack of 1e-8.
    """
    prof = flux_profile(a, L)
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    ld_flux = (fh_log_det if periodic else dirichlet_flux_logdet)(prof.delta_L, N)
    c = overlap_coefficients(prof, bc, N)
    ld_exact_sq = overlap_log_det_sq(c, bc, N)
    c_ratio = math.inf if math.isinf(ld_flux) else math.exp(ld_exact_sq - 2.0 * ld_flux)
    tn = trace_norm(_assemble(c - flux_coefficients(prof.total_flux, bc, N), N, periodic))
    bound = N / L * moment_integrals(a, L)
    return GridPoint(prof.delta_L, prof.n_L, ld_exact_sq, 2.0 * ld_flux, c_ratio, tn, bound, tn <= bound + 1e-8)
