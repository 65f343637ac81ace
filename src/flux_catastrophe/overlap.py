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

One support sample.  Off [-R, R] e^{i Phi_L} is the constant e^{+-i Phi_L(L)},
so F takes its parts there from closed-form cis integrals (zero when L = R),
and Delta_N, where the two symbols agree, has none.  On support_nodes' x and
w, the one panel rule on [-R, R], _support_sampler evaluates Phi_L once per
refine level for two integrands weighted by w / 2L: v = e^{i (Phi_L - tilt)},
tilt = delta_L x / L (periodic) or 0, and mu = e^{i g_L} - e^{i g~_L} as
2i sin((Phi_L - Phi~) / 2) e^{i ((Phi_L + Phi~) / 2 - tilt)}, Phi~ =
Phi_L(L) sign x, accurate relative to its own size.  Their frequencies are
at most pi N / L, and with p = _chebyshev_size(pi N R / 2L) (48 on the
benchmark sweeps, whatever N is) the 2p first-kind Chebyshev points y_c of
[-R, R] interpolate every such e^{i omega x} as sum_c l_c(x) e^{i omega y_c}
to eps = 1e-13 + 2p eps, 2p eps the barycentric rounding: Trefethen's
a-priori Bernstein-ellipse bound at (2 kappa, 2p) is the square of that at
(kappa, p) times (r - 1) / 4r, so 2 _chebyshev_size(kappa) >=
_chebyshev_size(2 kappa).  That one rule sizes every Chebyshev interpolation
here, and no run-time check repeats it.  So one contraction,
u = Lambda^T v and m = Lambda^T mu with Lambda_xc = l_c(x), serves both, and
one transform turns either into coefficients: _phase_sums factors
sum_c u_c e^{i (shift + j) step y_c / L} over the M = 2N - 1 or 4N + 1
frequencies in O(n p + M p), not O(M n), and the Dirichlet c_m fold it.  Of
m it gives Delta_N's own coefficients, without the c - c~ that cancels for a
weak potential.  As sum |v_x| = R / L, every coefficient moves by at most
eps R / L.

Quadrature check.  support_nodes' panels end at the breakpoints and at 0.
On each gap between them they are at most min(L / 4N, pi / (4 max|a|))
wide: an eighth of 2L/N, the shortest wavelength of a product of two basis
functions (every |w_m| <= pi N / L), and an eighth of 2 pi / max|a|, the
shortest wavelength of e^{i Phi_L} on the gap, as d Phi_L / dx = a(x); the
second binds only for a strong narrow potential.  The doubling driver
quadrature.adaptive_gauss_legendre, shared with ||Delta_N||_1, the periodic
C_{N,L} and the moment, halves them all and compares the O(N) coefficient
vectors, not two N x N matrices.  Periodic entries are the t_d themselves, so
max |dt_d| is the entrywise change exactly; a Dirichlet entry is
c_{|j-k|} - c_{j+k}, so 2 max |dc_m| bounds every entry change from above
and the driver gets half the entry tolerance.  As |c| <= 1 (the symbol is
unimodular) its scale-1 floor max(1, |c|) leaves the check absolute.

||Delta_N||_1 from a p x p core.  On the nodes Delta_N = U^H diag(s mu) U,
s = 1 (periodic) or 2 (Dirichlet entries are (1/L) integrals): U holds the
basis at x, e^{-i pi k x / L} for N consecutive k centred at 0 (a unitary
shift of the window) or sin(j y), each a phase times e^{i omega x}, or the
mean of two, |omega| <= pi N / 2L.  So U = P V + E on the p points, with
|E| <= eps_p = 1e-13 + p eps, and as |u_k| <= 1, Hoelder's inequality bounds
the change of the trace norm by (2 eps_p + eps_p^2) N s sum |mu| when
Delta_N is replaced by V^H C V, C = P^T diag(s mu) P = Lambda^T diag(s m)
Lambda with Lambda_ca = l_a(y_c), as the 2p points interpolate l_a l_b
exactly.  matrixcore.trace_norm takes that from C and the closed-form Gram
matrix V V^H in O(p^3), whatever N is; for N <= 2p the SVD of Delta_N from
its own coefficients is cheaper.  The same driver settles either at scale
0, with the same p at every refine: the check is relative, as a weak
potential's ||Delta_N||_1 is tiny.  The paper's
||Delta_N||_1 <= (N/L) int |y a(y)| dy rests on it too.

|D| without a matrix, periodic.  The jump matrix F = T_N(e^{i g~_L}) is
s T, s = (-1)^{n_L} sin(delta_L) / pi, with T Cauchy: log|det F| is
asymptotics.fh_log_det in O(1), F^{-1} = diag(a) T(t) diag(b) is a closed
form (_jump_inverse), and A = F + Delta_N with Delta_N = V^H C V on the core
above.  Sylvester's identity det(I_N + X Y) = det(I_p + Y X) gives

    det A = det F det(I_p + C G),    G = V F^{-1} V^H,

so log|D|^2 = 2 fh_log_det + log C_{N,L}, C_{N,L} = |det(I_p + C G)|^2, a
p x p determinant whatever N is (p = 48 on the benchmark sweep).  G takes p
FFT products with T(t) and the factored phases of _window_phases, O(p N log N)
time and O(N) memory, once per point; a refinement rebuilds only C, the
same core ||Delta_N||_1 reads.  The doubling driver settles C_{N,L} to a
relative 1e-10, log C to an absolute 1e-10, from one SVD of I + C G per
refine level.  _sylvester_bound then bounds, to first order, what the
interpolation (eps_p, the a-priori error at the chosen p, at most 1e-13,
plus 2p eps) and the p x p rounding leave in log|D|^2, through
(I + C G)^{-1}, the conditioning of the p x p step; a bound above 1e-10
raises NumericalError.  The bound reads 7.6e-12 on the benchmark sweep and
at most 1.1e-11 for the bumps of flux pi/2 + 1e-12, 1.58 and 1.6.  G's own
rounding is not in it: dense LU and the Ritz sum below are its oracles.
The bulk F enters only through its closed forms, while the Ritz sum on A
reads log det(A^H A) against tr(I - A^H A), whose O(N) terms carry the
rounding of every t_d: one ulp of t_0 moves that tail by 2 N |t_0| eps,
1.85e-10 at N = 2^20 on the benchmark potential, above the budget.  This
route settles that point in 11 s at a 199 MB peak (one run, one BLAS
thread, 2-core Xeon VM).

|D| without a matrix, Dirichlet (and the periodic test oracle).  The overlap
matrix A is a finite section of the unitary multiplication by e^{i g_L}, a
contraction, so log|D|^2 = log det(A^H A).  Only O(log N) singular values of
A lie below 1 - rounding (about 30 at N = 2048 on the benchmark sweeps), and
overlap_log_det_sq hands A itself to matrixcore.ritz_log_det: A V and
A^H W = conj(A^T conj W) cost one call each of A's one
matrixcore.toeplitz_hankel_operator (T(t), or T(c_|d|) - H(c)) on a (k, N)
block, and tr(I - A^H A) = N - ||A||_F^2 is a closed form in O(N).

evaluate_point builds the flux profile once, samples the support once per
refine level for every driver, and derives C_{N,L}, ||Delta_N||_1 and the
moment bound; the jump log-determinant comes from (delta_L, N) alone.  The
band gate on C_{N,L} is the overlap_sweep row of the CLI's experiment table
(cli._c_band_gate).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .asymptotics import fh_log_det
from .errors import DomainError, NumericalError, stage
from .hilbert import dirichlet_flux_logdet
from .matrixcore import fh_coefficients, ritz_log_det, toeplitz, toeplitz_hankel_operator, trace_norm
from .potential import FluxProfile, MagneticPotential, flux_decomposition, flux_profile, moment_integrals
from .quadrature import adaptive_gauss_legendre, build_edges, cis_integral, gauss_legendre_rule, panel_nodes
from .spectrum import BoundaryCondition


def support_nodes(a: MagneticPotential, L: float, N: int, refine: int):
    """(R, nodes, weights) of 16-point panels on [-R, R], R = min(support_radius, L), ending at a's
    breakpoints and at 0, on each gap at most min(L / 4N, pi / (4 max|a|)) wide (the module docstring
    says why), each halved ``refine`` times."""
    R = min(a.support_radius, L)

    def width(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.minimum(L / (4 * N), np.pi / (4 * a.peak(lo, hi)))

    edges = build_edges(-R, R, (0.0, *a.breakpoints), width, refine)
    return (R, *panel_nodes(edges, *gauss_legendre_rule(16)))


def _chebyshev_log_error(kappa: float, p) -> np.ndarray:
    """log of Trefethen's bound (ATAP, 2013, Thm 8.2; it holds for first-kind points too)
    min_r 4 e^{kappa (r - 1/r) / 2} r^{1-p} / (r - 1) on interpolating e^{i kappa t} at p points, p an array,
    the minimum over a grid of r > 1, each of which gives a bound."""
    r = 1.0 + np.geomspace(1e-3, 1e3, 400)[:, None]
    return (np.log(4.0 / (r - 1.0)) + 0.5 * kappa * (r - 1.0 / r) - (p - 1) * np.log(r)).min(axis=0)


def _chebyshev_size(kappa: float) -> int:
    """Smallest multiple p of 16 for which _chebyshev_log_error is at most log 1e-13; the barycentric evaluation
    adds about p eps of rounding, so the interpolant is good to 1e-13 + p eps."""
    p = np.arange(16, 2.0 * kappa + 80.0, 16)
    return int(p[np.argmax(_chebyshev_log_error(kappa, p) <= math.log(1e-13))])


def _chebyshev_points(R: float, p: int) -> np.ndarray:
    """The p first-kind Chebyshev points R cos((2a + 1) pi / 2p) of [-R, R]."""
    return R * np.cos((2 * np.arange(p) + 1) * np.pi / (2 * p))


def _barycentric(x: np.ndarray, R: float, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(K, s) with l_a(x) = K_xa / s_x, the barycentric Lagrange basis of the p Chebyshev points x_a of [-R, R]:
    K_xa = w_a / (x - x_a), w_a = (-1)^a sin((2a + 1) pi / 2p), and s = K 1; a node on a point gets that point's
    indicator row and s_x = 1."""
    points = _chebyshev_points(R, p)
    kernel = x[:, None] - points
    with np.errstate(divide="ignore"):
        np.divide((-1.0) ** np.arange(p) * np.sin((2 * np.arange(p) + 1) * np.pi / (2 * p)), kernel, out=kernel)
    total = kernel.sum(axis=1)
    hit = ~np.isfinite(total)
    if hit.any():
        kernel[hit], total[hit] = x[hit, None] == points, 1.0
    return kernel, total


def _chebyshev_contract(x: np.ndarray, values: np.ndarray, R: float, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(x_a, u_a = sum_x values_x l_a(x)): complex (n, k) values at nodes x in [-R, R] contracted onto the p
    Chebyshev points x_a, in 8 MB blocks of nodes whatever n is, and one real product per block for all columns."""
    pairs = np.ascontiguousarray(values, dtype=complex).view(float)
    u, rows = np.zeros((p, pairs.shape[1])), (1 << 20) // p
    for lo in range(0, len(x), rows):
        kernel, total = _barycentric(x[lo : lo + rows], R, p)
        u += kernel.T @ (pairs[lo : lo + rows] / total[:, None])
    return _chebyshev_points(R, p), u.view(complex)


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


def _support_sampler(prof: FluxProfile, periodic: bool, N: int):
    """refine -> (y, u, m), memoized: support_nodes(refine) sampled once and contracted onto the 2p Chebyshev points
    y of [-R, R], u of v and m of mu, the integrands of the coefficients and of Delta_N (module docstring)."""
    L, R = prof.L, prof.potential.support_radius
    if N < 1:
        raise DomainError("N must be >= 1")
    if L < R:
        raise DomainError(f"L = {L} is smaller than the support radius {R}; "
                          "the compact-support reduction requires L >= support_radius")
    points = 2 * _chebyshev_size(math.pi * N * R / (2.0 * L))

    @functools.cache
    def sample(refine: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _, x, w = support_nodes(prof.potential, L, N, refine)
        phi, jump = prof.phi_at(x), prof.total_flux * np.sign(x)
        tilt = prof.delta_L * x / L if periodic else 0.0
        v = np.exp(1j * (phi - tilt)) * w / (2 * L)
        # e^{i g} - e^{i g~} = 2i sin((phi - jump) / 2) e^{i ((phi + jump) / 2 - tilt)}, relative to rounding
        mu = 2j * np.sin(0.5 * (phi - jump)) * np.exp(1j * (0.5 * (phi + jump) - tilt)) * w / (2 * L)
        y, u = _chebyshev_contract(x, np.stack([v, mu], axis=1), R, points)
        return y, u[:, 0], u[:, 1]

    return sample


def _support_coefficients(prof: FluxProfile, periodic: bool, N: int, y: np.ndarray, u: np.ndarray, symbol: bool):
    """t_d, d = -(N-1) .. N-1 (periodic), or c_m, m = 0..2N (Dirichlet), of a sample u contracted onto y; ``symbol``
    adds e^{i Phi_L}'s parts off the support, which the difference of the two symbols does not have."""
    L, R = prof.L, prof.potential.support_radius
    step, shift, M = (np.pi, 1 - N, 2 * N - 1) if periodic else (np.pi / 2.0, -2 * N, 4 * N + 1)
    F = _phase_sums(step / L, shift, M, y, u)
    if symbol:  # e^{i Phi_L} is e^{+i Phi_L(L)} on [R, L] and e^{-i Phi_L(L)} on [-L, -R]
        omega = (step * (shift + np.arange(M)) - (prof.delta_L if periodic else 0.0)) / L
        F += (np.exp(1j * prof.total_flux) * cis_integral(omega, R, L)
              + np.exp(-1j * prof.total_flux) * cis_integral(omega, -L, -R)) / (2.0 * L)
    if periodic:
        return F
    # cos(m y) is the mean of i^{+-m} e^{+-i m pi x / 2L}
    i_m = np.array([1.0, 1j, -1.0, -1j])[np.arange(2 * N + 1) % 4]
    return 0.5 * (i_m * F[2 * N :] + i_m.conj() * F[2 * N :: -1])


def _toeplitz_hankel(c: np.ndarray, N: int, periodic: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(t, h) with A = T(t) - H(h): T_jk = t[(N - 1) + j - k] and H_jk = h[j + k], j, k = 0..N-1.

    Periodic: t = c (c[0 .. 2N-2]) and no Hankel part (h is None).
    Dirichlet (c[0 .. 2N]): t_d = c_|d| and h = c[2:], so entry (j, k) is
    c[|j - k|] - c[j + k] for j, k = 1..N.
    """
    if periodic:
        return c, None
    return np.concatenate([c[N - 1 : 0 : -1], c[:N]]), c[2:]


def _assemble(c: np.ndarray, N: int, periodic: bool) -> np.ndarray:
    """New N x N array with entry (j, k) = c[(N - 1) + j - k] (periodic, c[0 .. 2N-2])
    or c[|j - k|] - c[j + k], j, k = 1..N (Dirichlet, c[0 .. 2N])."""
    t, h = _toeplitz_hankel(c, N, periodic)
    return toeplitz(t, N).copy() if h is None else np.subtract(toeplitz(t, N), sliding_window_view(h, N))


# Quadrature doubling check: no overlap entry moves by more than this, nor ||Delta_N||_1 (its
# coefficients for N <= 2p) by this of itself
_QUADRATURE_TOL = 1e-10


def _overlap_coefficients(prof: FluxProfile, periodic: bool, N: int, sample) -> np.ndarray:
    """overlap_coefficients from ``sample``'s (y, u); a Dirichlet entry holds two, so it gets half the tolerance."""
    return adaptive_gauss_legendre(
        lambda refine: _support_coefficients(prof, periodic, N, *sample(refine)[:2], symbol=True),
        _QUADRATURE_TOL / (1.0 if periodic else 2.0),
    )


def overlap_coefficients(prof: FluxProfile, bc: BoundaryCondition, N: int) -> np.ndarray:
    """The verified coefficients of the overlap matrix: t_d, d = -(N-1) .. N-1 (periodic), or c_m, m = 0..2N;
    doubling the quadrature resolution moves no entry of the matrix they assemble to by more than 1e-10."""
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    return _overlap_coefficients(prof, periodic, N, _support_sampler(prof, periodic, N))


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


def _weighted_squares(w: np.ndarray, c: np.ndarray) -> list[np.ndarray]:
    """Float arrays whose exact sum is sum_i w_i |c_i|^2, for integers |w_i| < 2^26.

    |c|^2 = re^2 + im^2, and with x = hi + lo each of hi^2, 2 hi lo and
    lo^2 is exact; splitting it once more leaves 26-bit parts whose
    products with w are exact, so math.fsum of the twelve rounds once.
    """
    terms = []
    for x in (c.real, c.imag):
        hi, lo = _split(x)
        for square in (hi * hi, 2.0 * hi * lo, lo * lo):
            terms.extend(w * part for part in _split(square))
    return terms


# terms per slice of _frobenius_deficit's streamed exact sum
_SUM_SLICE = 1 << 12


def _slices(total: int):
    """range(total) in slices of _SUM_SLICE (even, so every slice starts at an even index), one at a time."""
    return (slice(lo, min(total, lo + _SUM_SLICE)) for lo in range(0, total, _SUM_SLICE))


def _deficit_terms(c: np.ndarray, N: int, periodic: bool):
    """Float arrays, slice by slice, whose exact sum is _frobenius_deficit's N - ||A||_F^2."""
    yield np.array([float(N)])
    if periodic:
        for sl in _slices(2 * N - 1):
            yield from _weighted_squares(np.abs(np.arange(sl.start, sl.stop) - (N - 1)) - N, c[sl])
        return
    for sl in _slices(N):
        d = np.arange(sl.start, sl.stop)
        yield from _weighted_squares(np.where(d == 0, -N, 2 * (d - N)), c[sl])
    for sl in _slices(2 * N - 1):
        s = np.arange(sl.start, sl.stop) + 2
        yield from _weighted_squares(-np.minimum(s - 1, 2 * N + 1 - s), c[s])
    # + 2 Re X = 2 sum_m (Re P_m Re c' + Im P_m Im c'), c' = c_{m+2} and (m <= N - 2) c_{2N-m}
    carry = np.zeros(2, dtype=complex)
    for sl in _slices(N):
        m = np.arange(sl.start, sl.stop)
        wc, prefix = np.where(m == 0, 1.0, 2.0) * c[sl], np.empty(len(m), dtype=complex)
        for parity in (0, 1):  # P_m = P_{m-2} + w_m c_m, the same additions in every slicing
            run = np.cumsum(np.concatenate([carry[parity : parity + 1], wc[parity::2]]))
            prefix[parity::2], carry[parity] = run[1:], run[-1]
        for other in (c[m + 2], c[2 * N - m[m <= N - 2]]):
            head = prefix[: len(other)]
            yield 2.0 * head.real * other.real
            yield 2.0 * head.imag * other.imag


def _frobenius_deficit(c: np.ndarray, N: int, periodic: bool) -> float:
    """N - ||A||_F^2 for A = _assemble(c, N, periodic), in O(N) time and O(1) memory, exact and rounded once.

    Periodic: ||A||_F^2 = sum_d (N - |d|) |t_d|^2.  Dirichlet:
    ||A||_F^2 = S_1 + S_2 - 2 Re X, with the Toeplitz part
    S_1 = N |c_0|^2 + 2 sum_{d>=1} (N - d) |c_d|^2, the Hankel part
    S_2 = sum_{s=2}^{2N} min(s - 1, 2N + 1 - s) |c_s|^2 and the cross term
    X = sum_{j,k} c_|j-k| conj(c_{j+k}) = sum_s conj(c_s) P_{min(s-2, 2N-s)},
    P_m = sum w_d c_d over d <= m of m's parity (w_0 = 1, w_d = 2): one
    ascending pass over m pairs P_m with c_{m+2} and c_{2N-m}.  S_1 and S_2
    are of size N and nearly cancel N, so math.fsum sums their Veltkamp
    parts exactly, with the rounded products of X's real part, and rounds
    once.  _deficit_terms streams the parts in slices of 4096 terms (the
    prefix P carried across slices), so no array of size N exists and the
    result does not depend on the slicing.  A plain float64 sum misses tr E
    by 2.8e-13 .. 9.5e-12 on the benchmark potentials at N = 2^11 .. 2^17
    (L = N/2), 17-385x ritz_log_det's own rounding allowance
    (log2 N + k) eps tr E; the exact sum costs 3-350 ms there.
    """
    return math.fsum(itertools.chain.from_iterable(part.tolist() for part in _deficit_terms(c, N, periodic)))


# log|D|^2 is certified to this absolute error
_LOGDET_ABS_ERR = 1e-10


def overlap_log_det_sq(c: np.ndarray, bc: BoundaryCondition, N: int) -> float:
    """log|det A|^2 of the overlap matrix A = _assemble(c, N, periodic), without forming it.

    The Dirichlet sweep's overlap log-det, and the oracle of the periodic
    sweep's, which takes C_{N,L} from the p x p Sylvester determinant
    instead (module docstring): in the periodic basis the tail
    tr E - sum theta carries the rounding of every t_d, 2 N |t_0| eps per
    ulp of t_0, so this route stops short of N = 2^20 there.
    matrixcore.ritz_log_det takes log det(A^H A) to an absolute 1e-10 from
    the FFT operator of A = T(t) - H(h) and the closed-form
    tr(I - A^H A) = N - ||A||_F^2 of _frobenius_deficit; dense LU of
    overlap_matrix is the test oracle.  A^H W = conj(A^T conj W) reuses A's
    operator and its symbol spectra: the periodic A is Toeplitz, so
    A^T = J A J with J the flip, and the Dirichlet A, c_|j-k| - c_{j+k}, is
    symmetric.
    sigma_min(A) is smallest as delta_L -> -pi/2: periodic Gaussian bumps of
    width 0.5 (R = 4, L = N/2) and total flux pi/2 + eps certify at k = 32
    for every eps scanned, 1e-12 to 0.1, at N = 2048 and 8192 (sigma_min 4.8e-3
    and 4.2e-3 as eps -> 0): the smallest flux certified is pi/2 + 1e-12.
    """
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    forward = toeplitz_hankel_operator(*_toeplitz_hankel(c, N, periodic))
    flip = slice(None, None, -1 if periodic else 1)  # J along the last axis, or none

    def adjoint(w: np.ndarray) -> np.ndarray:
        return forward(w[..., flip].conj())[..., flip].conj()

    return ritz_log_det(forward, adjoint, _frobenius_deficit(c, N, periodic), N, _LOGDET_ABS_ERR)


def _dirichlet_kernel(t: np.ndarray, N: int) -> np.ndarray:
    """sin(N t / 2) / sin(t / 2), the sum of e^{i k t} over N consecutive k centred at 0; N at t = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t == 0.0, float(N), np.sin(0.5 * N * t) / np.sin(0.5 * t))


def _delta_core(prof: FluxProfile, periodic: bool, N: int, y: np.ndarray, m: np.ndarray):
    """(C, G): Delta_N = V^H C V up to interpolation, V the basis at p Chebyshev points, G = V V^H, from m on 2p."""
    L, R, p = prof.L, prof.potential.support_radius, len(y) // 2
    # l_a l_b has degree 2p - 2, so the 2p points y_c interpolate it exactly:
    # C = P^T diag(s mu) P = Lambda^T diag(s m) Lambda, Lambda_ca = l_a(y_c), s = 2 in the Dirichlet basis
    kernel, total = _barycentric(y, R, p)
    lam = kernel / total[:, None]
    core, cheb = lam.T @ ((m if periodic else 2.0 * m)[:, None] * lam), _chebyshev_points(R, p)
    if periodic:
        return core, _dirichlet_kernel(np.pi * (cheb[:, None] - cheb) / L, N)
    # sum_j sin(j y_a) sin(j y_b) for y = pi/2 + s in s_a -+ s_b, so no argument grows with N
    s = np.pi * cheb / (2 * L)
    d, u = s[:, None] - s, s[:, None] + s
    return core, 0.25 * (_dirichlet_kernel(d, 2 * N + 1) - (-1) ** N * np.cos((N + 0.5) * u) / np.cos(0.5 * u))


def _core_sampler(prof: FluxProfile, periodic: bool, N: int, sample):
    """refine -> _delta_core of ``sample``'s (y, m) at that refine, memoized: ||Delta_N||_1 and the periodic
    C_{N,L} read the same cores."""
    return functools.cache(lambda refine: _delta_core(prof, periodic, N, *sample(refine)[::2]))


def _delta_trace_norm(prof: FluxProfile, periodic: bool, N: int, sample, core) -> float:
    """delta_trace_norm from the sampler ``sample`` and its cores ``core``."""
    dense = N <= len(sample(0)[0])  # N <= 2p

    def estimate(refine: int):
        if dense:
            y, _, m = sample(refine)
            return _support_coefficients(prof, periodic, N, y, m, symbol=False)
        return trace_norm(*core(refine))

    settled = adaptive_gauss_legendre(estimate, _QUADRATURE_TOL, scale=0.0)
    return float(np.sum(np.linalg.svd(_assemble(settled, N, periodic), compute_uv=False))) if dense else settled


def delta_trace_norm(prof: FluxProfile, bc: BoundaryCondition, N: int) -> float:
    """||Delta_N||_1 of Delta_N = T_N(e^{i g_L}) - T_N(e^{i g~_L}) from a p x p core, p independent of N.

    The module docstring has the error argument; adaptive_gauss_legendre settles
    it to a relative 1e-10, refine r taking the core of the same p points on
    support_nodes' panels halved r times.  For N <= 2p it settles Delta_N's own
    coefficients instead and sums the SVD of what they assemble: dense vs core
    on samples already taken (bench bump, L = N / 2 rho, single runs, one BLAS
    thread, 2-core Xeon), p = 48: 0.3-1.2 vs 1.0-1.2 ms (N = 24-96); p = 272:
    10-15 and 98-103 vs 52-62 ms (N = 256, 544); p = 912: 0.11, 0.46-0.56 and
    3.7-4.0 s vs 1.9-2.3 s (N = 538, 912, 1824).  Bench sweeps take the core.
    """
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    sample = _support_sampler(prof, periodic, N)
    return _delta_trace_norm(prof, periodic, N, sample, _core_sampler(prof, periodic, N, sample))


def _window_phases(y: np.ndarray, L: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(outer, inner) with V_ak = e^{-i pi (k - (N-1)/2) y_a / L} = outer[a, q] inner[a, r] for k = B q + r,
    B = ceil(sqrt N): the periodic basis at the points y from B + ceil(N / B) exponentials per point, each
    phase a product of two, as in _phase_sums."""
    B = math.isqrt(N - 1) + 1
    outer = np.exp(-1j * np.pi / L * np.outer(y, B * np.arange(-(-N // B)) - 0.5 * (N - 1)))
    inner = np.exp(-1j * np.pi / L * np.outer(y, np.arange(B)))
    return outer, inner


def _jump_inverse(delta: float, n_L: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, t) with F^{-1} = diag(a) T(t) diag(b), T(t)_kj = t[(N - 1) + k - j], for the periodic jump
    matrix F = flux_matrix(n_L pi + delta, PERIODIC, N), 0 < |delta| <= pi/2.

    F = s T with s = (-1)^{n_L} sin(delta) / pi and the Cauchy matrix
    T_jk = 1 / (c + k - j), c = delta / pi, so F^{-1} = (1/s) diag(x) T^T diag(w)
    with x_k = c prod_{d<=k} (1 + c/d) prod_{d<=N-1-k} (1 - c/d) and w the
    same with the two products swapped, each product a cumulative log1p sum
    (lgamma differences lose 4e-12 at N = 2048).  a = x / s, b = w and
    t_d = 1 / (c + d), d = -(N-1) .. N-1, the integer d added to c last.
    """
    sign = -1.0 if n_L % 2 else 1.0
    c = delta / math.pi
    d = np.arange(1.0, N)
    up = np.concatenate([[0.0], np.cumsum(np.log1p(c / d))])
    down = np.concatenate([[0.0], np.cumsum(np.log1p(-c / d))])
    left = (sign * delta / math.sin(delta)) * np.exp(up + down[::-1])  # c / s = sign delta / sin(delta)
    right = c * np.exp(down + up[::-1])
    return left, right, 1.0 / (c + np.arange(1 - N, N))


def _jump_inverse_gram(prof: FluxProfile, N: int, points: np.ndarray) -> np.ndarray:
    """G = V F^{-1} V^H (p x p) for the periodic jump matrix F and V the basis at the p Chebyshev points.

    F^{-1} = diag(a) T(t) diag(b) in closed form (_jump_inverse): T(t) acts
    on the rows b conj(V_b) through one FFT operator, and the sums over k
    against V's rows factor as in _window_phases, so no (p, N) array
    exists: the rows stream, 2^15 / N of them at a time (one at least), a
    slice's FFT work about 8 MB as in matrixcore's products.  At delta_L = 0,
    F = +-I and G is +-V V^H, the Gram matrix of _delta_core.
    """
    L, p = prof.L, len(points)
    if prof.delta_L == 0.0:
        return (-1.0 if prof.n_L % 2 else 1.0) * _dirichlet_kernel(np.pi * (points[:, None] - points) / L, N)
    left, right, t = _jump_inverse(prof.delta_L, prof.n_L, N)
    product = toeplitz_hankel_operator(t)
    outer, inner = _window_phases(points, L, N)
    Q, B = outer.shape[1], inner.shape[1]
    gram = np.empty((p, p), dtype=complex)
    step = max(1, (1 << 15) // N)
    for sl in (slice(lo, min(p, lo + step)) for lo in range(0, p, step)):
        rows = (outer[sl, :, None] * inner[sl, None, :]).reshape(-1, Q * B)  # V's rows, B Q - N >= 0 past the end
        rows[:, :N] = left * product(right * rows[:, :N].conj())  # the columns sl of F^{-1} V^H, transposed
        rows[:, N:] = 0.0
        gram[:, sl] = np.einsum("bqa,aq->ab", rows.reshape(-1, Q, B) @ inner.T, outer)
    return gram


def _sylvester_bound(core: np.ndarray, gram: np.ndarray, eps_p: float) -> tuple[float, float]:
    """(bound, s_min): a first-order bound on the error of log|det(I + M)|^2, M = core @ gram, and the smallest
    singular value of I + M.

    With X = (I + M)^{-1} = W S^{-1} U^H from the SVD I + M = U S W^H, a
    change dM moves log|det(I + M)| by Re tr(X dM) to first order:
    - interpolation: the p points reproduce the basis to eps_p (at most
      1e-13 + 2p eps, module docstring), read as dM = eta M + M eta' with
      |eta|_2, |eta'|_2 <= eps_p on either factor, so
      |tr(X dM)| <= (2 eps_p + eps_p^2) |I - X|_*, as X M = M X = I - X;
    - forming M: |dM| <= p eps |core| |gram| entrywise, so
      |tr(X dM)| <= p eps sum |X^T| |core| |gram|;
    - the SVD: each singular value moves by at most about p eps s_max, so the
      sum of log s by p eps s_max sum 1 / s.
    log|det|^2 doubles the sum.
    """
    p = len(core)
    eps = float(np.finfo(float).eps)
    u, s, wh = np.linalg.svd(np.eye(p) + core @ gram)
    if s[-1] == 0.0:
        return math.inf, 0.0
    inverse = (wh.conj().T / s) @ u.conj().T
    interpolation = (2.0 * eps_p + eps_p**2) * float(np.sum(np.linalg.svd(np.eye(p) - inverse, compute_uv=False)))
    product = p * eps * float(np.sum(np.abs(inverse.T) * (np.abs(core) @ np.abs(gram))))
    svd = p * eps * float(s[0] * np.sum(1.0 / s))
    return 2.0 * (interpolation + product + svd), float(s[-1])


def _periodic_log_c(prof: FluxProfile, N: int, core) -> tuple[float, float]:
    """(log C_{N,L}, C_{N,L}) from Sylvester's identity on the cores of ``core``, certified to 1e-10 in log C.

    adaptive_gauss_legendre settles C = |det(I_p + C_r G)|^2, C_r the core at refine r, to a relative 1e-10,
    an absolute 1e-10 in log C; one SVD of I + C_r G gives it.  G is built once.  NumericalError if the
    settled level's _sylvester_bound exceeds 1e-10.
    """
    L, R, p = prof.L, prof.potential.support_radius, len(core(0)[0])
    gram = _jump_inverse_gram(prof, N, _chebyshev_points(R, p))
    last = {}

    def estimate(refine: int) -> float:
        s = np.linalg.svd(np.eye(p) + core(refine)[0] @ gram, compute_uv=False)
        last.update(refine=refine, log_c=2.0 * float(np.sum(np.log(s))))
        return math.exp(last["log_c"])

    c_ratio = adaptive_gauss_legendre(estimate, _QUADRATURE_TOL, scale=0.0)
    # the a-priori interpolation error at this p, at most the 1e-13 the p was chosen for, plus its rounding
    eps_p = math.exp(_chebyshev_log_error(math.pi * N * R / (2.0 * L), p)[0]) + 2 * p * float(np.finfo(float).eps)
    bound, s_min = _sylvester_bound(core(last["refine"])[0], gram, eps_p)
    if not bound <= _LOGDET_ABS_ERR:
        raise NumericalError("Sylvester log-det bound exceeds the budget", achieved=bound,
                             requested=_LOGDET_ABS_ERR, s_min=s_min, p=p)
    return last["log_c"], c_ratio


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
    """Build the flux profile once, sample the support once per refine level for every driver, and derive every result.

    |D~| comes from (delta_L, N) alone: asymptotics.fh_log_det (periodic; the sign (-1)^{n_L} leaves |det|
    unchanged) or hilbert.dirichlet_flux_logdet.  Periodic: C_{N,L} = |det(I_p + C G)|^2 from the p x p cores
    that ||Delta_N||_1 reads too, settled and bounded to 1e-10 in log C (_periodic_log_c), and
    log|D|^2 = log|D~|^2 + log C_{N,L}; no O(N) coefficient vector is built.  Dirichlet: |D| from
    overlap_log_det_sq, certified to 1e-10 from FFT products of the coefficients, and
    C_{N,L} = |D|^2 / |D~|^2.  No dense LU runs.  ||Delta_N||_1 is checked against the periodic proof's
    (N/L) int |y a(y)| dy (Dirichlet too, numerically) up to an absolute 1e-8.  A DomainError or NumericalError
    names its stage: coefficients (Dirichlet), overlap log-det, jump log-det or trace norm.
    """
    prof = flux_profile(a, L)
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    if periodic:
        with stage("overlap log-det"):
            sample = _support_sampler(prof, periodic, N)
            core = _core_sampler(prof, periodic, N, sample)
            log_c, c_ratio = _periodic_log_c(prof, N, core)
        with stage("jump log-det"):
            ld_flux = fh_log_det(prof.delta_L, N)
        ld_exact_sq = 2.0 * ld_flux + log_c
    else:
        with stage("coefficients"):
            sample = _support_sampler(prof, periodic, N)
            c = _overlap_coefficients(prof, periodic, N, sample)
        core = _core_sampler(prof, periodic, N, sample)
        with stage("overlap log-det"):
            ld_exact_sq = overlap_log_det_sq(c, bc, N)
        # after the overlap log-det, whose (k, N) blocks set the point's peak memory,
        # so the jump's smaller blocks reuse the memory those freed
        with stage("jump log-det"):
            ld_flux = dirichlet_flux_logdet(prof.delta_L, N)
        c_ratio = math.inf if math.isinf(ld_flux) else math.exp(ld_exact_sq - 2.0 * ld_flux)
    with stage("trace norm"):
        tn = _delta_trace_norm(prof, periodic, N, sample, core)
    bound = N / L * moment_integrals(a, L)
    return GridPoint(prof.delta_L, prof.n_L, ld_exact_sq, 2.0 * ld_flux, c_ratio, tn, bound, tn <= bound + 1e-8)
