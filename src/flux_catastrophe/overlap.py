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
quadrature.adaptive_gauss_legendre, shared with ||Delta_N||_1, C_{N,L} and
the moment, halves them all; overlap_matrix compares the O(N) coefficient
vectors, not two N x N matrices.  Periodic entries are the t_d themselves,
so max |dt_d| is the entrywise change exactly; a Dirichlet entry is
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
matrix V V^H in O(p^3), whatever N is; for N <= 3p/2 the SVD of Delta_N
from its own coefficients is cheaper.  The same driver settles either at
scale 0, with the same p at every refine: the check is relative, as a weak
potential's ||Delta_N||_1 is tiny.  The paper's
||Delta_N||_1 <= (N/L) int |y a(y)| dy rests on it too.

|D| without a matrix.  In both bases A = F + Delta_N, F = T_N(e^{i g~_L})
the jump matrix and Delta_N = V^H C V (V^T C V, V real, Dirichlet) on the
core above, so Sylvester's identity det(I_N + X Y) = det(I_p + Y X) gives

    det A = det F det(I_p + C G),    G = V F^{-1} V^H  (V^T, Dirichlet):

log|D|^2 = log|D~|^2 + log C_{N,L}, C_{N,L} = |det(I_p + C G)|^2, p x p
whatever N is (p = 48 on the benchmark sweeps), and no coefficient vector of
A is built.  G is built once per point in O(p N log N) time and O(N) memory;
a refinement rebuilds only C.  Periodic: F = s T, s = (-1)^{n_L}
sin(delta_L) / pi, T Cauchy, so log|det F| is asymptotics.fh_log_det and
F^{-1} = diag(a) T(t) diag(b) a closed form (_jump_inverse).  Dirichlet:
F = c I + i s S, c = cos Phi_L(L), s = sin Phi_L(L), S real symmetric
(_sine_symbol), is normal, so F^{-1} = (c I - i s S)(c^2 I + s^2 S^2)^{-1}.
In hilbert's parity order S = [[0, B], [B^T, 0]], B = D_1 (2/pi) B' D_2, and
c^2 + s^2 B^T B = A^T A for hilbert's parity factor A, whose jump log-det
sketch (hilbert.dirichlet_rest_sketch) leaves Q, A Q and R, R^T R =
Q A^T A Q^T.  So X_e = (A^T A)^{-1} ~ I + Q^T ((R^T R)^{-1} - I) Q, by
Woodbury on the numerically low-rank E = I - A^T A, and the odd block
X_o = (c^2 + s^2 B B^T)^{-1}, of the same nonzero spectrum, ~ I + W P^{-1}
((R^T R)^{-1} - I) W^T with W = B D_2 Q^T, A Q's odd rows, and P = W^T W.
Push-through (B^T X_o = X_e B^T) gives G = c V_o X_o V_o^T + c V_e X_e V_e^T
- i s (Y + Y^T), Y = V_o B X_e V_e^T: V V^T in closed form, p x k
contractions of Q and W through _factored_phases, and one half-length B'
product on p/2 rows of V_e (_dirichlet_gram), with no solve.  To first
order the Woodbury inverse is off by a relative (tail + residual) / s_min^2,
the tail tr E - sum theta, residual ||E Q - Q H|| scaled per Ritz vector in
the odd block, from the sketch: at most 6.4e-14 on the benchmark sweep, 2.6e-12
at N = 2^17 and 1.0e-11 at 2^20, where the residual sits at the FFT products'
rounding floor.  For odd N, S u_0 = 0 (_null_vector), so F u_0 = c u_0
and F is singular at |delta_L| = pi/2: W is orthogonal to u_0, and V V^T
loses g g^T, g = V u_0, which gives G_perp on its complement, and

    det A = det F_rest |g| det [[I + C G_perp, C g], [-g^T / |g|, c / |g|]],

log|det F_rest| from the same sketch.  The border row is scaled
to a unit vector: unscaled, |g| ~ sqrt N spreads M's singular values, and
their rounding exceeded the budget at N = 2047.  So log|D|^2 stays finite
where D~ = 0, and C_{N,L} = inf there.  The Chebyshev points are symmetric,
and V(-y) = conj V(y) with F^{-1} real, so periodic G[::-1, ::-1] = conj G
and only p/2 columns are built; the Dirichlet V_e(-y) = -V_e(y), so Y needs
p/2 columns.  V's rows stream through _factored_phases, and no (p, N) array
exists.

The doubling driver settles |det M|^2, M = I + C G or the bordered matrix,
to a relative 1e-10 from one SVD of M per refine level.  _sylvester_bound
then bounds, to first order, what the interpolation (eps_p, the a-priori
error at the chosen p plus 2p eps), the Woodbury truncation and the p x p
rounding leave in log|D|^2; above 1e-10 it raises NumericalError.
It reads 7.6e-12 and 5.6e-12 on the periodic and Dirichlet benchmark sweeps,
5.2e-11 at the Dirichlet 2^20 point,
at most 1.1e-11 for the periodic bumps of flux pi/2 + 1e-12, 1.58 and 1.6
and for the Dirichlet flux-pi/2 triangle at N = 2047.  G's own rounding is
not in it: dense LU and the tests' Ritz sum on A's FFT products are its
oracles, the latter short of N = 2^20, where its tr(I - A^H A) carries
1.85e-10 of coefficient rounding (2 N |t_0| eps per ulp of t_0).

evaluate_point builds the flux profile once, samples the support once per
refine level for every driver, and derives C_{N,L}, ||Delta_N||_1 and the
moment bound; the jump log-determinant comes from (delta_L, N) alone.  The
band gate on C_{N,L} is the overlap_sweep row of the CLI's experiment table
(cli._c_band_gate).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .asymptotics import fh_log_det
from .errors import DomainError, NumericalError, stage
from .hilbert import dirichlet_rest_sketch, parity_block
from .matrixcore import RitzSketch, fh_coefficients, toeplitz, toeplitz_hankel_operator, trace_norm
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
# coefficients for N <= 3p/2) by this of itself
_QUADRATURE_TOL = 1e-10


def overlap_coefficients(prof: FluxProfile, bc: BoundaryCondition, N: int) -> np.ndarray:
    """The verified coefficients of the overlap matrix: t_d, d = -(N-1) .. N-1 (periodic), or c_m, m = 0..2N;
    doubling the quadrature resolution moves no entry of the matrix they assemble to by more than 1e-10 (a
    Dirichlet entry holds two, so the driver gets half the tolerance)."""
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    sample = _support_sampler(prof, periodic, N)
    return adaptive_gauss_legendre(
        lambda refine: _support_coefficients(prof, periodic, N, *sample(refine)[:2], symbol=True),
        _QUADRATURE_TOL / (1.0 if periodic else 2.0),
    )


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
    even m > 0 and off the diagonal cos(Phi) only opposite parities couple;
    at delta_L = pi/2 (_jump_diagonal) the matrix is exactly singular for odd N.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    n_L, delta_L = flux_decomposition(total_flux)
    if BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC:
        s = fh_coefficients(delta_L, N)
        return np.negative(s, out=s) if n_L % 2 else s
    c = 1j * math.sin(total_flux) * _sine_symbol(N)
    c[0] = _jump_diagonal(total_flux)
    return c


def _jump_diagonal(total_flux: float) -> float:
    """cos Phi, the diagonal of the Dirichlet jump matrix: exactly 0 at delta_L = pi/2, where math.cos leaves 6e-17."""
    return 0.0 if flux_decomposition(total_flux)[1] == math.pi / 2 else math.cos(total_flux)


def _sine_symbol(N: int) -> np.ndarray:
    """sigma_m = -(2/pi) sin(m pi/2) / m for odd m and 0 for even m, m = 0..2N: the Dirichlet jump matrix is
    cos(Phi) I + i sin(Phi) S with the real symmetric S_jk = sigma_|j-k| - sigma_{j+k}."""
    odd = np.arange(1, 2 * N + 1, 2)
    sigma = np.zeros(2 * N + 1)
    sigma[odd] = -2.0 / (math.pi * odd) * (-1.0) ** (odd // 2)  # sin(m pi/2) = (-1)^((m-1)/2) for odd m
    return sigma


def flux_matrix(total_flux: float, bc: BoundaryCondition, N: int) -> np.ndarray:
    """Closed-form T_N(e^{i g~_L}), assembled from flux_coefficients."""
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    return _assemble(flux_coefficients(total_flux, bc, N), N, periodic)


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
    core = lam.T @ ((m if periodic else 2.0 * m)[:, None] * lam)
    return core, _basis_gram(L, periodic, N, _chebyshev_points(R, p))


def _basis_gram(L: float, periodic: bool, N: int, points: np.ndarray) -> np.ndarray:
    """V V^H of the basis V at the points, in closed form: the Dirichlet kernel D_N (periodic), or
    sum_j sin(j y_a) sin(j y_b) = (D_{2N+1}(y_a - y_b) - D_{2N+1}(y_a + y_b)) / 4, y = pi/2 + pi x / 2L.  As
    D_{2N+1} is even and 2 pi-periodic, y_a + y_b = pi ((L + x_a) + (L + x_b)) / 2L is replaced by
    pi ((L - x_a) + (L - x_b)) / 2L when that is smaller, so the argument keeps its relative accuracy near 0."""
    if periodic:
        return _dirichlet_kernel(np.pi * (points[:, None] - points) / L, N)
    far = np.minimum(np.add.outer(L + points, L + points), np.add.outer(L - points, L - points))
    return 0.25 * (_dirichlet_kernel(np.pi * (points[:, None] - points) / (2 * L), 2 * N + 1)
                   - _dirichlet_kernel(np.pi * far / (2 * L), 2 * N + 1))


def _core_sampler(prof: FluxProfile, periodic: bool, N: int, sample):
    """refine -> _delta_core of ``sample``'s (y, m) at that refine, memoized: ||Delta_N||_1 and the periodic
    C_{N,L} read the same cores."""
    return functools.cache(lambda refine: _delta_core(prof, periodic, N, *sample(refine)[::2]))


def _delta_trace_norm(prof: FluxProfile, periodic: bool, N: int, sample, core) -> float:
    """delta_trace_norm from the sampler ``sample`` and its cores ``core``."""
    dense = 4 * N <= 3 * len(sample(0)[0])  # N <= 3p/2

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
    support_nodes' panels halved r times.  For N <= 3p/2 it settles Delta_N's
    own coefficients instead and sums the SVD of what they assemble: dense vs
    core on samples and cores already taken, as evaluate_point leaves them
    (bench bump, L = N / 2 rho, best of 5 runs, 2 for p = 272, both bases, one
    BLAS thread, 2-core Xeon) at N = p, 3p/2 and 2p: p = 48, 0.42-0.53 vs
    0.81-0.85, 0.76-0.89 vs 0.86-0.87 and 1.0-1.1 vs 0.61 ms; p = 128, 2.0-2.3
    vs 4.8, 4.7-5.0 vs 4.8 and 11.5-11.6 vs 5.9-6.0 ms; p = 272, 12-17 vs
    48-52, 42-46 vs 46-49 and 97-98 vs 36-37 ms.  Bench sweeps take the core.
    """
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    sample = _support_sampler(prof, periodic, N)
    return _delta_trace_norm(prof, periodic, N, sample, _core_sampler(prof, periodic, N, sample))


def _factored_phases(theta: np.ndarray, shift: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(outer, inner) with e^{i (shift + k) theta_a} = outer[a, q] inner[a, r] for k = B q + r, k = 0..N-1,
    B = ceil(sqrt N): N phases per point from B + ceil(N / B) exponentials, each a product of two, as in
    _phase_sums."""
    B = math.isqrt(N - 1) + 1
    outer = np.exp(1j * np.outer(theta, shift + B * np.arange(-(-N // B))))
    return outer, np.exp(1j * np.outer(theta, np.arange(B)))


def _phase_rows(outer: np.ndarray, inner: np.ndarray, sl: slice, N: int) -> np.ndarray:
    """Rows sl of the phases of _factored_phases, zero past their N entries, B Q wide for _phase_products."""
    rows = (outer[sl, :, None] * inner[sl, None, :]).reshape(-1, outer.shape[1] * inner.shape[1])
    rows[:, N:] = 0.0
    return rows


def _phase_products(outer: np.ndarray, inner: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """E rows^T for E_ak = outer[a, q] inner[a, r] (k = B q + r) and rows of length B Q, zero past N."""
    Q, B = outer.shape[1], inner.shape[1]
    return np.einsum("bqa,aq->ab", rows.reshape(-1, Q, B) @ inner.T, outer)


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


def _gram_slices(half: int, N: int):
    """Slices of range(half), 2^15 / N at a time (one at least): a slice's rows of length N hold about 8 MB of FFT
    work, as in matrixcore's products."""
    step = max(1, (1 << 15) // N)
    return (slice(lo, min(half, lo + step)) for lo in range(0, half, step))


def _phase_contract(outer: np.ndarray, inner: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_phase_products of a real (k, n) block, n <= B Q, zero-padded and streamed through _gram_slices."""
    width = outer.shape[1] * inner.shape[1]
    out = np.empty((len(outer), len(rows)), dtype=complex)
    for sl in _gram_slices(len(rows), width):
        out[:, sl] = _phase_products(outer, inner, np.pad(rows[sl], [(0, 0), (0, width - rows.shape[1])]))
    return out


def _periodic_columns(prof: FluxProfile, N: int, points: np.ndarray, half: int) -> np.ndarray:
    """G[:, :half] of G = V F^{-1} V^H for the periodic jump matrix F, 0 < |delta_L| <= pi/2, and
    V_ak = e^{-i pi (k - (N-1)/2) y_a / L} at the points y.

    F^{-1} = diag(a) T(t) diag(b) in closed form (_jump_inverse): T(t) acts on the rows b conj(V_b) through one
    FFT operator, and the sums over k against V's rows factor (_factored_phases).
    """
    left, right, t = _jump_inverse(prof.delta_L, prof.n_L, N)
    product = toeplitz_hankel_operator(t)
    outer, inner = _factored_phases(-np.pi * points / prof.L, -0.5 * (N - 1), N)
    columns = np.empty((len(points), half), dtype=complex)
    for sl in _gram_slices(half, N):
        rows = _phase_rows(outer, inner, sl, N)
        rows[:, :N] = left * product(right * rows[:, :N].conj())  # the columns sl of F^{-1} V^H, transposed
        columns[:, sl] = _phase_products(outer, inner, rows)
    return columns


def _null_vector(N: int) -> np.ndarray:
    """The unit u_0 with S u_0 = 0 for odd N (S of _sine_symbol), positive at j = 1.

    u_0 lives on the odd j = 2a - 1, a = 1..T, T = (N + 1) / 2, where
    u_a is proportional to (-1)^a prod_{b<=M} ((2a-1)^2 - (2b)^2) / prod_{a'!=a} ((2a-1)^2 - (2a'-1)^2);
    the products telescope to u_{a+1} / u_a = -((T - a) / (T - a - 1/2)) ((a + T - 1/2) / (a + T)), summed
    as cumulative log1p terms, as the products themselves overflow near N = 181.
    """
    T = (N + 1) // 2
    a = np.arange(1, T)
    size = np.exp(np.concatenate([[0.0], np.cumsum(np.log1p(-0.5 / (a + T)) - np.log1p(-0.5 / (T - a)))]))
    u = np.zeros(N)
    u[::2] = size * (-1.0) ** np.arange(T)
    return u / np.linalg.norm(u)


def _dirichlet_gram(prof: FluxProfile, N: int, points: np.ndarray, sketch: RitzSketch):
    """(G, g, truncation): the Dirichlet G = V F^{-1} V^T at the points, or G_perp on the complement of u_0 with
    g = V u_0 (odd N; None for even N), from the parity sketch of hilbert.dirichlet_rest_sketch, and the
    relative truncation bound of its Woodbury inverse (module docstring).

    In hilbert's parity order and signs V_o' = cos((2a - 1) theta) and V_e' = -sin(2b theta), theta =
    pi points / 2L, each the real or imaginary part of _factored_phases at 2 theta, and
    G = c V V^T + c V_o' X_o V_o'^T + ... as in the module docstring, with V V^T the closed form _basis_gram.
    """
    M, T, p, half = N // 2, (N + 1) // 2, len(points), len(points) // 2
    c, sine = _jump_diagonal(prof.total_flux), math.sin(prof.total_flux)
    angle = np.pi * points / prof.L
    odd = _factored_phases(angle, 0.5, T)
    gram, g, y = c * _basis_gram(prof.L, False, N, points), None, np.zeros((p, p))
    if N % 2:
        g = _phase_contract(*odd, (_null_vector(N)[::2] * (-1.0) ** np.arange(T))[None, :])[:, 0].real
        gram -= c * np.outer(g, g)
    if M:
        even, block = _factored_phases(angle, 1.0, M), parity_block(N)[0]
        for sl in _gram_slices(half, N):  # (2/pi) V_o' B' V_e'^T at half the points; V_e'(-y) = -V_e'(y)
            y[:, sl] = (2.0 / math.pi) * _phase_contract(*odd, block(-_phase_rows(*even, sl, M)[:, :M].imag)).real
        y[:, half:] = -y[:, half - 1 :: -1]
    truncation = sketch.tail
    if len(sketch.q):
        _, sigma, zt = np.linalg.svd(sketch.r)
        ve = -_phase_contract(*even, sketch.q).imag @ zt.T
        vo = _phase_contract(*odd, sketch.rest).real @ zt.T
        weight = np.einsum("ij,jk,ik->i", zt, sketch.rest @ sketch.rest.T, zt)  # |O~_i|^2
        kappa = 1.0 / sigma**2 - 1.0
        gram += c * ((ve * kappa) @ ve.T + (vo * (kappa / weight)) @ vo.T)
        y += (vo * (kappa / abs(math.sin(prof.delta_L)))) @ ve.T
        residual, scale = zt @ sketch.residual @ zt.T, np.sqrt(weight) / abs(math.sin(prof.delta_L))
        spread = max(np.linalg.eigvalsh(m)[-1] for m in (residual, residual / np.outer(scale, scale)))
        truncation = (max(sketch.tail, 0.0) + math.sqrt(max(float(spread), 0.0))) / sigma[-1] ** 2
    return gram - 1j * sine * (y + y.T), g, truncation


def _jump_inverse_gram(prof: FluxProfile, periodic: bool, N: int, points: np.ndarray, sketch: RitzSketch | None):
    """(G, g, truncation) for V the basis at the p Chebyshev points: G = V F^{-1} V^H (periodic, sketch None) or
    _dirichlet_gram of the parity sketch (G_perp and g = V u_0 for odd N, else g = None) and its truncation
    bound (0 for the periodic closed form).  The periodic p/2 columns are built and the rest mirrored,
    G[::-1, ::-1] = conj G (module docstring).  At delta_L = 0 the periodic F = +-I and G is +-V V^H.
    """
    if not periodic:
        return _dirichlet_gram(prof, N, points, sketch)
    if prof.delta_L == 0.0:
        return (-1.0 if prof.n_L % 2 else 1.0) * _basis_gram(prof.L, True, N, points), None, 0.0
    p, half = len(points), len(points) // 2
    gram = np.empty((p, p), dtype=complex)
    gram[:, :half] = _periodic_columns(prof, N, points, half)
    gram[:, half:] = gram[::-1, half - 1 :: -1].conj()
    return gram, None, 0.0


def _sylvester_bound(matrix: np.ndarray, fixed: np.ndarray, core: np.ndarray, gram: np.ndarray, eps_core: float,
                     eps_gram: float) -> tuple[float, float]:
    """(bound, s_min): a first-order bound on the error of log|det M|^2, M = ``matrix``, and its smallest singular
    value.

    M - J = diag(C, 1) G' for J = diag(``fixed``) (I, or diag(I, c / |g|) with the border), the core C and the
    bordered Gram matrix G'.  With X = M^{-1} from the SVD of M, a change dM moves log|det M| by Re tr(X dM):
    - interpolation: the p points reproduce the basis to eps_p (module docstring), read as relative changes of
      the two factors, eps_core on C's side and eps_gram (eps_p plus the Woodbury truncation) on G''s, so, as
      (M - J) X = I - J X and X (M - J) = I - X J,
      |tr(X dM)| <= (eps_core + eps_core eps_gram) |I - J X|_* + eps_gram |I - X J|_*;
    - forming C G: |dM| <= p eps |C| |G| entrywise on its p rows, so |tr(X dM)| <= p eps sum |X^T| |C| |G|;
    - the SVD: each singular value moves by at most about n eps s_max, so the sum of log s by n eps s_max sum 1/s.
    log|det|^2 doubles the sum.
    """
    p, n = len(core), len(matrix)
    eps = float(np.finfo(float).eps)
    u, s, wh = np.linalg.svd(matrix)
    if s[-1] == 0.0:
        return math.inf, 0.0
    inverse = (wh.conj().T / s) @ u.conj().T

    def nuclear(a: np.ndarray) -> float:
        return float(np.sum(np.linalg.svd(a, compute_uv=False)))

    left = nuclear(np.eye(n) - fixed[:, None] * inverse)
    right = left if np.all(fixed == 1.0) else nuclear(np.eye(n) - inverse * fixed)
    interpolation = (eps_core + eps_core * eps_gram) * left + eps_gram * right
    product = p * eps * float(np.sum(np.abs(inverse.T[:p]) * (np.abs(core) @ np.abs(gram))))
    svd = n * eps * float(s[0] * np.sum(1.0 / s))
    return 2.0 * (interpolation + product + svd), float(s[-1])


# log|D|^2 is certified to this absolute error
_LOGDET_ABS_ERR = 1e-10


def _sylvester_log_det(prof: FluxProfile, periodic: bool, N: int, core,
                       sketch: RitzSketch | None) -> tuple[float, float]:
    """(log|det M|^2, |det M|^2) for M = I + C G, or the odd-N Dirichlet border (module docstring) with its |g|
    folded in, on the cores of ``core``: settled to a relative 1e-10 by adaptive_gauss_legendre, one SVD of M
    per refine, with G built once (Dirichlet: from the parity sketch); NumericalError if _sylvester_bound
    exceeds 1e-10."""
    L, R, p = prof.L, prof.potential.support_radius, len(core(0)[0])
    # the a-priori interpolation error at this p, at most the 1e-13 the p was chosen for, plus its rounding
    eps_p = math.exp(_chebyshev_log_error(math.pi * N * R / (2.0 * L), p)[0]) + 2 * p * float(np.finfo(float).eps)
    gram, g, truncation = _jump_inverse_gram(prof, periodic, N, _chebyshev_points(R, p), sketch)
    base, size = np.eye(p, dtype=complex), 1.0
    if g is not None:  # det A = det F_rest |g| det M, M bordered by C g and the unit row -g^T / |g|
        size = float(np.linalg.norm(g))
        corner = np.full((1, 1), _jump_diagonal(prof.total_flux) / size)
        base = np.block([[base, np.zeros((p, 1))], [-g[None, :] / size, corner]])
        gram = np.concatenate([gram, g[:, None]], axis=1)
    last = {}

    def matrix(refine: int) -> np.ndarray:
        m = base.copy()
        m[:p] += core(refine)[0] @ gram
        return m

    def estimate(refine: int) -> float:
        s = np.linalg.svd(matrix(refine), compute_uv=False)
        last.update(refine=refine, log_det=2.0 * float(np.sum(np.log(s))) + 2.0 * math.log(size))
        return math.exp(last["log_det"])

    det_sq = adaptive_gauss_legendre(estimate, _QUADRATURE_TOL, scale=0.0)
    refine = last["refine"]
    bound, s_min = _sylvester_bound(matrix(refine), np.diag(base), core(refine)[0], gram, eps_p, eps_p + truncation)
    if not bound <= _LOGDET_ABS_ERR:
        raise NumericalError("Sylvester log-det bound exceeds the budget", achieved=bound, requested=_LOGDET_ABS_ERR,
                             s_min=s_min, p=p, k=0 if sketch is None else len(sketch.q), truncation=truncation)
    return last["log_det"], det_sq


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

    In both bases, with no O(N) coefficient vector and no dense LU: log|D|^2 = 2 log|det F_rest| + log|det M|^2,
    M the Sylvester matrix on the cores ||Delta_N||_1 reads too (_sylvester_log_det), and log|det F_rest| from
    (delta_L, N) alone, asymptotics.fh_log_det or hilbert.dirichlet_rest_sketch.  F_rest = F but for odd N in
    the Dirichlet basis, where F = c F_rest, c = cos Phi_L(L): log|D~| adds log|c| and C_{N,L} = |det M|^2 / c^2
    (inf where c = 0), otherwise |det M|^2.  ||Delta_N||_1 is checked against the periodic proof's (N/L)
    int |y a(y)| dy (Dirichlet too, numerically) up to an absolute 1e-8.  A DomainError or NumericalError names
    its stage: overlap log-det, jump log-det or trace norm.
    """
    prof = flux_profile(a, L)
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    with stage("jump log-det"):  # the Dirichlet parity sketch also gives the overlap's G
        sketch = None if periodic else dirichlet_rest_sketch(prof.delta_L, N)
    with stage("overlap log-det"):
        sample = _support_sampler(prof, periodic, N)
        core = _core_sampler(prof, periodic, N, sample)
        log_det_sq, det_sq = _sylvester_log_det(prof, periodic, N, core, sketch)
    with stage("jump log-det"):
        ld_rest = fh_log_det(prof.delta_L, N) if periodic else sketch.log_det
    c = 1.0 if periodic or N % 2 == 0 else _jump_diagonal(prof.total_flux)
    ld_flux = ld_rest + math.log(abs(c)) if c else -math.inf
    with stage("trace norm"):
        tn = _delta_trace_norm(prof, periodic, N, sample, core)
    bound = N / L * moment_integrals(a, L)
    return GridPoint(prof.delta_L, prof.n_L, 2.0 * ld_rest + log_det_sq, 2.0 * ld_flux,
                     det_sq / c / c if c else math.inf, tn, bound, tn <= bound + 1e-8)
