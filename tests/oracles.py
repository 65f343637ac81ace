"""Independent oracles used to pin expected values.

Everything here deliberately avoids the code paths under test: cofactor
expansion instead of LU, Cauchy's product formula in 50-digit mpmath
instead of any matrix at all or the package's cancellation-free O(N)
sum, raw partial sums with elementary Euler-Maclaurin closures instead
of the recurrence-based polygamma, and midpoint Riemann sums or closed-form
mpmath integrals between the roots of each linear piece instead of
Gauss-Legendre panels.  The periodic energy difference is summed level by
level in Python integers and 50-digit mpmath arithmetic.  The overlap
matrices are rebuilt with one exponential or cosine per (frequency, node)
pair and an index-array gather, in place of the package's factored phase
sums and strided Toeplitz and Hankel views; the Dirichlet jump-symbol
matrix is written entry by entry with integer parity signs.  assemble_toeplitz
integrates <phi_j, f phi_k> for any symbol f over all of [-L, L] on its
own Gauss-Legendre panels, with the basis functions evaluated directly and
every entry checked by panel doubling, in place of the package's
support-only coefficient sums and closed-form outer integrals.
sketch_trace_norm sums the singular values of a randomized range-finder
compression of Delta_N, applied by np.fft convolutions of the coefficient
difference, in place of the package's interpolated p x p core.  The
overlap_log_det_sq takes log|det A|^2 of the overlap matrix from the
certified Rayleigh-Ritz sum on A's FFT products and the exactly rounded
tr(I - A^H A) of frobenius_deficit, in place of the package's p x p
Sylvester determinant on Delta_N's core; it is the large-N oracle of the
grid point's log|D|^2.  The
partial-fraction parts of K_M and the square of the Hilbert matrix are
written through the package's digamma/trigamma, but by other formulas than
hilbert.k_matrix; they and the Hilbert section are dense matrices, the
references for the package's FFT products.  No private name of the package
is imported: what an oracle shares with the package (the polygammas, the
support nodes, the flux profile) is public.  The half fluxes Phi_L^+ and
Phi_L^- come from the potential's antiderivative, in place of the flux
profile's Phi_L.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath
import numpy as np

from flux_catastrophe.asymptotics import digamma, trigamma
from flux_catastrophe.errors import DomainError, NumericalError
from flux_catastrophe.matrixcore import ritz_sketch, toeplitz_hankel_operator
from flux_catastrophe.overlap import support_nodes
from flux_catastrophe.potential import flux_profile
from flux_catastrophe.quadrature import cis_integral
from flux_catastrophe.spectrum import BoundaryCondition


def cofactor_det(m: np.ndarray) -> complex:
    """Determinant by recursive cofactor expansion (use only for tiny n)."""
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    sub = np.delete(m, 0, axis=0)
    for col in range(n):
        minor = np.delete(sub, col, axis=1)
        total += (-1.0) ** col * complex(m[0, col]) * cofactor_det(minor)
    return total


def cauchy_fh_logdet_sq(delta: float, N: int) -> float:
    """log |det T_N|^2 of the jump-symbol matrix via Cauchy's determinant formula.

    The matrix sin(delta)/(delta - pi(j-k)) is (sin(delta)/pi) times a
    Cauchy matrix with nodes x_j = j + delta/pi and y_k = k, whose
    determinant is a ratio of difference products; in log space:

        log|det|^2 = 2N log|sin(delta)/pi| + 4 sum_{d=1}^{N-1} (N-d) log d
                     - 2 sum_{d=-(N-1)}^{N-1} (N-|d|) log|d + delta/pi|

    The sums are of size N^2 log N and cancel to O(log N), so they are
    taken in 50-digit mpmath arithmetic (in doubles this form is off by
    5.6e-5 at N = 10^5).
    """
    if delta == 0.0:
        return 0.0
    with mpmath.workdps(50):
        c = mpmath.mpf(delta) / mpmath.pi
        val = 2 * N * mpmath.log(abs(mpmath.sin(mpmath.mpf(delta))) / mpmath.pi)
        val += 4 * mpmath.fsum((N - d) * mpmath.log(d) for d in range(1, N))
        val -= 2 * mpmath.fsum((N - abs(d)) * mpmath.log(abs(d + c)) for d in range(-(N - 1), N))
        return float(val)


def anderson_bruteforce(delta: float, N: int, window_start: int | None = None, k_terms: int = 200_000) -> float:
    """Anderson integral by direct double summation over the complement.

    Sums |sin(delta) / (pi (j-k) + delta)|^2 for j inside an N-point window
    and k outside, truncating the k range at ``k_terms`` on each side and
    closing the truncated tails with the Euler-Maclaurin remainder of
    1/(x)^2 sums (error far below 1e-12).
    """
    if window_start is None:
        window_start = -((N - 1) // 2)
    window = np.arange(window_start, window_start + N)
    lo, hi = window[0], window[-1]
    s2 = math.sin(delta) ** 2
    ks_up = np.arange(hi + 1, hi + 1 + k_terms, dtype=float)
    ks_dn = np.arange(lo - k_terms, lo, dtype=float)
    total = 0.0
    for j in window:
        total += float(np.sum(s2 / (math.pi * (j - ks_up) + delta) ** 2))
        total += float(np.sum(s2 / (math.pi * (j - ks_dn) + delta) ** 2))
        # tails beyond the truncation, one per side
        up_next = (math.pi * (ks_up[-1] + 1 - j) - delta) / math.pi
        dn_next = (math.pi * (j - (ks_dn[0] - 1)) + delta) / math.pi
        total += s2 / math.pi**2 * (_inv_square_tail(up_next) + _inv_square_tail(dn_next))
    return total


def _inv_square_tail(z: float) -> float:
    """sum_{n>=0} 1/(z+n)^2 for large z via the Euler-Maclaurin closure."""
    return 1.0 / z + 1.0 / (2.0 * z * z) + 1.0 / (6.0 * z**3) - 1.0 / (30.0 * z**5)


def inv_square_tail_partial(a: float, terms: int = 10**7) -> float:
    """sum_{t>=1} 1/(t+a)^2 by a ``terms``-term partial sum plus the
    elementary remainder; accurate to ~1e-15 absolute."""
    t = np.arange(1, terms + 1, dtype=float)
    partial = float(np.sum(1.0 / (t + a) ** 2))
    return partial + _inv_square_tail(terms + 1 + a)


def k_entry_bruteforce(T: int, j: int, k: int, l_terms: int = 10**7) -> float:
    """K_jk = j k sum_{l > T} 1/(((l-1/2)^2 - j^2)((l-1/2)^2 - k^2)) by direct summation
    with an integral-closed tail; T = ceil(N/2) for N particles."""
    l = np.arange(T + 1, T + 1 + l_terms, dtype=float)
    base = (l - 0.5) ** 2
    partial = float(np.sum(j * k / ((base - j * j) * (base - k * k))))
    # remaining terms behave like j k / l^4; close with the integral
    z = T + l_terms + 0.5
    partial += j * k * (1.0 / (3.0 * z**3) + 1.0 / (2.0 * z**4))
    return partial


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


def hilbert_section(M: int) -> np.ndarray:
    """Dense finite section (1/(j+k-1/2))_{j,k=1..M} of the Hilbert matrix H_{-1/2}."""
    j = np.arange(1, M + 1, dtype=float)
    return 1.0 / (j[:, None] + j[None, :] - 0.5)


def divided_differences(f: np.ndarray, df: np.ndarray, scale: float) -> np.ndarray:
    """Dense scale (f_j - f_k) / (j - k) off the diagonal and scale df_j on it."""
    idx = np.arange(f.size, dtype=float)
    gaps = idx[:, None] - idx[None, :]
    np.fill_diagonal(gaps, 1.0)
    out = scale * (f[:, None] - f[None, :]) / gaps
    np.fill_diagonal(out, scale * df)
    return out


def k_minus_minus(M: int) -> np.ndarray:
    """Dense K^{--}_{jk} = (psi(M+1/2-j) - psi(M+1/2-k)) / (4 (k - j)), trigamma / 4 on the diagonal."""
    x = M + 0.5 - np.arange(1, M + 1, dtype=float)
    return divided_differences(-digamma(x), trigamma(x), 0.25)


def k_parts(M: int) -> dict[str, np.ndarray]:
    """The four parts of K_M, keyed '--', '+-', '-+', '++', from polygamma closed forms.

    The package applies K^{--} as Toeplitz products and never builds any
    part, so their sum checks hilbert.k_matrix, and '--' is the dense
    reference for hilbert.k_part_norms.
    """
    kmm = k_minus_minus(M)
    jv = np.arange(1, M + 1, dtype=float)
    psi_plus = digamma(M + 0.5 + jv)
    psi_minus = digamma(M + 0.5 - jv)
    jk = jv[:, None] + jv[None, :]
    kpm = -0.25 * (psi_plus[:, None] - psi_minus[None, :]) / jk
    kmp = -0.25 * (psi_plus[None, :] - psi_minus[:, None]) / jk
    kpp = divided_differences(psi_plus, trigamma(M + 0.5 + jv), 0.25)
    return {"--": kmm, "+-": kpm, "-+": kmp, "++": kpp}


def half_fluxes(a, L: float):
    """Phi_L^+(x) = int_{-L}^x a and Phi_L^-(x) = int_x^L a, as callables."""
    lo = float(a.antiderivative(-L))
    hi = float(a.antiderivative(L))
    return (lambda x: a.antiderivative(x) - lo), (lambda x: hi - a.antiderivative(x))


def riemann_abs_moment(a, lo: float, hi: float, n: int = 10**7, weight_y: bool = False) -> float:
    """Midpoint Riemann sum of |a| or |y a(y)| with n points."""
    xs = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    vals = np.abs(a(xs))
    if weight_y:
        vals = np.abs(xs) * vals
    return float(np.sum(vals) * (hi - lo) / n)


def piecewise_linear_abs_moment_mp(knots: Sequence[tuple[float, float]], L: float) -> float:
    """int_{-L}^{L} |y a(y)| dy of the piecewise-linear a through ``knots`` in 50-digit mpmath.

    The knots, 0, the clip points +-L and the roots of every linear piece
    (computed in mpmath) split the line into intervals on which y a(y) is a
    quadratic of one sign, integrated in closed form.
    """
    with mpmath.workdps(50):
        xs = [mpmath.mpf(x) for x, _ in knots]
        vs = [mpmath.mpf(v) for _, v in knots]
        L = mpmath.mpf(L)
        total = mpmath.mpf(0)
        for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
            slope = (v1 - v0) / (x1 - x0)
            cuts = [x0, x1, mpmath.mpf(0), -L, L]
            if v0 * v1 < 0:
                cuts.append(x0 - v0 / slope)
            cuts = sorted(c for c in set(cuts) if x0 <= c <= x1 and -L <= c <= L)

            def primitive(y, x0=x0, v0=v0, slope=slope):
                # int y (v0 + slope (y - x0)) dy
                return slope * y**3 / 3 + (v0 - slope * x0) * y**2 / 2

            total += mpmath.fsum(abs(primitive(q) - primitive(p)) for p, q in zip(cuts[:-1], cuts[1:]))
        return float(total)


def toeplitz_from_coefficients(coeffs: dict[int, complex], N: int) -> np.ndarray:
    """Exact T_N(f) for a trigonometric polynomial with Fourier coefficients
    f(x) = sum_n coeffs[n] exp(i pi n x / L): entry (j, k) = coeffs[k - j]."""
    m = np.zeros((N, N), dtype=complex)
    for j in range(N):
        for k in range(N):
            m[j, k] = coeffs.get(k - j, 0.0)
    return m


def random_positive_real_symbol(rng: np.random.Generator, floor: float, degree: int = 3):
    """A random symbol f = floor + |p|^2 + i q with Re f >= floor certified.

    Returns (f callable, fourier coefficients dict, floor).  p and q are
    random real trig polynomials, so the coefficients of f are exact
    convolutions and T_N(f) can be written down without quadrature.
    """
    p = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    q = rng.standard_normal(degree + 1)

    coeffs: dict[int, complex] = {}

    def add(n: int, v: complex):
        coeffs[n] = coeffs.get(n, 0.0) + v

    add(0, floor)
    # |p|^2 where p(x) = sum_{n=0}^{deg} p_n e^{i pi n x / L}
    for n1 in range(degree + 1):
        for n2 in range(degree + 1):
            add(n1 - n2, p[n1] * np.conj(p[n2]))
    # i q with q(x) = sum q_n cos(pi n x / L) real
    for n in range(degree + 1):
        add(n, 0.5j * q[n])
        add(-n, 0.5j * q[n])

    def f(x, L):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=complex)
        for n, v in coeffs.items():
            out += v * np.exp(1j * math.pi * n * x / L)
        return out

    return f, coeffs, floor


def occupied_indices(N: int, n_shift: int = 0) -> np.ndarray:
    """Occupied one-particle indices of the periodic N-fermion ground state.

    The window is centred at -n_shift (n_shift = n_L for the perturbed
    state, 0 for the free one): -m - n_shift .. m - n_shift for odd N and
    -m - n_shift .. m - n_shift - 1 for even N, m = floor(N/2).
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    m = N // 2
    if N % 2 == 1:
        return np.arange(-m - n_shift, m - n_shift + 1)
    return np.arange(-m - n_shift, m - n_shift)


def energy_difference_mp(total_flux: float, N: int, L: float) -> mpmath.mpf:
    """Periodic E_a - E_0 at 50 digits from exact level-by-level index sums.

    The free window is {-m, ..., m} (odd N) or {-m, ..., m-1} (even N) with
    m = N // 2; the perturbed one is shifted by -n, where total_flux =
    n pi + delta with delta in (-pi/2, pi/2].  Each eigenvalue
    ((j pi + phi) / L)^2 expands to (pi^2 j^2 + 2 pi phi j + phi^2) / L^2,
    and the integer sums over j are accumulated one index at a time.
    """
    with mpmath.workdps(50):
        phi = mpmath.mpf(total_flux)
        n = int(mpmath.ceil(phi / mpmath.pi - mpmath.mpf(1) / 2))
        m = N // 2
        free = range(-m, m + 1) if N % 2 else range(-m, m)
        pert = range(free.start - n, free.stop - n)
        sum_p = sum(pert)
        squares = sum(j * j for j in pert) - sum(j * j for j in free)
        return (mpmath.pi**2 * squares + 2 * mpmath.pi * phi * sum_p + N * phi**2) / mpmath.mpf(L) ** 2


def dense_overlap_matrix(a, periodic: bool, N: int, L: float, refine: int) -> np.ndarray:
    """T_N(e^{i g_L}) at quadrature level ``refine`` with a dense phase matrix.

    Shares the support nodes and the flux profile with the package, and
    the periodic outer-interval integrals; the sums over the nodes (a dense
    phase matrix per block of 2048 nodes), the Dirichlet outer integrals and
    the assembly are written out.
    """
    prof = flux_profile(a, L)
    total = prof.total_flux

    def node_sums(phase, nodes, values):
        return sum(phase(nodes[lo : lo + 2048]) @ values[lo : lo + 2048] for lo in range(0, len(nodes), 2048))

    if periodic:
        delta = prof.delta_L
        d = np.arange(-(N - 1), N, dtype=float)
        omega = (np.pi * d - delta) / L
        R, nodes, weights = support_nodes(a, L, N, refine)
        boundary = np.exp(1j * (prof.phi_at(nodes) - delta * nodes / L)) * weights
        t = node_sums(lambda x: np.exp(1j * np.outer(np.pi * d / L, x)), nodes, boundary)
        if L > R:
            t = t + np.exp(1j * total) * cis_integral(omega, R, L) + np.exp(-1j * total) * cis_integral(omega, -L, -R)
        rows = np.arange(N)
        return (t / (2.0 * L))[(N - 1) + rows[:, None] - rows[None, :]]
    # Dirichlet: entry (j, k) = c[|j - k|] - c[j + k] in the sine basis, with
    # c_m = (1/2L) int e^{i Phi_L} cos(m y) dx and y = pi (x + L) / 2L
    h = np.pi / (2.0 * L)
    m = np.arange(0, 2 * N + 1)
    R, nodes, weights = support_nodes(a, L, N, refine)
    values = np.exp(1j * prof.phi_at(nodes)) * weights
    c = node_sums(lambda x: np.cos(np.outer(m, h * (x + L))), nodes, values) / (2.0 * L)
    if L > R:
        # int cos(m y) dy over [0, y(-R)] and [y(R), pi], written out
        lo, hi = h * (L - R), h * (L + R)
        with np.errstate(divide="ignore", invalid="ignore"):
            below = np.where(m == 0, lo, np.sin(m * lo) / m)
            above = np.where(m == 0, np.pi - hi, (np.sin(m * np.pi) - np.sin(m * hi)) / m)
        c = c + (np.exp(-1j * total) * below + np.exp(1j * total) * above) / np.pi
    j = np.arange(1, N + 1)
    return c[np.abs(j[:, None] - j[None, :])] - c[j[:, None] + j[None, :]]


def dirichlet_flux_entries(total_flux: float, N: int) -> np.ndarray:
    """Dirichlet jump-symbol matrix in the sine basis, one entry at a time.

    cos(Phi) on the diagonal; for odd j - k,
    (2i/pi) sin(Phi) [s(j+k) / (j+k) - s(j-k) / (j-k)] with
    s(m) = sin(m pi/2) = (-1)^((m-1)/2) from integer arithmetic; zero when
    j - k is even and nonzero.
    """
    out = np.zeros((N, N), dtype=complex)
    coeff = 2j / math.pi * math.sin(total_flux)
    for j in range(1, N + 1):
        for k in range(1, N + 1):
            if j == k:
                out[j - 1, k - 1] = math.cos(total_flux)
            elif (j - k) % 2:
                s_sum = (-1) ** ((j + k - 1) // 2)
                s_diff = (-1) ** ((j - k - 1) // 2)
                out[j - 1, k - 1] = coeff * (s_sum / (j + k) - s_diff / (j - k))
    return out


@dataclass(frozen=True)
class BasisSpec:
    """Eigenbasis window of the free Hamiltonian on [-L, L]."""

    bc: BoundaryCondition
    L: float
    indices: tuple[int, ...]

    @classmethod
    def periodic_window(cls, L: float, N: int) -> "BasisSpec":
        m = N // 2
        idx = range(-m, m + 1) if N % 2 == 1 else range(-m, m)
        return cls(BoundaryCondition.PERIODIC, L, tuple(idx))

    @classmethod
    def dirichlet_window(cls, L: float, N: int) -> "BasisSpec":
        return cls(BoundaryCondition.DIRICHLET, L, tuple(range(1, N + 1)))

    def functions_at(self, x: np.ndarray) -> np.ndarray:
        """Matrix of basis values, shape (len(indices), len(x))."""
        x = np.asarray(x, dtype=float)
        js = np.asarray(self.indices, dtype=float)
        if self.bc is BoundaryCondition.PERIODIC:
            return np.exp(-1j * np.pi * np.outer(js, x) / self.L) / np.sqrt(2.0 * self.L)
        return np.sin(np.pi * np.outer(js, x + self.L) / (2.0 * self.L)) / np.sqrt(self.L)

    def max_frequency(self) -> float:
        """Largest angular frequency of any product conj(phi_j) phi_k."""
        top = max(abs(j) for j in self.indices)
        if self.bc is BoundaryCondition.PERIODIC:
            return 2.0 * np.pi * top / self.L
        return np.pi * top / self.L  # (j + k) pi / (2L) <= 2 top pi / (2L)


ASSEMBLY_TOL = 1e-11


def assemble_toeplitz(
    symbol: Callable[[np.ndarray], np.ndarray],
    basis: BasisSpec,
    breakpoints: Sequence[float] = (),
    max_refine: int = 4,
) -> np.ndarray:
    """The generalized Toeplitz matrix <phi_j, f phi_k> by quadrature.

    Panels never straddle the declared symbol discontinuities (x = 0 and
    the interval ends are always included) and are capped at an eighth of
    the shortest oscillation wavelength over the index window.  Every
    entry is integrated on the panel set and again on its twice-refined
    version with 16-point Gauss-Legendre panels; refinement repeats until
    the worst entry moves by less than ASSEMBLY_TOL.  Raises DomainError
    for ``max_refine`` < 1 and NumericalError, carrying the worst entry,
    when refinement stalls.
    """
    if max_refine < 1:
        raise DomainError("max_refine must be >= 1: the quadrature check compares two builds")
    L = basis.L
    idx = basis.indices
    omega_max = basis.max_frequency()
    wavelength = 2.0 * np.pi / omega_max if omega_max > 0 else 2.0 * L
    max_width = min(wavelength / 8.0, L / 4.0)
    brk = sorted({-L, 0.0, L} | {float(b) for b in breakpoints if -L < b < L})
    x, w = np.polynomial.legendre.leggauss(16)

    def entries_for(width: float) -> np.ndarray:
        pieces = [np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)[1:] for lo, hi in zip(brk, brk[1:])]
        edges = np.concatenate([[-L], *pieces])
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        fw = symbol(nodes) * weights
        phi = basis.functions_at(nodes)  # (N, nodes)
        return (phi.conj() * fw[None, :]) @ phi.T

    current = entries_for(max_width)
    width = max_width
    for _ in range(max_refine):
        width /= 2.0
        refined = entries_for(width)
        err = np.abs(refined - current)
        worst = float(err.max())
        current = refined
        if worst <= ASSEMBLY_TOL:
            return current
    worst_idx = np.unravel_index(int(np.argmax(err)), err.shape)
    raise NumericalError(
        "quadrature refinement stalled above tolerance",
        worst_entry=(idx[worst_idx[0]], idx[worst_idx[1]]),
        achieved=worst,
        requested=ASSEMBLY_TOL,
    )


def _convolution_tail(t: np.ndarray, x: np.ndarray, N: int) -> np.ndarray:
    """Entries N-1 .. 2N-2 of the linear convolution t * x, per column of x, by np.fft
    with room for all 3N - 2 entries, so nothing wraps."""
    size = 1 << (3 * N - 2).bit_length()
    return np.fft.ifft(np.fft.fft(t, size)[:, None] * np.fft.fft(x, size, axis=0), axis=0)[N - 1 : 2 * N - 1]


def sketch_trace_norm(dc: np.ndarray, N: int, periodic: bool, columns: int = 32) -> float:
    """Uncertified sum of the singular values of B = Q^H Delta, Q = qr(Delta Omega), Omega Gaussian (N x columns).

    Delta is the N x N matrix of the coefficient difference dc: entry
    (j, k) = dc[(N - 1) + j - k] (periodic) or dc[|j - k|] - dc[j + k],
    j, k = 1..N (Dirichlet, complex symmetric, so Delta^H x =
    conj(Delta conj x)).  Its products are linear convolutions by np.fft,
    eight columns at a time; Delta is never formed.  For a Delta of
    numerical rank well below ``columns`` this is its trace norm.
    """
    if periodic:
        t, h = dc, None
        t_adjoint = dc[::-1].conj()
    else:
        t, h = np.concatenate([dc[N - 1 : 0 : -1], dc[:N]]), dc[2:]

    def apply(x: np.ndarray, adjoint: bool) -> np.ndarray:
        out = np.empty(x.shape, dtype=complex)
        for lo in range(0, x.shape[1], 8):
            block = x[:, lo : lo + 8]
            if h is None:
                out[:, lo : lo + 8] = _convolution_tail(t_adjoint if adjoint else t, block, N)
                continue
            block = block.conj() if adjoint else block
            y = _convolution_tail(t, block, N) - _convolution_tail(h, block[::-1], N)
            out[:, lo : lo + 8] = y.conj() if adjoint else y
        return out

    rng = np.random.default_rng(20150226)
    omega = rng.standard_normal((N, columns)) + 1j * rng.standard_normal((N, columns))
    q = np.linalg.qr(apply(omega, False))[0]
    return float(np.sum(np.linalg.svd(apply(q, True).conj().T, compute_uv=False)))



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


# terms per slice of frobenius_deficit's streamed exact sum
_SUM_SLICE = 1 << 12


def _slices(total: int):
    """range(total) in slices of _SUM_SLICE (even, so every slice starts at an even index), one at a time."""
    return (slice(lo, min(total, lo + _SUM_SLICE)) for lo in range(0, total, _SUM_SLICE))


def _deficit_terms(c: np.ndarray, N: int, periodic: bool):
    """Float arrays, slice by slice, whose exact sum is frobenius_deficit's N - ||A||_F^2."""
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


def frobenius_deficit(c: np.ndarray, N: int, periodic: bool) -> float:
    """N - ||A||_F^2 for the overlap matrix A of the coefficients c, in O(N) time and O(1) memory, exact and
    rounded once.

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
    (L = N/2), 17-385x ritz_sketch's own rounding allowance
    (log2 N + k) eps tr E.
    """
    return math.fsum(itertools.chain.from_iterable(part.tolist() for part in _deficit_terms(c, N, periodic)))


def overlap_log_det_sq(c: np.ndarray, bc, N: int) -> float:
    """log|det A|^2 of the overlap matrix A of the coefficients c (overlap_coefficients), without forming it.

    The overlap matrix is a finite section of the unitary multiplication by
    e^{i g_L}, a contraction, so log|D|^2 = log det(A^H A), and only
    O(log N) singular values of A lie below 1 - rounding.
    matrixcore.ritz_sketch takes it to an absolute 1e-10, in one pass of a
    k = 32 row sketch, from the FFT operator of A = T(t) - H(h)
    (T_jk = t[(N-1) + j - k] and H_jk = h[j + k]; periodic: t = c and no H;
    Dirichlet: t_d = c_|d| and h = c[2:]) and the closed-form
    tr(I - A^H A) = N - ||A||_F^2 of frobenius_deficit.
    A^H W = conj(A^T conj W) reuses A's operator: the periodic A is
    Toeplitz, so A^T = J A J with J the flip, and the Dirichlet A is
    symmetric.  In the periodic basis the tail tr E - sum theta carries the
    rounding of every t_d, 2 N |t_0| eps per ulp of t_0, so this oracle
    stops short of N = 2^20 there.  Periodic Gaussian bumps of width 0.5
    (R = 4, L = N/2) and total flux pi/2 + eps certify at k = 32 for every
    eps scanned, 1e-12 to 0.1, at N = 2048 and 8192.
    """
    periodic = BoundaryCondition.parse(bc) is BoundaryCondition.PERIODIC
    t, h = (c, None) if periodic else (np.concatenate([c[N - 1 : 0 : -1], c[:N]]), c[2:])
    forward = toeplitz_hankel_operator(t, h)
    flip = slice(None, None, -1 if periodic else 1)  # J along the last axis, or none

    def adjoint(w: np.ndarray) -> np.ndarray:
        return forward(w[..., flip].conj())[..., flip].conj()

    return ritz_sketch(forward, adjoint, frobenius_deficit(c, N, periodic), N, 1e-10, 32).log_det
