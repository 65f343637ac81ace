"""Generalized Toeplitz matrices, log-determinants and matrix norms.

A generalized Toeplitz matrix collects the inner products <phi_j, f phi_k>
of a bounded symbol f against an orthonormal basis.  In the plane-wave
basis of the periodic problem the entries depend on j - k only and the
matrix is Toeplitz in the classical sense; the Dirichlet sine/cosine basis
produces a Toeplitz-plus-Hankel structure instead.

Determinants of these matrices decay polynomially in N, so their
magnitudes are kept in log space throughout (LogDet).  Dense LU with
partial pivoting (LAPACK via numpy) is deliberately preferred over fast
Toeplitz solvers: at desk scale the O(N^3) cost is irrelevant and pivoted
LU keeps the decaying determinants trustworthy.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .quadrature import build_edges, gauss_legendre_rule
from .spectrum import BoundaryCondition


class SymbolKind(str, Enum):
    EXACT_GAUGE = "exact_gauge"          # e^{i g_L}
    DISCONTINUOUS_FLUX = "discontinuous_flux"  # e^{i g~_L}
    CUSTOM = "custom"


@dataclass
class SymbolMatrix:
    """Dense matrix of symbol inner products plus provenance metadata."""

    entries: np.ndarray
    n: int
    bc: BoundaryCondition | None
    symbol_kind: SymbolKind
    L: float | None

    def toeplitz_deviation(self) -> float:
        """Largest spread of entries along any diagonal (0 for exact Toeplitz)."""
        dev = 0.0
        e = self.entries
        for d in range(-(self.n - 1), self.n):
            diag = np.diagonal(e, offset=d)
            dev = max(dev, float(np.max(np.abs(diag - diag[0]))))
        return dev


@dataclass(frozen=True)
class LogDet:
    """A determinant stored as log|det| plus a phase in (-pi, pi].

    det = exp(log_magnitude) * exp(i phase); a singular matrix is encoded
    as log_magnitude = -inf with phase 0.
    """

    log_magnitude: float
    phase: float

    @property
    def value(self) -> complex:
        return np.exp(self.log_magnitude) * np.exp(1j * self.phase)


def log_det(matrix: SymbolMatrix | np.ndarray) -> LogDet:
    """Log-determinant via LU with partial pivoting.

    log_magnitude accumulates ln|u_ii| over the pivots and the phase is the
    argument of the pivot-sign product, reduced to (-pi, pi].
    """
    m = matrix.entries if isinstance(matrix, SymbolMatrix) else np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("log_det needs a square matrix")
    sign, logabs = np.linalg.slogdet(m)
    if logabs == -np.inf or sign == 0:
        return LogDet(log_magnitude=-np.inf, phase=0.0)
    return LogDet(log_magnitude=float(logabs), phase=float(np.angle(sign)))


_SKETCH_SEED = 0x5EED
_SKETCH_COLUMNS = 32
_SKETCH_REL_TOL = 1e-10
_RESIDUAL_BLOCK_ENTRIES = 1 << 18


def trace_norm(m: np.ndarray | SymbolMatrix) -> float:
    """Sum of singular values, from a certified randomized range finder.

    A matrix of low numerical rank (such as Delta_N, whose symbol vanishes
    outside the potential's support) is compressed first: a fixed-seed
    Gaussian sketch Y = A Omega with k columns gives an orthonormal basis
    Q = qr(Y), and the singular values of the small matrix B = Q* A are
    summed (Halko, Martinsson, Tropp, SIAM Review 53, 2011).

    The sum is accepted only under an a-posteriori certificate.  Since
    ||Q*|| <= 1, sum sigma(B) <= ||A||_1 <= sum sigma(B) + ||R||_1 with
    R = A - Q B, and ||R||_1 <= sqrt(rank R) ||R||_F <= sqrt(n) ||R||_F
    for n = min(rows, cols).  So the result is within a relative 1e-10 of
    the trace norm once sqrt(n) ||R||_F <= 1e-10 sum sigma(B).  Otherwise
    k doubles; once k would reach n/2 (and always for small matrices) the
    dense LAPACK SVD is used instead.  ||R||_F is accumulated over row
    blocks, so no second full-size temporary is allocated.  The seed is
    fixed, so the result is deterministic for a given matrix.
    """
    a = m.entries if isinstance(m, SymbolMatrix) else np.asarray(m)
    rows, cols = a.shape
    n = min(rows, cols)
    rng = np.random.default_rng(_SKETCH_SEED)
    k = _SKETCH_COLUMNS
    while 2 * k < n:
        omega = rng.standard_normal((cols, k))
        if np.iscomplexobj(a):
            omega = omega + 1j * rng.standard_normal((cols, k))
        q, _ = np.linalg.qr(a @ omega)
        b = q.conj().T @ a
        total = float(np.sum(np.linalg.svd(b, compute_uv=False)))
        step = max(1, _RESIDUAL_BLOCK_ENTRIES // cols)
        residual_sq = 0.0
        for lo in range(0, rows, step):
            block = a[lo : lo + step] - q[lo : lo + step] @ b
            residual_sq += float(np.vdot(block, block).real)
        if math.sqrt(n * residual_sq) <= _SKETCH_REL_TOL * total:
            return total
        k *= 2
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def operator_norm(m: np.ndarray | SymbolMatrix, rel_tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest singular value by power iteration on m* m.

    Hermitian inputs iterate the matrix directly (their operator norm is
    the dominant |eigenvalue|); general inputs alternate m and m*.  The
    start vector is a fixed pseudorandom unit vector, so the result is
    deterministic for a given matrix.
    """
    a = m.entries if isinstance(m, SymbolMatrix) else np.asarray(m)
    if a.size == 0:
        return 0.0
    n = a.shape[1]
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    if np.iscomplexobj(a):
        v = v + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    hermitian = a.shape[0] == a.shape[1] and np.array_equal(a, a.conj().T)
    prev = -1.0
    sigma = 0.0
    for _ in range(max_iter):
        w = a @ v
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        if hermitian:
            v = w / sigma
        else:
            u = a.conj().T @ w
            v = u / np.linalg.norm(u)
        if abs(sigma - prev) <= rel_tol * max(sigma, 1e-300):
            return sigma
        prev = sigma
    raise NumericalError(
        "power iteration stagnated before reaching tolerance",
        last_two=(prev, sigma),
        rel_tol=rel_tol,
        max_iter=max_iter,
    )


# ---------------------------------------------------------------------------
# bases and assembly
# ---------------------------------------------------------------------------


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
        phases = np.pi * np.outer(js, x) / (2.0 * self.L)
        even = (np.asarray(self.indices) % 2 == 0)[:, None]
        return np.where(even, np.sin(phases), np.cos(phases)) / np.sqrt(self.L)

    def max_frequency(self) -> float:
        """Largest angular frequency of any product conj(phi_j) phi_k."""
        top = max(abs(j) for j in self.indices)
        if self.bc is BoundaryCondition.PERIODIC:
            return 2.0 * np.pi * top / self.L
        return np.pi * top / self.L  # (j + k) pi / (2L) <= 2 top pi / (2L)


def assemble_toeplitz(
    symbol: Callable[[np.ndarray], np.ndarray],
    basis: BasisSpec,
    quadrature_tol: float = 1e-11,
    breakpoints: Sequence[float] = (),
    symbol_kind: SymbolKind = SymbolKind.CUSTOM,
    npts: int = 16,
    max_refine: int = 4,
) -> SymbolMatrix:
    """Assemble the generalized Toeplitz matrix <phi_j, f phi_k> by quadrature.

    Panels never straddle the declared symbol discontinuities (x = 0 and
    the interval ends are always included) and are capped at an eighth of
    the shortest oscillation wavelength over the index window.  Every
    entry is integrated on the panel set and again on its twice-refined
    version; refinement repeats until the worst entry moves by less than
    ``quadrature_tol``.

    Raises
    ------
    NumericalError
        carrying the worst entry index when refinement stalls above the
        requested tolerance.
    """
    L = basis.L
    idx = basis.indices
    N = len(idx)
    omega_max = basis.max_frequency()
    wavelength = 2.0 * np.pi / omega_max if omega_max > 0 else 2.0 * L
    max_width = min(wavelength / 8.0, L / 4.0)
    brk = sorted({0.0} | {float(b) for b in breakpoints if -L < b < L})

    def entries_for(width: float) -> np.ndarray:
        edges = build_edges(-L, L, brk, width)
        x, w = gauss_legendre_rule(npts)
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
        if worst <= quadrature_tol:
            return SymbolMatrix(entries=current, n=N, bc=basis.bc, symbol_kind=symbol_kind, L=L)
    worst_idx = np.unravel_index(int(np.argmax(err)), err.shape)
    raise NumericalError(
        "quadrature refinement stalled above tolerance",
        worst_entry=(idx[worst_idx[0]], idx[worst_idx[1]]),
        achieved=worst,
        requested=quadrature_tol,
    )


def fh_matrix(delta: float, N: int) -> SymbolMatrix:
    """Toeplitz matrix with entries sin(delta) / (delta - pi (j-k)).

    This is the determinant-carrying matrix of the jump symbol: the
    diagonal is sin(delta)/delta (with the analytic limit 1 as delta -> 0,
    evaluated by series below |delta| < 1e-4 to dodge 0/0).
    """
    if abs(delta) >= np.pi / 2:
        raise DomainError("fh_matrix requires |delta| < pi/2")
    if N < 1:
        raise DomainError("N must be >= 1")
    d = np.arange(-(N - 1), N, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(delta) / (delta - np.pi * d)
    if abs(delta) < 1e-4:
        d2 = delta * delta
        s[N - 1] = 1.0 - d2 / 6.0 * (1.0 - d2 / 20.0)
    else:
        s[N - 1] = np.sin(delta) / delta
    rows = np.arange(N)
    entries = s[(N - 1) + rows[:, None] - rows[None, :]]
    return SymbolMatrix(
        entries=entries,
        n=N,
        bc=BoundaryCondition.PERIODIC,
        symbol_kind=SymbolKind.DISCONTINUOUS_FLUX,
        L=None,
    )


# ---------------------------------------------------------------------------
# Toeplitz property checks (linearity, self-adjointness, semidefiniteness,
# inverse bound from the real part of the symbol)
# ---------------------------------------------------------------------------


@dataclass
class PropertyClause:
    name: str
    applicable: bool
    passed: bool
    detail: str


@dataclass
class PropertyReport:
    clauses: list[PropertyClause] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses if c.applicable)

    @property
    def failures(self) -> list[PropertyClause]:
        return [c for c in self.clauses if c.applicable and not c.passed]

    def summary(self) -> str:
        parts = []
        for c in self.clauses:
            if not c.applicable:
                parts.append(f"{c.name}: n/a")
            else:
                parts.append(f"{c.name}: {'ok' if c.passed else 'FAIL (' + c.detail + ')'}")
        return "; ".join(parts)


def _random_trig_symbol(rng: np.random.Generator, L: float, degree: int = 3):
    coeff = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    ks = np.arange(-degree, degree + 1)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.sum(coeff[:, None] * np.exp(1j * np.pi * np.outer(ks, x) / L), axis=0)

    return f


def toeplitz_property_checks(
    symbol: Callable[[np.ndarray], np.ndarray],
    matrix: SymbolMatrix,
    *,
    re_lower_bound: float | None = None,
    n_samples: int = 4001,
    tol_linear: float = 1e-9,
    rng_seed: int = 7,
) -> PropertyReport:
    """Check the structural Toeplitz-matrix properties against ``matrix``.

    Clauses:
      linearity               T(alpha g + beta h) = alpha T(g) + beta T(h)
                              for a random symbol pair on the same basis
      self-adjoint            T(f)* = T(f) when f is real valued
      positive-semidefinite   smallest eigenvalue >= -1e-10 when f >= 0
      inverse-bound           ||T(f)^{-1}|| <= 1/delta + 1e-8 when
                              Re f >= delta > 0

    ``re_lower_bound`` supplies the certified lower bound delta for the
    last clause; without it the sampled minimum of Re f is used, which is
    only a sound bound when f is sampled finely enough.
    """
    if matrix.bc is None or matrix.L is None:
        raise DomainError("matrix must carry basis provenance (bc and L)")
    L = matrix.L
    basis = (
        BasisSpec.periodic_window(L, matrix.n)
        if matrix.bc is BoundaryCondition.PERIODIC
        else BasisSpec.dirichlet_window(L, matrix.n)
    )
    xs = np.linspace(-L, L, n_samples)
    fx = np.asarray(symbol(xs))
    report = PropertyReport()

    # (i) linearity of assembly on a random symbol pair
    rng = np.random.default_rng(rng_seed)
    g = _random_trig_symbol(rng, L)
    h = _random_trig_symbol(rng, L)
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    beta = complex(rng.standard_normal(), rng.standard_normal())
    small = BasisSpec(basis.bc, L, basis.indices[: min(8, matrix.n)])
    combo = assemble_toeplitz(lambda x: alpha * g(x) + beta * h(x), small)
    parts = alpha * assemble_toeplitz(g, small).entries + beta * assemble_toeplitz(h, small).entries
    lin_err = float(np.max(np.abs(combo.entries - parts)))
    report.clauses.append(
        PropertyClause("linearity", True, lin_err <= tol_linear, f"max deviation {lin_err:.3e}")
    )

    # (ii) self-adjointness for real symbols
    is_real = float(np.max(np.abs(fx.imag))) <= 1e-13 if np.iscomplexobj(fx) else True
    herm_err = float(np.max(np.abs(matrix.entries - matrix.entries.conj().T)))
    report.clauses.append(
        PropertyClause("self-adjoint", is_real, herm_err <= 1e-9, f"max asymmetry {herm_err:.3e}")
    )

    # (iii) positive semidefiniteness for nonnegative symbols
    nonneg = is_real and float(np.min(fx.real)) >= -1e-13
    if nonneg:
        smallest = float(np.min(np.linalg.eigvalsh(0.5 * (matrix.entries + matrix.entries.conj().T))))
        report.clauses.append(
            PropertyClause("positive-semidefinite", True, smallest >= -1e-10, f"min eigenvalue {smallest:.3e}")
        )
    else:
        report.clauses.append(PropertyClause("positive-semidefinite", False, True, "symbol not >= 0"))

    # (iv) inverse bound when Re f >= delta > 0
    delta = re_lower_bound if re_lower_bound is not None else float(np.min(fx.real))
    if delta > 0:
        inverse = np.linalg.solve(matrix.entries, np.eye(matrix.n, dtype=matrix.entries.dtype))
        inv_norm = operator_norm(inverse)
        ok = inv_norm <= 1.0 / delta + 1e-8
        report.clauses.append(
            PropertyClause("inverse-bound", True, ok, f"||T^-1|| = {inv_norm:.6f} vs 1/delta = {1.0/delta:.6f}")
        )
    else:
        report.clauses.append(PropertyClause("inverse-bound", False, True, "Re f has no positive lower bound"))
    return report


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

_BC_TAGS = {None: 255, BoundaryCondition.PERIODIC: 0, BoundaryCondition.DIRICHLET: 1}
_KIND_TAGS = {SymbolKind.EXACT_GAUGE: 0, SymbolKind.DISCONTINUOUS_FLUX: 1, SymbolKind.CUSTOM: 2}
_MAGIC = b"SYMM"


def save_binary(matrix: SymbolMatrix, path) -> None:
    """Flat binary layout: magic, uint32 N, uint8 bc tag, uint8 symbol tag,
    float64 L (nan when absent), then row-major (re, im) float64 pairs."""
    header = _MAGIC + struct.pack(
        "<IBBd",
        matrix.n,
        _BC_TAGS[matrix.bc],
        _KIND_TAGS[matrix.symbol_kind],
        matrix.L if matrix.L is not None else np.nan,
    )
    data = np.ascontiguousarray(matrix.entries, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.view(np.float64).tobytes())


def load_binary(path) -> SymbolMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise DomainError("not a symbol-matrix binary file")
    n, bc_tag, kind_tag, L = struct.unpack("<IBBd", blob[4 : 4 + struct.calcsize("<IBBd")])
    offset = 4 + struct.calcsize("<IBBd")
    flat = np.frombuffer(blob, dtype=np.float64, offset=offset)
    entries = flat.view(np.complex128).reshape(n, n).copy()
    bc = {v: k for k, v in _BC_TAGS.items()}[bc_tag]
    kind = {v: k for k, v in _KIND_TAGS.items()}[kind_tag]
    return SymbolMatrix(entries=entries, n=n, bc=bc, symbol_kind=kind, L=None if np.isnan(L) else L)


def save_csv(matrix: SymbolMatrix, path) -> None:
    """Long-format CSV (row, col, re, im) for manual inspection."""
    with open(path, "w") as fh:
        fh.write("row,col,re,im\n")
        e = np.asarray(matrix.entries, dtype=np.complex128)
        for j in range(matrix.n):
            for k in range(matrix.n):
                fh.write(f"{j},{k},{e[j, k].real:.17g},{e[j, k].imag:.17g}\n")
