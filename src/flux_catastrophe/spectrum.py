"""One-particle eigenpairs and N-fermion ground-state energies.

Periodic boundary conditions on [-L, L]: the free eigenvalues are
(pi j / L)^2 with plane-wave eigenfunctions, and gauging away the vector
potential shifts them to ((j pi + Phi_L(L)) / L)^2.  For Dirichlet
boundary conditions the gauge transform leaves the spectrum untouched,
(pi j / 2L)^2 for j >= 1, so the ground-state energy difference vanishes
identically there.

The occupied index window of the periodic perturbed ground state is the
set {-m-n_L, ..., m-n_L} for odd N and {-m-n_L, ..., m-n_L-1} for even N,
with m = floor(N/2); at the degenerate corners (delta_L = pi/2 with odd N,
delta_L = 0 with even N) this picks one of the two degenerate Slater
states, and every closed form below refers to that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .potential import MagneticPotential, flux_decomposition, flux_profile


class BoundaryCondition(str, Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"

    @classmethod
    def parse(cls, value) -> "BoundaryCondition":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise DomainError(f"unknown boundary condition {value!r}") from None


@dataclass(frozen=True)
class EigenSystem:
    """Closed-form eigenvalues of the free and gauged Hamiltonian on [-L, L]."""

    bc: BoundaryCondition
    L: float
    total_flux: float  # Phi_L(L); ignored by the Dirichlet branch

    def free_eigenvalue(self, j):
        j = np.asarray(j, dtype=float)
        if self.bc is BoundaryCondition.PERIODIC:
            return (math.pi * j / self.L) ** 2
        return (math.pi * j / (2.0 * self.L)) ** 2

    def perturbed_eigenvalue(self, j):
        j = np.asarray(j, dtype=float)
        if self.bc is BoundaryCondition.PERIODIC:
            return ((j * math.pi + self.total_flux) / self.L) ** 2
        return (math.pi * j / (2.0 * self.L)) ** 2

    def index_set_description(self) -> str:
        if self.bc is BoundaryCondition.PERIODIC:
            return "all integers j"
        return "integers j >= 1"


def eigensystem(bc: BoundaryCondition, a: MagneticPotential | None, L: float) -> EigenSystem:
    bc = BoundaryCondition.parse(bc)
    if L <= 0:
        raise DomainError("L must be positive")
    total = flux_profile(a, L).total_flux if a is not None else 0.0
    return EigenSystem(bc=bc, L=L, total_flux=total)


def occupied_indices(bc: BoundaryCondition, N: int, n_shift: int = 0) -> np.ndarray:
    """Occupied one-particle indices of the N-fermion ground state.

    Periodic: the window is centred at -n_shift (n_shift = n_L for the
    perturbed state, 0 for the free one).  Dirichlet: always 1..N.
    """
    bc = BoundaryCondition.parse(bc)
    if N < 1:
        raise DomainError("N must be >= 1")
    if bc is BoundaryCondition.DIRICHLET:
        return np.arange(1, N + 1)
    m = N // 2
    if N % 2 == 1:
        return np.arange(-m - n_shift, m - n_shift + 1)
    return np.arange(-m - n_shift, m - n_shift)


@dataclass(frozen=True)
class GroundStateSpec:
    """Bookkeeping for one N-fermion Slater ground state."""

    N: int
    m: int
    occupied: tuple[int, ...]

    @classmethod
    def build(cls, bc: BoundaryCondition, N: int, n_shift: int = 0) -> "GroundStateSpec":
        occ = occupied_indices(bc, N, n_shift)
        return cls(N=N, m=N // 2, occupied=tuple(int(j) for j in occ))


def ground_state_energy(
    bc: BoundaryCondition,
    a: MagneticPotential | None,
    N: int,
    L: float,
    perturbed: bool = False,
) -> float:
    """Sum of the N occupied eigenvalues.

    The Dirichlet result is independent of the potential; the periodic
    perturbed state occupies the shifted window around -n_L.
    """
    bc = BoundaryCondition.parse(bc)
    needs_flux = perturbed and bc is BoundaryCondition.PERIODIC
    es = eigensystem(bc, a if needs_flux else None, L)
    if bc is BoundaryCondition.DIRICHLET or not perturbed:
        j = occupied_indices(bc, N)
        return float(np.sum(es.free_eigenvalue(j)))
    n_L, _ = flux_decomposition(es.total_flux)
    j = occupied_indices(bc, N, n_L)
    return float(np.sum(es.perturbed_eigenvalue(j)))


def energy_difference(bc: BoundaryCondition, a: MagneticPotential | None, N: int, L: float) -> float:
    """Exact ground-state energy difference E_a - E_0.

    Periodic: delta_L^2 N / L^2 for odd N and delta_L (delta_L - pi) N / L^2
    for even N.  Dirichlet: exactly zero.
    """
    bc = BoundaryCondition.parse(bc)
    if bc is BoundaryCondition.DIRICHLET:
        return 0.0
    delta = flux_profile(a, L).delta_L if a is not None else 0.0
    if N % 2 == 1:
        return delta * delta * N / (L * L)
    return delta * (delta - math.pi) * N / (L * L)


def energy_difference_direct(bc: BoundaryCondition, a: MagneticPotential | None, N: int, L: float) -> float:
    """E_a - E_0 by direct summation over the occupied windows.

    With p over the perturbed window, f over the free one and phi = Phi_L(L),

        E_a - E_0 = [pi^2 (sum p^2 - sum f^2) + 2 pi phi sum p + N phi^2] / L^2.

    The index sums are exact integers, so the only rounding is in the last
    three-term combination; summing the N squared levels in floating point
    instead loses accuracy as N grows (6.1e-9 relative at N = 10^6).  The
    perturbed window is the free one shifted by -n_L, so
    sum p^2 - sum f^2 = sum (p - f)(p + f) stays a small integer.
    """
    bc = BoundaryCondition.parse(bc)
    if bc is BoundaryCondition.DIRICHLET:
        return 0.0
    prof = flux_profile(a, L) if a is not None else None
    total = prof.total_flux if prof is not None else 0.0
    n_L = prof.n_L if prof is not None else 0
    free = occupied_indices(bc, N, 0)
    pert = occupied_indices(bc, N, n_L)
    sum_p = int(np.sum(pert))
    squares_diff = int(np.sum((pert - free) * (pert + free)))
    return (math.pi**2 * squares_diff + 2.0 * math.pi * total * sum_p + N * total * total) / (L * L)


def finite_size_energy(a: MagneticPotential | None, parity: str, rho: float) -> float:
    """Coefficient of 1/N in the energy difference at fixed density rho.

    4 delta^2 rho^2 for odd N, 4 delta (delta - pi) rho^2 for even N, where
    delta comes from decomposing the full-line flux of ``a``.  The order-one
    Fumi term vanishes for magnetic perturbations.
    """
    if rho <= 0:
        raise DomainError("density rho must be positive")
    if parity not in ("odd", "even"):
        raise DomainError("parity must be 'odd' or 'even'")
    if a is None:
        delta = 0.0
    else:
        total = 0.5 * (float(a.antiderivative(a.support_radius)) - float(a.antiderivative(-a.support_radius)))
        _, delta = flux_decomposition(total)
    if parity == "odd":
        return 4.0 * delta * delta * rho * rho
    return 4.0 * delta * (delta - math.pi) * rho * rho


def eigenvalue_multiplicities(values: Iterable[float], tol: float = 1e-12) -> list[tuple[float, int]]:
    """Cluster eigenvalues into (value, multiplicity) pairs at tolerance ``tol``."""
    vals = sorted(float(v) for v in values)
    out: list[tuple[float, int]] = []
    for v in vals:
        if out and abs(v - out[-1][0]) <= tol * max(1.0, abs(v)):
            prev, count = out[-1]
            out[-1] = (prev, count + 1)
        else:
            out.append((v, 1))
    return out


def perturbed_multiplicities(
    a: MagneticPotential | None,
    L: float,
    window: Sequence[int],
    tol: float = 1e-12,
) -> list[tuple[float, int]]:
    """Multiplicities of periodic perturbed eigenvalues over an index window.

    The spectrum is non-degenerate exactly when Phi_L(L) is not an integer
    multiple of pi/2; callers should centre the window so that the pairing
    j <-> -j - 2 Phi/pi stays inside it.
    """
    es = eigensystem(BoundaryCondition.PERIODIC, a, L)
    vals = es.perturbed_eigenvalue(np.asarray(list(window), dtype=float))
    return eigenvalue_multiplicities(vals.tolist(), tol)
