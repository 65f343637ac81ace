"""N-fermion ground-state energy differences.

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
from enum import Enum

from .errors import DomainError
from .potential import MagneticPotential, flux_profile, full_line_delta


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
    """E_a - E_0 from exact integer sums over the occupied windows.

    With p over the perturbed window, f over the free one and phi = Phi_L(L),

        E_a - E_0 = [pi^2 (sum p^2 - sum f^2) + 2 pi phi sum p + N phi^2] / L^2.

    The index sums are exact integers, so the only rounding is in the last
    three-term combination; summing the N squared levels in floating point
    instead loses accuracy as N grows (6.1e-9 relative at N = 10^6).  The
    free window is f = -m .. N - 1 - m, m = floor(N/2), and the perturbed one
    is it shifted by -n_L, so sum p^2 - sum f^2 = sum (p - f)(p + f) stays a
    small integer.  Both sums have integer closed forms in F = sum f =
    N (N - 1) / 2 - N m: sum p = F - N n_L and sum (p - f)(p + f) =
    n_L (N n_L - 2 F), so no array of size N exists.
    """
    bc = BoundaryCondition.parse(bc)
    if bc is BoundaryCondition.DIRICHLET:
        return 0.0
    if N < 1:
        raise DomainError("N must be >= 1")
    prof = flux_profile(a, L) if a is not None else None
    total = prof.total_flux if prof is not None else 0.0
    n_L = prof.n_L if prof is not None else 0
    free_sum = N * (N - 1) // 2 - N * (N // 2)
    sum_p = free_sum - N * n_L
    squares_diff = n_L * (N * n_L - 2 * free_sum)
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
    delta = 0.0 if a is None else full_line_delta(a)
    if parity == "odd":
        return 4.0 * delta * delta * rho * rho
    return 4.0 * delta * (delta - math.pi) * rho * rho
