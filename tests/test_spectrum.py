from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flux_catastrophe.errors import DomainError
from flux_catastrophe.potential import (
    GaussianBump,
    PiecewiseLinear,
    flux_profile,
    gaussian_bump_with_flux,
    zero_potential,
)
from flux_catastrophe.spectrum import (
    BoundaryCondition,
    energy_difference,
    energy_difference_direct,
    finite_size_energy,
)

from oracles import energy_difference_mp, occupied_indices

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET


def test_periodic_perturbed_single_particle_minimum():
    a = gaussian_bump_with_flux(2.9)  # n_L = 1, delta_L = 2.9 - pi
    L = 6.0
    prof = flux_profile(a, L)
    # one free particle sits at j = 0 with energy 0, so E_a - E_0 is the
    # perturbed one-particle ground energy of the window {-n_L}
    e1 = energy_difference_direct(PER, a, 1, L)
    assert_allclose(e1, (prof.delta_L / L) ** 2, rtol=1e-13)
    # and it is really the minimum of ((j pi + Phi_L(L)) / L)^2 over a wide index range
    js = np.arange(-50, 51)
    assert e1 <= np.min(((js * math.pi + prof.total_flux) / L) ** 2) + 1e-15


def test_occupied_windows_match_convention():
    assert occupied_indices(5, 0).tolist() == [-2, -1, 0, 1, 2]
    assert occupied_indices(4, 0).tolist() == [-2, -1, 0, 1]
    assert occupied_indices(5, 2).tolist() == [-4, -3, -2, -1, 0]


def test_direct_energy_closed_form_sums_match_the_occupied_windows():
    # the integer closed forms of sum p and sum (p - f)(p + f) give the same
    # float as summing the windows themselves, for odd and even N and n_L of
    # either sign
    for flux in (2.0, 2.0 + 2 * math.pi, -4.0):
        a = gaussian_bump_with_flux(flux)
        for N in (1, 2, 16383, 16384, 16385, 40001):
            L = N / 2.0 + 4.0
            prof = flux_profile(a, L)
            free, pert = occupied_indices(N, 0), occupied_indices(N, prof.n_L)
            squares = int(np.sum((pert - free) * (pert + free)))
            total = prof.total_flux
            whole = (math.pi**2 * squares + 2.0 * math.pi * total * int(np.sum(pert)) + N * total * total) / (L * L)
            assert energy_difference_direct(PER, a, N, L) == whole, (flux, N)


def test_direct_energy_at_a_million_levels_allocates_no_array_of_size_n():
    # five int64 arrays of N = 10^6 + 1 levels took 30.5 MiB; the closed
    # forms hold a few Python integers
    a = gaussian_bump_with_flux(2.0)
    N = 10**6 + 1
    energy_difference_direct(PER, a, 101, 50.5)  # warm up
    tracemalloc.start()
    try:
        energy_difference_direct(PER, a, N, N / 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_energy_difference_closed_forms():
    # delta = pi/4, odd N: delta^2 N / L^2
    a = gaussian_bump_with_flux(math.pi / 4)
    assert_allclose(energy_difference(PER, a, 3, 10.0), (math.pi / 4) ** 2 * 3 / 100, rtol=1e-14)
    assert_allclose(energy_difference(PER, a, 3, 10.0), 1.85055e-2, rtol=1e-5)
    # Dirichlet always zero
    assert energy_difference(DIR, a, 7, 9.0) == 0.0
    # even N with delta = 0 vanishes
    assert energy_difference(PER, zero_potential(), 8, 5.0) == 0.0


def test_energy_difference_matches_direct_summation():
    rng = np.random.default_rng(42)
    for _ in range(100):
        if rng.random() < 0.5:
            a = GaussianBump(
                center=float(rng.uniform(-1, 1)),
                width=float(rng.uniform(0.3, 1.0)),
                amplitude=float(rng.uniform(-3, 3)),
                support_radius=4.0,
            )
        else:
            xs = np.sort(rng.uniform(-3, 3, size=4))
            vs = rng.uniform(-2, 2, size=4)
            a = PiecewiseLinear(tuple(zip(xs.tolist(), vs.tolist())))
        N = int(rng.integers(1, 200))
        L = a.support_radius + float(rng.uniform(0.5, 40.0))
        closed = energy_difference(PER, a, N, L)
        direct = energy_difference_direct(PER, a, N, L)
        assert abs(closed - direct) <= 1e-10 * max(abs(closed), abs(direct), 1e-30)
        levels = float(energy_difference_mp(flux_profile(a, L).total_flux, N, L))
        assert abs(closed - levels) <= 1e-10 * max(abs(closed), 1.0)


@pytest.mark.parametrize("N", [100001, 1000001])
def test_energy_direct_at_large_N_vs_mpmath(N):
    # flux 2.0 gives n_L = 1, so the perturbed window is shifted; a float sum
    # of the N squared levels was off by 6.1e-9 relative at N = 10^6
    a = gaussian_bump_with_flux(2.0)
    L = N / 2.0
    exact = energy_difference_mp(flux_profile(a, L).total_flux, N, L)
    direct = energy_difference_direct(PER, a, N, L)
    assert abs(direct - exact) <= 1e-14 * abs(exact)
    closed = energy_difference(PER, a, N, L)
    assert abs(closed - direct) <= 1e-10 * abs(closed)  # the energy experiment's gate


def test_finite_size_energy_values():
    assert finite_size_energy(zero_potential(), "odd", 2.0) == 0.0
    assert finite_size_energy(zero_potential(), "even", 2.0) == 0.0
    a = gaussian_bump_with_flux(math.pi / 4)
    assert_allclose(finite_size_energy(a, "odd", 1.0), math.pi**2 / 4, rtol=1e-14)
    assert_allclose(finite_size_energy(a, "even", 1.0), 4 * (math.pi / 4) * (math.pi / 4 - math.pi), rtol=1e-14)
    with pytest.raises(DomainError):
        finite_size_energy(a, "both", 1.0)
    with pytest.raises(DomainError):
        finite_size_energy(a, "odd", -1.0)


def test_scaled_difference_converges_to_finite_size_energy():
    a = gaussian_bump_with_flux(math.pi / 4)
    rho = 1.0
    for N in (10**5 + 1, 10**5):  # one odd, one even
        L = N / (2 * rho)
        parity = "odd" if N % 2 else "even"
        limit = finite_size_energy(a, parity, rho)
        assert_allclose(N * energy_difference(PER, a, N, L), limit, rtol=1e-3)


def test_fumi_term_vanishes():
    a = gaussian_bump_with_flux(1.0)
    rho = 0.7
    diffs = []
    for N in (101, 201, 401, 801):
        L = N / (2 * rho)
        diffs.append(abs(energy_difference(PER, a, N, L)))
    # |Delta E| <= C / N along the grid
    for N, d in zip((101, 201, 401, 801), diffs):
        assert d <= 10.0 / N
    assert diffs[-1] < diffs[0]


def test_two_limit_points_are_distinct():
    a = gaussian_bump_with_flux(math.pi / 4)
    rho = 1.0
    odd = [N * energy_difference(PER, a, N, N / (2 * rho)) for N in (1001, 2001, 4001)]
    even = [N * energy_difference(PER, a, N, N / (2 * rho)) for N in (1000, 2000, 4000)]
    assert_allclose(odd, finite_size_energy(a, "odd", rho), rtol=1e-3)
    assert_allclose(even, finite_size_energy(a, "even", rho), rtol=1e-3)
    assert abs(odd[-1] - even[-1]) > 1.0
