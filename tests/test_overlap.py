from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from flux_catastrophe.errors import DomainError
from flux_catastrophe.matrixcore import BasisSpec, assemble_toeplitz, fh_matrix, log_det, trace_norm
import flux_catastrophe.overlap as overlap_module
from flux_catastrophe.overlap import (
    delta_matrix_bound_check,
    dirichlet_flux_closed_form,
    evaluate_point,
    flux_matrix,
    lemma_factorization_check,
    overlap_at,
    overlap_matrix,
    periodic_flux_closed_form,
    periodic_split_symbols,
)
from flux_catastrophe.potential import (
    GaussianBump,
    flux_profile,
    gaussian_bump_with_flux,
    weighted_abs_moment,
    zero_potential,
)
from flux_catastrophe.spectrum import BoundaryCondition

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET


def test_zero_potential_gives_identity_overlap(zero_pot):
    for bc in (PER, DIR):
        m = overlap_matrix(zero_pot, bc, 12, 6.0)
        assert_allclose(m.entries, np.eye(12), atol=1e-12)
        assert math.exp(2 * log_det(m).log_magnitude) == pytest.approx(1.0, abs=1e-12)


def test_periodic_overlap_2x2_vs_independent_quadrature():
    a = GaussianBump(center=0.2, width=0.5, amplitude=0.8, support_radius=4.0)
    L = 5.0
    m = overlap_matrix(a, PER, 2, L)
    prof = flux_profile(a, L)

    def entry(d):
        def integrand_re(x):
            g = float(prof.phi_at(np.array([x]))[0]) - prof.delta_L * x / L
            return math.cos(g + math.pi * d * x / L)

        def integrand_im(x):
            g = float(prof.phi_at(np.array([x]))[0]) - prof.delta_L * x / L
            return math.sin(g + math.pi * d * x / L)

        pts = [-4.0, 0.0, 0.2, 4.0]
        re = quad(integrand_re, -L, L, points=pts, limit=400, epsabs=1e-12)[0]
        im = quad(integrand_im, -L, L, points=pts, limit=400, epsabs=1e-12)[0]
        return (re + 1j * im) / (2 * L)

    # window for N=2 is {-1, 0}: differences j-k
    for (j, k) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        d = j - k
        assert abs(m.entries[j, k] - entry(d)) < 1e-10


def test_dirichlet_single_state_unimodularity():
    a = gaussian_bump_with_flux(0.8)
    m = overlap_matrix(a, DIR, 1, 6.0)
    assert abs(m.entries[0, 0]) <= 1.0 + 1e-12
    assert abs(m.entries[0, 0]) < 1.0  # flux varies over the support of phi_1^2
    z = overlap_matrix(zero_potential(), DIR, 1, 6.0)
    assert abs(z.entries[0, 0]) == pytest.approx(1.0, abs=1e-13)


def test_overlap_requires_support_inside_interval():
    a = gaussian_bump_with_flux(0.5)  # support radius 4
    with pytest.raises(DomainError):
        overlap_matrix(a, PER, 8, 3.0)
    with pytest.raises(DomainError):
        flux_matrix(a, PER, 8, 3.0)


def test_flux_matrix_zero_flux_identity(zero_pot):
    for bc in (PER, DIR):
        m = flux_matrix(zero_pot, bc, 9, 5.0)
        assert_allclose(m.entries, np.eye(9), atol=1e-15)


def test_dirichlet_flux_entry_example():
    # j = 1 (odd), k = 2 (even), Phi = pi/4: (2i/pi) sin(pi/4) (1/3 - 1/(-1))
    m = dirichlet_flux_closed_form(math.pi / 4, 4)
    expected = 2j / math.pi * math.sin(math.pi / 4) * (1.0 / 3.0 + 1.0)
    assert_allclose(m[0, 1], expected, rtol=1e-15)
    # parity-even pairs vanish off the diagonal
    assert m[0, 2] == 0.0 and m[1, 3] == 0.0
    assert_allclose(np.diag(m), math.cos(math.pi / 4), rtol=1e-15)


def test_periodic_flux_matrix_det_2x2():
    delta = math.pi / 4
    m = flux_matrix(gaussian_bump_with_flux(delta), PER, 2, 4.0)
    s = fh_matrix(delta, 2).entries
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    ld = log_det(m)
    assert_allclose(math.exp(ld.log_magnitude), abs(det), rtol=1e-13)


def test_periodic_flux_matrix_sign_for_odd_n_L():
    # total flux 2.9 -> n_L = 1, delta = 2.9 - pi < 0; symbol picks up (-1)^{n_L}
    a = gaussian_bump_with_flux(2.9)
    L = 6.0
    prof = flux_profile(a, L)
    assert prof.n_L == 1
    m = flux_matrix(a, PER, 6, L)
    assert_allclose(m.entries, -fh_matrix(prof.delta_L, 6).entries, atol=0)
    # and the closed form matches the assembled symbol e^{i g~_L}
    basis = BasisSpec.periodic_window(L, 6)

    def jump_symbol(x):
        x = np.asarray(x, dtype=float)
        sgn = np.where(x >= 0, 1.0, -1.0)
        return np.exp(1j * (prof.total_flux * sgn - prof.delta_L * x / L))

    assembled = assemble_toeplitz(jump_symbol, basis)
    assert float(np.max(np.abs(assembled.entries - m.entries))) < 1e-9


def test_overlap_det_bounded_by_one():
    a = gaussian_bump_with_flux(1.2)
    for N in (4, 16, 33):
        m = overlap_matrix(a, PER, N, max(8.0, N / 2))
        val = math.exp(2 * log_det(m).log_magnitude)
        assert -1e-12 <= val <= 1.0 + 1e-10


def test_c_ratio_consistency_identity(bump_quarter_pi):
    res = overlap_at(bump_quarter_pi, PER, 24, 12.0)
    expected = math.exp(2.0 * (res.logdet_exact.log_magnitude - res.logdet_flux.log_magnitude))
    assert_allclose(res.c_ratio, expected, rtol=1e-14)


def test_lemma_check_zero_potential_all_ones(zero_pot):
    rep = lemma_factorization_check(zero_pot, PER, [4, 8, 16], rho=1.0)
    assert_allclose([r.c_ratio for r in rep.results], 1.0, atol=1e-10)
    assert not rep.flagged and not rep.degenerate


def test_lemma_check_small_band(bump_quarter_pi):
    rep = lemma_factorization_check(bump_quarter_pi, PER, [16, 32, 64], rho=1.0)
    assert rep.max_ratio / rep.min_ratio < 1.5
    assert not rep.flagged
    assert "C ratio in" in rep.summary()


def test_lemma_check_rejects_small_L(bump_quarter_pi):
    with pytest.raises(DomainError):
        lemma_factorization_check(bump_quarter_pi, PER, [4], rho=1.0)  # L = 2 < support 4


def test_delta_bound_zero_potential(zero_pot):
    chk = delta_matrix_bound_check(zero_pot, PER, 8, 5.0)
    assert chk.trace_norm_delta == pytest.approx(0.0, abs=1e-11)
    assert chk.bound == 0.0
    assert chk.holds


def test_delta_bound_scales_with_density(bump_quarter_pi):
    # bound = (N/L) * weighted_l1 = 2 rho * weighted_l1, independent of N at fixed rho
    rho = 1.0
    chk1 = delta_matrix_bound_check(bump_quarter_pi, PER, 16, 16 / (2 * rho))
    chk2 = delta_matrix_bound_check(bump_quarter_pi, PER, 32, 32 / (2 * rho))
    assert_allclose(chk1.bound, chk2.bound, rtol=1e-12)
    assert chk1.holds and chk2.holds


def test_delta_bound_holds_both_bcs(bump_quarter_pi):
    for bc in (PER, DIR):
        chk = delta_matrix_bound_check(bump_quarter_pi, bc, 48, 24.0)
        assert chk.holds, (bc, chk)


def _delta_n(a, bc, N, L):
    return overlap_matrix(a, bc, N, L).entries - flux_matrix(a, bc, N, L).entries


# flux pi/4 has n_L = 0, flux 2.0 has n_L = 1 (the (-1)^{n_L} sign in Delta_N)
@pytest.mark.parametrize("N", [64, 256, 512])
@pytest.mark.parametrize(
    "flux, bc",
    [(math.pi / 4, PER), (2.0, PER), (2.0, DIR)],
    ids=["periodic-even-nL", "periodic-odd-nL", "dirichlet"],
)
def test_trace_norm_of_delta_matches_dense_svd(flux, bc, N):
    a = gaussian_bump_with_flux(flux)
    L = N / 2.0
    assert flux_profile(a, L).n_L == round(flux / math.pi)
    delta = _delta_n(a, bc, N, L)
    dense = np.linalg.svd(delta, compute_uv=False).sum()
    assert_allclose(trace_norm(delta), dense, rtol=1e-10)


def test_trace_norm_of_delta_is_deterministic():
    a = gaussian_bump_with_flux(2.0)
    delta = _delta_n(a, PER, 256, 128.0)
    first, second = trace_norm(delta), trace_norm(delta)
    assert first.hex() == second.hex()


def test_evaluate_point_builds_each_matrix_once(monkeypatch):
    calls = {"overlap_matrix": 0, "flux_matrix": 0}
    for name in calls:
        original = getattr(overlap_module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(overlap_module, name, counted)
    a = gaussian_bump_with_flux(2.0)
    for bc in (PER, DIR):
        for name in calls:
            calls[name] = 0
        evaluate_point(a, bc, 40, 20.0)
        assert calls == {"overlap_matrix": 1, "flux_matrix": 1}, bc


@pytest.mark.parametrize("bc", [PER, DIR])
def test_evaluate_point_equals_overlap_at_and_bound_check(bc):
    a = gaussian_bump_with_flux(2.0)
    point = evaluate_point(a, bc, 40, 20.0)
    assert point.overlap == overlap_at(a, bc, 40, 20.0)
    assert point.bound_check == delta_matrix_bound_check(a, bc, 40, 20.0)
    assert point.bound_check.trace_norm_delta == trace_norm(_delta_n(a, bc, 40, 20.0))


# -- symbol splitting ---------------------------------------------------------


def test_split_symbol_reconstruction_identity(bump_quarter_pi):
    L = 12.0
    split = periodic_split_symbols(bump_quarter_pi, L)
    xs = np.linspace(-L, L, 1001)  # includes x = 0 exactly
    lhs = split.difference(xs)
    rhs = split.reconstruction(xs)
    assert float(np.max(np.abs(lhs - rhs))) < 1e-12


def test_split_symbols_vanish_on_opposite_branches(bump_quarter_pi):
    split = periodic_split_symbols(bump_quarter_pi, 10.0)
    xneg = np.linspace(-10, -1e-9, 57)
    xpos = np.linspace(0.0, 10.0, 57)
    assert np.all(split.e_plus(xneg) == 0.0)
    assert np.all(split.f_plus(xneg) == 0.0)
    assert np.all(split.e_minus(xpos) == 0.0)
    assert np.all(split.f_minus(xpos) == 0.0)


def test_split_piece_trace_norm_bound(bump_quarter_pi):
    # || T_N(e^+) ||_1 <= (N / 2L) * int_0^L y |a(y)| dy
    L = 16.0
    N = 32
    split = periodic_split_symbols(bump_quarter_pi, L)
    basis = BasisSpec.periodic_window(L, N)
    m = assemble_toeplitz(lambda x: split.e_plus(x).astype(complex), basis, breakpoints=(-4.0, 4.0))
    tn = trace_norm(m)
    bound = N / (2 * L) * weighted_abs_moment(bump_quarter_pi, 0.0, L)
    assert tn <= bound + 1e-8
