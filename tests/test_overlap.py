from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import flux_catastrophe
from flux_catastrophe import cli
from flux_catastrophe.errors import DomainError, NumericalError
from flux_catastrophe.hilbert import dirichlet_flux_logdet, dirichlet_rest_sketch
from flux_catastrophe.matrixcore import fh_matrix, log_det, trace_norm
import flux_catastrophe.matrixcore as matrixcore_module
import flux_catastrophe.hilbert as hilbert_module
import flux_catastrophe.overlap as overlap_module
import flux_catastrophe.quadrature as quadrature_module
from flux_catastrophe.overlap import (
    delta_trace_norm,
    evaluate_point,
    flux_matrix,
    overlap_coefficients,
    overlap_matrix,
)
from flux_catastrophe.potential import (
    GaussianBump,
    PiecewiseLinear,
    flux_decomposition,
    flux_profile,
    gaussian_bump_with_flux,
    moment_integrals,
    potential_from_dict,
    potential_to_dict,
    weighted_abs_moment,
    zero_potential,
)
from flux_catastrophe.quadrature import cis_integral
from flux_catastrophe.spectrum import BoundaryCondition
import oracles as oracles_module
from oracles import (
    BasisSpec,
    assemble_toeplitz,
    dense_overlap_matrix,
    dirichlet_flux_entries,
    frobenius_deficit,
    half_fluxes,
    overlap_log_det_sq,
    sketch_trace_norm,
)

PER = BoundaryCondition.PERIODIC
DIR = BoundaryCondition.DIRICHLET


def test_zero_potential_gives_identity_overlap(zero_pot):
    for bc in (PER, DIR):
        m = overlap_matrix(flux_profile(zero_pot, 6.0), bc, 12)
        assert_allclose(m, np.eye(12), atol=1e-12)
        assert math.exp(2 * log_det(m)) == pytest.approx(1.0, abs=1e-12)


def test_periodic_overlap_2x2_vs_independent_quadrature():
    a = GaussianBump(center=0.2, width=0.5, amplitude=0.8, support_radius=4.0)
    L = 5.0
    prof = flux_profile(a, L)
    m = overlap_matrix(prof, PER, 2)

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
        assert abs(m[j, k] - entry(d)) < 1e-10


# features far below the wavelength: a 1e-4 segment among 4-wide ones, and a bump 1e-3 wide
SHORT_SEGMENT_KNOTS = PiecewiseLinear(((-4.0, 0.0), (0.0, 1.0), (1e-4, 1.0), (4.0, 0.0)))
NARROW_BUMP = gaussian_bump_with_flux(0.8, center=0.2, width=1e-3)


@pytest.mark.parametrize("margin", [0.0, 1.5])
@pytest.mark.parametrize("potential", ["sweep", "bump", "short-segment", "narrow-bump"])
def test_dirichlet_overlap_vs_independent_quadrature(potential, margin):
    # every entry (1/L) int sin(j y) sin(k y) e^{i Phi_L(x)} dx, y = pi (x + L) / 2L,
    # by scipy quad on the whole interval; margin 0 puts L on the support radius
    a = {"sweep": SWEEP_POTENTIALS[DIR], "bump": GaussianBump(0.2, 0.5, 0.8, 4.0),
         "short-segment": SHORT_SEGMENT_KNOTS, "narrow-bump": NARROW_BUMP}[potential]
    N = 3
    L = a.support_radius + margin
    prof = flux_profile(a, L)
    m = overlap_matrix(prof, DIR, N)
    pts = sorted({-a.support_radius, *a.breakpoints, 0.0, a.support_radius} - {-L, L})

    def entry(j, k):
        def integrand(x, part):
            y = math.pi * (x + L) / (2 * L)
            phi = float(prof.phi_at(np.array([x]))[0])
            return math.sin(j * y) * math.sin(k * y) * part(phi)

        re, im = (
            quad(integrand, -L, L, args=(part,), points=pts, limit=400, epsabs=1e-12)[0] for part in (math.cos, math.sin)
        )
        return (re + 1j * im) / L

    for j in range(1, N + 1):
        for k in range(1, N + 1):
            assert abs(m[j - 1, k - 1] - entry(j, k)) < 1e-10, (j, k)


@pytest.mark.parametrize("a", [SHORT_SEGMENT_KNOTS, NARROW_BUMP], ids=["short-segment", "narrow-bump"])
@pytest.mark.parametrize("refine", [0, 1])
def test_support_nodes_stay_within_the_wavelength_and_breakpoint_budget(monkeypatch, a, refine):
    # panels at most L / 4N wide (1/8 of 2L/N, a basis product's shortest
    # wavelength) with edges at a's breakpoints and at 0, where e^{i g~_L}
    # jumps; a short feature costs panels at its breakpoints only
    L, N = 64.0, 127
    R, nodes, weights = overlap_module.support_nodes(a, L, N, refine)
    width = weights.reshape(-1, 16).sum(axis=1)
    edges = np.append(nodes.reshape(-1, 16).mean(axis=1) - 0.5 * width, R)
    assert width.max() <= (1 + 1e-12) * L / (4 * N) / 2**refine
    for edge in {0.0, *a.breakpoints}:
        assert np.min(np.abs(edges - edge)) <= 1e-12 * R, edge
    panels = math.ceil(2 * R / (L / (4 * N))) + len(a.breakpoints) + 1
    assert len(nodes) == len(weights) <= 16 * 2**refine * panels
    assert abs(weights.sum() - 2 * R) <= 1e-12 * R
    # one sample of these nodes per basis feeds the coefficients and Delta_N alike
    asked = []
    nodes_at = overlap_module.support_nodes
    monkeypatch.setattr(overlap_module, "support_nodes", lambda *args: asked.append(args) or nodes_at(*args))
    prof = flux_profile(a, L)
    for periodic in (True, False):
        overlap_module._support_sampler(prof, periodic, N)(refine)
    assert asked == [(a, L, N, refine)] * 2


def test_dirichlet_single_state_unimodularity():
    a = gaussian_bump_with_flux(0.8)
    m = overlap_matrix(flux_profile(a, 6.0), DIR, 1)
    assert abs(m[0, 0]) <= 1.0 + 1e-12
    assert abs(m[0, 0]) < 1.0  # flux varies over the support of phi_1^2
    z = overlap_matrix(flux_profile(zero_potential(), 6.0), DIR, 1)
    assert abs(z[0, 0]) == pytest.approx(1.0, abs=1e-13)


def test_overlap_requires_support_inside_interval():
    a = gaussian_bump_with_flux(0.5)  # support radius 4
    with pytest.raises(DomainError):
        overlap_matrix(flux_profile(a, 3.0), PER, 8)
    for bc in (PER, DIR):
        with pytest.raises(DomainError):
            evaluate_point(a, bc, 8, 3.0)


@pytest.mark.parametrize("N", [0, -1])
@pytest.mark.parametrize("bc", [PER, DIR])
def test_flux_matrix_rejects_n_below_one(bc, N):
    with pytest.raises(DomainError, match="N must be >= 1"):
        flux_matrix(0.5, bc, N)


def test_flux_matrix_zero_flux_identity(zero_pot):
    for bc in (PER, DIR):
        m = flux_matrix(flux_profile(zero_pot, 5.0).total_flux, bc, 9)
        assert_allclose(m, np.eye(9), atol=1e-15)


def test_dirichlet_flux_entry_example():
    # j = 1, k = 2, Phi = pi/4: (2i/pi) sin(pi/4) [sin(3 pi/2) / 3 - sin(-pi/2) / (-1)]
    m = flux_matrix(math.pi / 4, DIR, 4)
    expected = -2j / math.pi * math.sin(math.pi / 4) * (1.0 / 3.0 + 1.0)
    assert_allclose(m[0, 1], expected, rtol=1e-15)
    # parity-even pairs vanish off the diagonal
    assert m[0, 2] == 0.0 and m[1, 3] == 0.0
    assert_allclose(np.diag(m), math.cos(math.pi / 4), rtol=1e-15)


@pytest.mark.parametrize("total_flux", [math.pi / 2, -math.pi / 2, 3 * math.pi / 2])
def test_dirichlet_flux_matrix_is_singular_at_delta_pi_over_2_for_odd_n(total_flux):
    # delta_L = pi/2: the diagonal is exactly 0 and only opposite parities couple,
    # and for odd N the odd indices outnumber the even ones
    for N in (1, 3, 5, 7, 9, 65, 181):
        m = flux_matrix(total_flux, DIR, N)
        assert np.all(np.diag(m) == 0.0), N
        assert log_det(m) == -math.inf, N


def test_periodic_flux_matrix_det_2x2():
    delta = math.pi / 4
    m = flux_matrix(flux_profile(gaussian_bump_with_flux(delta), 4.0).total_flux, PER, 2)
    s = fh_matrix(delta, 2)
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    assert_allclose(math.exp(log_det(m)), abs(det), rtol=1e-13)


def test_periodic_flux_matrix_sign_for_odd_n_L():
    # total flux 2.9 -> n_L = 1, delta = 2.9 - pi < 0; symbol picks up (-1)^{n_L}
    a = gaussian_bump_with_flux(2.9)
    L = 6.0
    prof = flux_profile(a, L)
    assert prof.n_L == 1
    m = flux_matrix(prof.total_flux, PER, 6)
    assert_allclose(m, -fh_matrix(prof.delta_L, 6), atol=0)
    # and the closed form matches the assembled symbol e^{i g~_L}
    basis = BasisSpec.periodic_window(L, 6)

    def jump_symbol(x):
        x = np.asarray(x, dtype=float)
        sgn = np.where(x >= 0, 1.0, -1.0)
        return np.exp(1j * (prof.total_flux * sgn - prof.delta_L * x / L))

    assembled = assemble_toeplitz(jump_symbol, basis)
    assert float(np.max(np.abs(assembled - m))) < 1e-9


def test_overlap_det_bounded_by_one():
    a = gaussian_bump_with_flux(1.2)
    for N in (4, 16, 33):
        m = overlap_matrix(flux_profile(a, max(8.0, N / 2)), PER, N)
        val = math.exp(2 * log_det(m))
        assert -1e-12 <= val <= 1.0 + 1e-10


def test_c_ratio_consistency_identity(bump_quarter_pi):
    res = evaluate_point(bump_quarter_pi, PER, 24, 12.0)
    assert_allclose(res.c_ratio, math.exp(res.log_D_sq - res.log_Dtilde_sq), rtol=1e-14)


# the factorization lemma's band gate runs as the CLI's lemma_check experiment
def _lemma_check(tmp_path, potential: dict, n_grid: list[int]):
    config = tmp_path / "lemma.json"
    config.write_text(json.dumps({"experiment": "lemma_check", "potential": potential, "rho": 1.0, "n_grid": n_grid}))
    out = tmp_path / "out"
    code = cli.main(["run", str(config), "--out", str(out)])
    csv = out / "lemma_check.csv"
    if not csv.exists():
        return code, None
    header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    return code, [float(row[header.index("C_ratio")]) for row in rows]


def test_lemma_check_zero_potential_all_ones(tmp_path, capsys):
    code, ratios = _lemma_check(tmp_path, {"kind": "zero"}, [4, 8, 16])
    assert code == cli.EXIT_OK
    assert_allclose(ratios, 1.0, atol=1e-10)
    assert "band ok" in capsys.readouterr().out


def test_lemma_check_small_band(tmp_path, capsys):
    # the potential spec of the bump_quarter_pi fixture
    code, ratios = _lemma_check(tmp_path, {"kind": "gaussian_bump", "total_flux": math.pi / 4}, [16, 32, 64])
    assert code == cli.EXIT_OK
    assert max(ratios) / min(ratios) < 1.5
    out = capsys.readouterr().out
    assert out.startswith("lemma_check: 3 points, C in [") and "band ok" in out


def test_lemma_check_rejects_small_L(tmp_path, capsys):
    code, ratios = _lemma_check(tmp_path, {"kind": "gaussian_bump", "total_flux": math.pi / 4}, [4])
    assert code == cli.EXIT_CONFIG_OR_NUMERICAL  # L = 2 < support 4
    assert ratios is None
    assert "smaller than the support radius" in capsys.readouterr().err


def test_delta_bound_zero_potential(zero_pot):
    chk = evaluate_point(zero_pot, PER, 8, 5.0)
    assert chk.trace_norm_delta == pytest.approx(0.0, abs=1e-11)
    assert chk.bound == 0.0
    assert chk.bound_holds


def test_delta_bound_scales_with_density(bump_quarter_pi):
    # bound = (N/L) * weighted_l1 = 2 rho * weighted_l1, independent of N at fixed rho
    rho = 1.0
    chk1 = evaluate_point(bump_quarter_pi, PER, 16, 16 / (2 * rho))
    chk2 = evaluate_point(bump_quarter_pi, PER, 32, 32 / (2 * rho))
    assert_allclose(chk1.bound, chk2.bound, rtol=1e-12)
    assert chk1.bound_holds and chk2.bound_holds


def test_delta_bound_holds_both_bcs(bump_quarter_pi):
    for bc in (PER, DIR):
        chk = evaluate_point(bump_quarter_pi, bc, 48, 24.0)
        assert chk.bound_holds, (bc, chk)


def _delta_n(a, bc, N, L):
    prof = flux_profile(a, L)
    return overlap_matrix(prof, bc, N) - flux_matrix(prof.total_flux, bc, N)


def _delta_coefficients(a, bc, N, L):
    prof = flux_profile(a, L)
    return overlap_coefficients(prof, bc, N) - overlap_module.flux_coefficients(prof.total_flux, bc, N)


def _dense_delta_trace_norm(a, bc, N, L):
    """The SVD of Delta_N assembled from the coefficient difference."""
    dc = _delta_coefficients(a, bc, N, L)
    return np.linalg.svd(overlap_module._assemble(dc, N, bc is PER), compute_uv=False).sum()


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
    dense = np.linalg.svd(_delta_n(a, bc, N, L), compute_uv=False).sum()
    prof = flux_profile(a, L)
    assert_allclose(delta_trace_norm(prof, bc, N), dense, rtol=1e-10)


def _recording_core(monkeypatch):
    """Record the p of every core delta_trace_norm builds, one per refine from 0 up (none on the dense path)."""
    calls = []
    core = overlap_module._delta_core

    def recording(prof, periodic, N, y, m):
        calls.append(len(y) // 2)
        return core(prof, periodic, N, y, m)

    monkeypatch.setattr(overlap_module, "_delta_core", recording)
    return calls


@pytest.mark.parametrize("bc", [PER, DIR])
def test_matrix_free_trace_norm_matches_dense_svd_at_every_bench_n(monkeypatch, bc):
    # N = 128 .. 2048, odd N = 181 included: the p x p core against the
    # dense SVD of the assembled Delta_N.  Every bench point takes the core
    # at p = 48 (kappa = 4 pi for the bump, 3 pi for the knots), and the
    # refinement halves its panels only
    calls = _recording_core(monkeypatch)
    a = SWEEP_POTENTIALS[bc]
    for N in _bench_grid(bc):
        dense = _dense_delta_trace_norm(a, bc, N, N / 2.0)
        prof = flux_profile(a, N / 2.0)
        calls.clear()
        assert_allclose(delta_trace_norm(prof, bc, N), dense, rtol=1e-10, err_msg=str(N))
        assert calls == [48, 48], N


WIDE_BUMP = GaussianBump(0.0, 2.0, 1.0, 12.0)


# (potential, N, L): a support of radius 12 at rho = 2 (kappa = 24 pi, p = 128), L
# at the support radius (the Gram matrices' arguments reach +-2 pi and +-pi), and
# delta_L = pi/2, where the Dirichlet jump matrix is singular for odd N
CORE_CASES = {
    "wide-support": (WIDE_BUMP, 512, 128.0),
    "L-equals-R": (gaussian_bump_with_flux(2.0), 64, 4.0),
    "flux-pi-over-2": (gaussian_bump_with_flux(math.pi / 2), 513, 256.5),
}


@pytest.mark.parametrize("case", CORE_CASES)
@pytest.mark.parametrize("bc", [PER, DIR])
def test_delta_core_matches_dense_svd_at_the_edges(bc, case):
    a, N, L = CORE_CASES[case]
    prof = flux_profile(a, L)
    y, _, m = overlap_module._support_sampler(prof, bc is PER, N)(1)
    core = trace_norm(*overlap_module._delta_core(prof, bc is PER, N, y, m))
    assert_allclose(core, _dense_delta_trace_norm(a, bc, N, L), rtol=1e-10)
    # delta_trace_norm takes the core unless N <= 3p/2 (L = R here; then Delta_N is dense)
    assert_allclose(delta_trace_norm(prof, bc, N), core, rtol=1e-10)


@pytest.mark.parametrize("N", [8192, 2**15])
@pytest.mark.parametrize("bc", [PER, DIR])
def test_delta_trace_norm_matches_the_sketch_oracle_at_large_n(bc, N):
    # N x N arrays are out of reach here; the oracle compresses Delta_N by a
    # 32-column Gaussian sketch applied by np.fft convolutions of c - c~
    prof = flux_profile(SWEEP_POTENTIALS[bc], N / 2.0)
    c = overlap_coefficients(prof, bc, N)
    oracle = sketch_trace_norm(c - overlap_module.flux_coefficients(prof.total_flux, bc, N), N, bc is PER)
    assert_allclose(delta_trace_norm(prof, bc, N), oracle, rtol=1e-10)


@pytest.mark.parametrize("bc", [PER, DIR])
def test_delta_trace_norm_peak_memory_does_not_grow_with_n(bc):
    # the quadrature nodes and the Chebyshev points depend on rho and the
    # support alone, so N = 2^15 takes no more memory than N = 2^12
    peaks = []
    a = SWEEP_POTENTIALS[bc]
    for N in (2**12, 2**12, 2**15):  # the first call warms the cached quadrature rule
        prof = flux_profile(a, N / 2.0)
        tracemalloc.start()
        try:
            delta_trace_norm(prof, bc, N)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.01 * peaks[1], peaks


@pytest.mark.parametrize("bc", [PER, DIR])
def test_delta_trace_norm_is_relative_for_a_weak_potential(bc):
    # Delta_N is linear in a weak potential to first order, and the symbol
    # difference is taken as 2i sin(d/2) e^{...}, accurate relative to its
    # size: at flux 1e-12 the result is 1e-6 of that at flux 1e-6, on the
    # dense side of the fork (N = 64 <= 3p/2 = 72) as on the core's (N = 256)
    for N in (64, 256):
        tn = {f: delta_trace_norm(flux_profile(gaussian_bump_with_flux(f), N / 2.0), bc, N) for f in (1e-12, 1e-6)}
        assert_allclose(1e6 * tn[1e-12], tn[1e-6], rtol=1e-9, err_msg=str(N))


@pytest.mark.parametrize("flux", [2.0, 1e-12])
@pytest.mark.parametrize("bc", [PER, DIR])
def test_delta_trace_norm_rejects_a_core_that_moves_under_doubling(monkeypatch, bc, flux):
    # the core's panels starved to one midpoint node each: _MAX_REFINE = 4
    # halvings still leave the midpoint rule far from settled; the check is
    # relative, so it also rejects the weak potential, whose change an
    # absolute 1e-10 would pass
    prof = flux_profile(gaussian_bump_with_flux(flux), 128.0)
    monkeypatch.setattr(overlap_module, "gauss_legendre_rule", lambda npts: quadrature_module.gauss_legendre_rule(1))
    with pytest.raises(NumericalError) as info:
        delta_trace_norm(prof, bc, 256)
    assert info.value.context["achieved"] > info.value.context["requested"] > 0.0


@pytest.mark.parametrize("kappa", [0.0, 0.5, math.pi, 4 * math.pi, 24 * math.pi, 100.0, 400.0, 1000.0])
def test_chebyshev_size_interpolates_the_phase_to_its_bound(kappa):
    # the a-priori rule every Chebyshev interpolation rests on, with no
    # run-time check behind it: e^{i kappa t} from its values at the p
    # first-kind points of [-1, 1] is within 1e-13 of itself, up to the p eps
    # rounding of a p-term barycentric sum (Higham, IMA J. Numer. Anal. 24,
    # 2004), which also covers the rounding of kappa t as p > kappa
    p = overlap_module._chebyshev_size(kappa)
    assert p % 16 == 0 and p > kappa
    # so the 2p points of Delta_N's core also interpolate the coefficients' e^{i 2 kappa t}
    assert overlap_module._chebyshev_size(2 * kappa) <= 2 * p
    t = np.linspace(-1.0, 1.0, 4001)
    kernel, total = overlap_module._barycentric(t, 1.0, p)
    interpolant = kernel @ np.exp(1j * kappa * overlap_module._chebyshev_points(1.0, p)) / total
    assert np.max(np.abs(interpolant - np.exp(1j * kappa * t))) <= 1e-13 + p * np.finfo(float).eps


@pytest.mark.parametrize("N", [256, 1024])
@pytest.mark.parametrize("flux", [100.0, 150.0])
@pytest.mark.parametrize("bc", [PER, DIR])
def test_narrow_strong_bump_settles_to_the_dense_svd(monkeypatch, bc, flux, N):
    # e^{i Phi_L} turns once every 0.016 or so across a bump 0.1 wide with
    # flux 100; the panels' phase-rate cap pi / (4 max|a|) resolves it, so
    # the core of one p settles after one halving, as on the bench
    calls = _recording_core(monkeypatch)
    a = gaussian_bump_with_flux(flux, width=0.1)
    point = evaluate_point(a, bc, N, N / 2.0)
    assert_allclose(point.trace_norm_delta, _dense_delta_trace_norm(a, bc, N, N / 2.0), rtol=1e-10)
    assert calls == [48, 48]


@pytest.mark.parametrize("bc", [PER, DIR])
def test_phase_rate_caps_the_panels_of_a_strong_narrow_bump(bc):
    # flux 1200 on a bump 0.1 wide turns e^{i Phi_L} about every 0.0013,
    # and panels L / 4N = 0.125 wide stayed 0.0078 wide after _MAX_REFINE
    # halvings: the quadrature raised.  Capped at pi / (4 max|a|) on each
    # gap, it settles, and matches LU and the SVD of the dense oracle matrix
    a = gaussian_bump_with_flux(1200.0, width=0.1)
    N, L = 256, 128.0
    point = evaluate_point(a, bc, N, L)
    dense = dense_overlap_matrix(a, bc is PER, N, L, refine=1)
    # the certificate's 1e-10 and the 1e-10 entry check through LU
    assert abs(point.log_D_sq - 2.0 * log_det(dense)) <= 1e-9
    delta = dense - flux_matrix(flux_profile(a, L).total_flux, bc, N)
    assert_allclose(point.trace_norm_delta, np.linalg.svd(delta, compute_uv=False).sum(), rtol=1e-10)


@pytest.mark.parametrize(
    "a",
    [
        gaussian_bump_with_flux(1200.0, width=0.1),
        PiecewiseLinear(((-2.0, 0.0), (-0.5, 300.0), (0.0, 80.0), (1.0, 0.0))),
    ],
    ids=["bump", "piecewise-linear"],
)
def test_support_nodes_cap_each_gap_at_the_phase_rate(a):
    # every panel is at most min(L / 4N, pi / (4 max|a|)) wide, max|a| taken
    # over the gap between breakpoints it lies in: an eighth of the shortest
    # wavelength of a basis product and of e^{i Phi_L}
    L, N = 64.0, 128
    R, nodes, weights = overlap_module.support_nodes(a, L, N, 0)
    width = weights.reshape(-1, 16).sum(axis=1)
    lo = nodes.reshape(-1, 16).mean(axis=1) - 0.5 * width
    gaps = np.unique([-R, R, 0.0, *[b for b in a.breakpoints if -R < b < R]])
    gap = np.searchsorted(gaps, lo + 0.5 * width) - 1
    with np.errstate(divide="ignore"):  # a gap where a vanishes has no phase cap
        cap = np.minimum(L / (4 * N), np.pi / (4 * a.peak(gaps[gap], gaps[gap + 1])))
    assert np.all(width <= cap * (1 + 1e-12))
    assert width.min() < 0.5 * L / (4 * N)  # the cap binds somewhere
    assert abs(weights.sum() - 2 * R) <= 1e-12 * R


def test_trace_norm_of_delta_is_deterministic():
    for bc in (PER, DIR):
        prof = flux_profile(SWEEP_POTENTIALS[bc], 128.0)
        first, second = delta_trace_norm(prof, bc, 256), delta_trace_norm(prof, bc, 256)
        assert first.hex() == second.hex(), bc


def test_evaluate_point_builds_each_matrix_once(monkeypatch):
    # the flux profile once and one support sample (nodes and one Chebyshev
    # contraction) per refine level, 0 and 1, which every driver shares.  In
    # both bases C_{N,L} needs no coefficient vector of the overlap matrix,
    # only G = V F^{-1} V^H (V^T, Dirichlet) once and the p x p core per
    # refine level, which ||Delta_N||_1 reuses.  At N = 128 ||Delta_N||_1 is
    # the core's and no matrix is assembled; at N = 40 <= 3p/2 the dense SVD
    # assembles Delta_N once from its own coefficients, not from the jump
    # symbol's.  A Dirichlet point runs one parity sketch (one Ritz engine
    # run), whose Q and R give both its jump log-det and G; a periodic point
    # runs none
    names = ("overlap_coefficients", "flux_coefficients", "flux_profile", "overlap_matrix", "flux_matrix",
             "_assemble", "support_nodes", "_chebyshev_contract", "_delta_core", "_jump_inverse_gram",
             "dirichlet_rest_sketch")
    calls = {name: 0 for name in names + ("ritz_sketch",)}
    for module, name in [(overlap_module, name) for name in names] + [(hilbert_module, "ritz_sketch")]:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    a = gaussian_bump_with_flux(2.0)
    for N, dense in ((40, 1), (128, 0)):
        for bc in (PER, DIR):
            for name in calls:
                calls[name] = 0
            evaluate_point(a, bc, N, N / 2.0)
            sketches = int(bc is DIR)
            assert calls == {"overlap_coefficients": 0, "flux_coefficients": 0, "flux_profile": 1,
                             "overlap_matrix": 0, "flux_matrix": 0, "_assemble": dense, "support_nodes": 2,
                             "_chebyshev_contract": 2, "_delta_core": 2, "_jump_inverse_gram": 1,
                             "dirichlet_rest_sketch": sketches, "ritz_sketch": sketches}, (N, bc)


@pytest.mark.parametrize("bc", [PER, DIR])
def test_evaluate_point_factors_no_complex_matrix_but_the_overlap(monkeypatch, bc):
    # no matrix is factored at all: both jump log-dets come from (delta_L, N),
    # and |D| from one SVD of the p x p matrix I + C G in either basis
    def no_lu(*args, **kwargs):
        raise AssertionError("dense LU in evaluate_point")

    monkeypatch.setattr(matrixcore_module, "log_det", no_lu)
    monkeypatch.setattr(np.linalg, "slogdet", no_lu)
    monkeypatch.setattr(np.linalg, "det", no_lu)
    point = evaluate_point(gaussian_bump_with_flux(2.0), bc, 40, 20.0)
    assert math.isfinite(point.log_D_sq)


@pytest.mark.parametrize("bc", [PER, DIR])
def test_evaluate_point_matches_each_quantity_built_directly(bc):
    a = gaussian_bump_with_flux(2.0)
    point = evaluate_point(a, bc, 40, 20.0)
    prof = flux_profile(a, 20.0)
    assert (point.delta_L, point.n_L) == (prof.delta_L, prof.n_L)
    # |D| is certified to 1e-10 without a factorization; dense LU is its oracle
    assert abs(point.log_D_sq - 2.0 * log_det(overlap_matrix(prof, bc, 40))) <= 1e-10
    # the jump log-det is the O(N) Cauchy sum (periodic) or the parity reduction
    # (Dirichlet); dense LU of the closed-form jump matrix is its oracle
    dense = flux_matrix(prof.total_flux, bc, 40)
    assert abs(point.log_Dtilde_sq - 2.0 * log_det(dense)) <= 2e-13
    # C_{N,L} is |det(I + C G)|^2 itself, and log|D|^2 = log|D~|^2 + log C_{N,L}
    assert_allclose(point.c_ratio, math.exp(point.log_D_sq - point.log_Dtilde_sq), rtol=1e-14)
    # at N = 40 <= 3p/2 Delta_N is assembled from its own coefficients, which
    # at flux 2 agree with the difference of the two matrices to rounding
    assert point.trace_norm_delta == delta_trace_norm(prof, bc, 40)
    dense_tn = np.linalg.svd(_delta_n(a, bc, 40, 20.0), compute_uv=False).sum()
    assert_allclose(point.trace_norm_delta, dense_tn, rtol=1e-13)
    assert point.bound == 40 / 20.0 * moment_integrals(a, 20.0)
    assert point.bound_holds == (point.trace_norm_delta <= point.bound + 1e-8)


@pytest.mark.parametrize("bc", [PER, DIR])
def test_evaluate_point_of_the_zero_potential_is_exactly_one(bc):
    # the core is exactly zero, so the Sylvester matrix is I and its SVD gives
    # log|D|^2 = 0.0 and C = 1 exactly
    point = evaluate_point(zero_potential(), bc, 64, 32.0)
    assert (point.log_D_sq, point.log_Dtilde_sq, point.c_ratio) == (0.0, 0.0, 1.0)


# -- factored build from O(N) verified coefficients ---------------------------

# the potentials of the benchmark's two overlap sweeps
SWEEP_POTENTIALS = {
    PER: gaussian_bump_with_flux(2.0),
    DIR: potential_from_dict(
        {
            "kind": "piecewise_linear",
            "knots": [[-3, 0], [-1.5, 0.6], [0, 1.2], [0.5, 0.3], [2.5, 0]],
            "support_radius": 3,
        }
    ),
}


def test_dirichlet_sweep_jump_logdet_matches_lu_at_every_bench_n():
    # the Dirichlet sweep's |D~| is the parity reduction at delta_L = 1.2375 for
    # N = 128 .. 2048, odd N = 181 included; dense LU is its oracle
    a = SWEEP_POTENTIALS[DIR]
    for N in _bench_grid(DIR):
        prof = flux_profile(a, N / 2.0)
        dense = log_det(flux_matrix(prof.total_flux, DIR, N))
        assert abs(dirichlet_flux_logdet(prof.delta_L, N) - dense) <= 1e-10, N


def _coefficients(a, bc, N, L, refine):
    prof = flux_profile(a, L)
    y, u, _ = overlap_module._support_sampler(prof, bc is PER, N)(refine)
    return overlap_module._support_coefficients(prof, bc is PER, N, y, u, symbol=True)


def _assemble(bc, coefficients, N):
    return overlap_module._assemble(coefficients, N, bc is PER)


# coefficients in one entry: t_{j-k} (periodic) or c_{|j-k|} - c_{j+k} (Dirichlet)
_PER_ENTRY = {PER: 1.0, DIR: 2.0}


def _first_change_bound(a, bc, N, L, builds=None):
    """The entry-change bound of overlap_matrix's refine-0 / refine-1
    comparison; ``builds`` replaces the two coefficient vectors it compares."""
    with pytest.MonkeyPatch.context() as patch:
        # a negative tolerance settles no comparison, so the error carries the first change
        patch.setattr(overlap_module, "_QUADRATURE_TOL", -1.0)
        patch.setattr(quadrature_module, "_MAX_REFINE", 1)
        if builds is not None:
            built = iter(builds)  # the driver builds refine 0, then refine 1
            patch.setattr(overlap_module, "_support_coefficients", lambda *args, **kwargs: next(built))
        with pytest.raises(NumericalError) as info:
            overlap_matrix(flux_profile(a, L), bc, N)
    # the driver reports the largest coefficient change; an entry holds _PER_ENTRY of them
    return _PER_ENTRY[bc] * info.value.context["achieved"]


@pytest.mark.parametrize("M", [1, 2, 7, 64, 4095])
@pytest.mark.parametrize("shift", ["zero", "negative"])
def test_phase_sums_match_dense_exponentials(M, shift):
    rng = np.random.default_rng(M)
    m0 = 0 if shift == "zero" else -M
    h = math.pi / max(M / 2, 4.0)  # the periodic spacing pi / L on the path L = N / 2
    nodes = rng.uniform(-4.0, 4.0, 300)
    values = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    got = overlap_module._phase_sums(h, m0, M, nodes, values)
    expected = np.exp(1j * np.outer(h * (m0 + np.arange(M)), nodes)) @ values
    assert got.shape == (M,)
    assert float(np.max(np.abs(got - expected))) <= 1e-14 * float(np.max(np.abs(expected)))


@pytest.mark.parametrize("N", [1, 2, 3, 64, 181])
@pytest.mark.parametrize("bc", [PER, DIR])
def test_overlap_matrix_matches_dense_reference(bc, N):
    for a in (gaussian_bump_with_flux(2.0), SWEEP_POTENTIALS[DIR]):
        L = max(N / 2.0, a.support_radius)
        m = overlap_matrix(flux_profile(a, L), bc, N)
        assert m.flags.c_contiguous and m.flags.writeable
        assert_allclose(m, dense_overlap_matrix(a, bc is PER, N, L, refine=1), rtol=0, atol=1e-14)


@pytest.mark.parametrize("N", [1, 2, 7, 64])
@pytest.mark.parametrize("total_flux", [0.0, math.pi / 4, 2.0, -1.1])
def test_dirichlet_flux_closed_form_matches_mask_formula(total_flux, N):
    # the sine-basis entries written one at a time, with integer parity signs
    got = flux_matrix(total_flux, DIR, N)
    assert_allclose(got, dirichlet_flux_entries(total_flux, N), rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [1, 2, 7, 16])
@pytest.mark.parametrize("total_flux", [0.0, math.pi / 4, 2.0, -1.1, 3 * math.pi / 2])
def test_dirichlet_flux_matrix_matches_jump_symbol_quadrature(total_flux, N):
    # <phi_j, e^{i Phi sign x} phi_k> in the sine basis by the panel oracle,
    # which shares neither the cosine coefficients nor the assembly
    def jump_symbol(x):
        return np.exp(1j * total_flux * np.where(np.asarray(x) >= 0.0, 1.0, -1.0))

    reference = assemble_toeplitz(jump_symbol, BasisSpec.dirichlet_window(3.0, N))
    assert float(np.max(np.abs(flux_matrix(total_flux, DIR, N) - reference))) <= 1e-12


def _perturbed_pair(rng, size):
    """A random coarse coefficient vector and a refinement that moves it by ~1e-6."""
    coarse = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return coarse, coarse + 1e-6 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


@pytest.mark.parametrize("N", [1, 2, 7, 64])
def test_periodic_quadrature_check_equals_entrywise_change(N):
    a = GaussianBump(center=0.2, width=0.5, amplitude=0.8, support_radius=4.0)
    L = max(N / 2.0, 4.0)
    builds = [tuple(_coefficients(a, PER, N, L, r) for r in (0, 1))]
    builds.append(_perturbed_pair(np.random.default_rng(N), 2 * N - 1))
    for coarse, fine in builds:
        entrywise = float(np.max(np.abs(_assemble(PER, fine, N) - _assemble(PER, coarse, N))))
        assert _first_change_bound(a, PER, N, L, (coarse, fine)) == entrywise


@pytest.mark.parametrize("N", [1, 2, 7, 64])
def test_dirichlet_quadrature_check_bounds_entrywise_change(N):
    # random coefficients, so that the change stands far above the assembly's
    # rounding (the quadrature builds agree to ~1e-16 already at refine 0)
    L = max(N / 2.0, 3.0)
    coarse, fine = _perturbed_pair(np.random.default_rng(N), 2 * N + 1)
    entrywise = float(np.max(np.abs(_assemble(DIR, fine, N) - _assemble(DIR, coarse, N))))
    bound = _first_change_bound(SWEEP_POTENTIALS[DIR], DIR, N, L, (coarse, fine))
    assert bound >= entrywise


@pytest.mark.parametrize("bc", [PER, DIR])
def test_unsettled_quadrature_raises_with_achieved_error(bc, monkeypatch):
    monkeypatch.setattr(overlap_module, "_QUADRATURE_TOL", 1e-30)
    monkeypatch.setattr(quadrature_module, "_MAX_REFINE", 2)
    with pytest.raises(NumericalError) as info:
        overlap_matrix(flux_profile(gaussian_bump_with_flux(2.0), 8.0), bc, 16)
    # the driver works in coefficient units; every |c| <= 1, so its max(1, |c|) floor is 1
    assert _PER_ENTRY[bc] * info.value.context["requested"] == 1e-30
    assert _PER_ENTRY[bc] * info.value.context["achieved"] > 1e-30


def _bench_grid(bc) -> list[int]:
    """The N grid of the benchmark's periodic or Dirichlet overlap sweep."""
    config = Path(__file__).resolve().parents[1] / "bench" / "configs" / f"sweep_{bc.value}.json"
    return json.loads(config.read_text())["n_grid"]


@pytest.mark.parametrize("bc", [PER, DIR])
def test_overlap_log_det_matches_lu_at_every_bench_n(bc):
    # N = 128 .. 2048, odd N = 181 included: the grid point's Sylvester
    # log|D|^2 and the oracles' certified Rayleigh-Ritz sum against LU of the
    # assembled matrix of the verified coefficients
    a = SWEEP_POTENTIALS[bc]
    for N in _bench_grid(bc):
        c = overlap_coefficients(flux_profile(a, N / 2.0), bc, N)
        dense = 2.0 * log_det(overlap_module._assemble(c, N, bc is PER))
        assert abs(evaluate_point(a, bc, N, N / 2.0).log_D_sq - dense) <= 1e-10, N
        assert abs(overlap_log_det_sq(c, bc, N) - dense) <= 1e-10, N


@pytest.mark.parametrize("flux", [1.58, 1.6, 1.65])
def test_overlap_log_det_certifies_just_above_flux_pi_over_2(flux):
    # delta_L = flux - pi near -pi/2 leaves sigma_min(A) about 5e-3: a
    # rounding of order eps / sigma_min^2 would exceed the 1e-10 budget here.
    # The grid point takes the periodic C_{N,L} from the p x p Sylvester
    # determinant, the Ritz sum on the coefficients is its oracle
    a = gaussian_bump_with_flux(flux)
    for N in (2048, 8192):
        prof = flux_profile(a, N / 2.0)
        point = evaluate_point(a, PER, N, N / 2.0)
        assert point.n_L == 1 and point.delta_L < -1.49
        ritz = overlap_log_det_sq(overlap_coefficients(prof, PER, N), PER, N)
        assert abs(point.log_D_sq - ritz) <= 2e-10, (flux, N, point.log_D_sq - ritz)
        if N == 2048:
            dense = 2.0 * log_det(overlap_matrix(prof, PER, N))
            assert abs(point.log_D_sq - dense) <= 1e-10, (flux, point.log_D_sq - dense)
            assert abs(ritz - dense) <= 1e-10, (flux, ritz - dense)


def test_overlap_log_det_is_bit_identical_on_repeat():
    for bc in (PER, DIR):
        c = overlap_coefficients(flux_profile(SWEEP_POTENTIALS[bc], 90.5), bc, 181)
        assert overlap_log_det_sq(c, bc, 181).hex() == overlap_log_det_sq(c, bc, 181).hex(), bc


# -- the periodic C_{N,L} as a p x p Sylvester determinant -----------------------


@pytest.mark.parametrize("N", [1, 2, 5, 64, 2048])
@pytest.mark.parametrize("flux", [math.pi / 4, math.pi / 2, math.pi / 2 + 1e-12, 2.0, math.pi + 2e-8, 2 * math.pi + 0.5])
def test_jump_inverse_matches_the_dense_inverse(flux, N):
    # the closed-form Cauchy inverse diag(a) T(t) diag(b) of the periodic jump
    # matrix against LAPACK's inverse, delta_L = pi/2 and -pi/2 + 1e-12, a
    # delta_L of 2e-8 and n_L = 0, 1 and 2 included
    n_L, delta = flux_decomposition(flux)
    left, right, t = overlap_module._jump_inverse(delta, n_L, N)
    closed = left[:, None] * matrixcore_module.toeplitz(t, N) * right
    dense = np.linalg.inv(flux_matrix(flux, PER, N))
    assert np.max(np.abs(closed - dense)) <= 5e-13 * np.max(np.abs(dense)), np.max(np.abs(closed - dense))


# (flux, N): delta_L = 0 (flux pi), pi/2, -pi/2 + 1e-12 and 2e-8, the near-singular
# flux-1.58 and flux-1.6 bumps, n_L = 0, 1 and 2, each on N = 40 < p = 48 and N = 256 > 2p
SYLVESTER_CASES = [
    (flux, N)
    for flux in (math.pi, math.pi / 2, math.pi / 2 + 1e-12, math.pi + 2e-8, 1.58, 1.6, 0.7, 2.0, 2 * math.pi + 0.5)
    for N in (40, 256)
]


@pytest.mark.parametrize("flux, N", SYLVESTER_CASES)
def test_sylvester_log_det_matches_lu(flux, N):
    a = gaussian_bump_with_flux(flux)
    prof = flux_profile(a, N / 2.0)
    point = evaluate_point(a, PER, N, N / 2.0)
    dense = 2.0 * log_det(overlap_matrix(prof, PER, N))
    assert abs(point.log_D_sq - dense) <= 1e-10, point.log_D_sq - dense
    assert_allclose(point.c_ratio, math.exp(dense - 2.0 * log_det(flux_matrix(prof.total_flux, PER, N))), rtol=1e-10)


def test_sylvester_gram_at_delta_zero_is_the_signed_basis_gram():
    # F = (-1)^{n_L} I at delta_L = 0, so G is the Gram matrix of the core, signed
    for flux, sign in ((0.0, 1.0), (math.pi, -1.0), (2 * math.pi, 1.0)):
        prof = flux_profile(gaussian_bump_with_flux(flux), 64.0)
        assert prof.delta_L == 0.0
        points = overlap_module._chebyshev_points(4.0, 48)
        basis = np.exp(-1j * np.pi / 64.0 * np.outer(points, np.arange(128) - 63.5))
        assert_allclose(overlap_module._jump_inverse_gram(prof, True, 128, points, 0.0)[0],
                        sign * basis @ basis.conj().T, atol=1e-12 * 128)


@pytest.mark.parametrize("N", [64, 181, 2048])
def test_sylvester_gram_matches_the_dense_product(N):
    # the streamed, factored-phase G = V F^{-1} V^H, half of it mirrored, against the dense product
    prof = flux_profile(gaussian_bump_with_flux(2.0), N / 2.0)
    points = overlap_module._chebyshev_points(4.0, 48)
    basis = np.exp(-1j * np.pi / prof.L * np.outer(points, np.arange(N) - 0.5 * (N - 1)))
    dense = basis @ np.linalg.solve(flux_matrix(prof.total_flux, PER, N), basis.conj().T)
    gram, border, rho = overlap_module._jump_inverse_gram(prof, True, N, points, 0.0)
    assert border is None and rho == 0.0
    assert np.max(np.abs(gram - dense)) <= 1e-13 * np.max(np.abs(dense)), np.max(np.abs(gram - dense))


def test_sylvester_log_det_matches_the_ritz_oracle_at_2_15():
    N = 2**15
    prof = flux_profile(SWEEP_POTENTIALS[PER], N / 2.0)
    point = evaluate_point(SWEEP_POTENTIALS[PER], PER, N, N / 2.0)
    ritz = overlap_log_det_sq(overlap_coefficients(prof, PER, N), PER, N)
    assert abs(point.log_D_sq - ritz) <= 2e-10, point.log_D_sq - ritz


def test_sylvester_c_at_2_17_matches_the_gate_value():
    # the Ritz route's C at 2^17 on the bench potential, L = N / 2; it carries
    # that route's own rounding floor, about 1e-11 relative
    N = 2**17
    point = evaluate_point(SWEEP_POTENTIALS[PER], PER, N, N / 2.0)
    assert_allclose(point.c_ratio, 0.001187089904828048, rtol=1e-10)


# -- the Dirichlet C_{N,L} from the same Sylvester step ---------------------------


@pytest.mark.parametrize("N", [1, 5, 9, 31, 181])
def test_null_vector_matches_the_svd_null_vector(N):
    # the closed-form u_0 of the odd-N jump matrix's off-diagonal part S (F = i S at flux pi/2)
    S = flux_matrix(math.pi / 2, DIR, N).imag
    null = np.linalg.svd(S)[2][-1]
    u = overlap_module._null_vector(N)
    assert np.max(np.abs(S @ u)) <= 1e-15
    assert_allclose(u, np.sign(null[0]) * null, rtol=0, atol=1e-15)


def _assert_dirichlet_gram_matches_the_dense_solve(flux, N):
    # G = V F^{-1} V^T by Woodbury on the parity sketch against V solve(F, V^T); for odd N, where F is
    # exactly singular at delta_L = pi/2, G_perp against the same solve with F's eigenvalue c on its null
    # vector u moved to 1 and that direction taken out again, and g against V u
    prof = flux_profile(gaussian_bump_with_flux(flux), max(N / 2.0, 4.0))
    points = overlap_module._chebyshev_points(4.0, 48)
    # sin(j pi/2 + j s) by parity, so that no argument rounds at j pi/2
    j, s = np.arange(1, N + 1), np.pi * points[:, None] / (2.0 * prof.L)
    basis = np.where(j % 2, np.sin(j * np.pi / 2) * np.cos(j * s), np.cos(j * np.pi / 2) * np.sin(j * s))
    jump = flux_matrix(prof.total_flux, DIR, N)
    sketch = dirichlet_rest_sketch(prof.delta_L, N)
    gram, g, truncation = overlap_module._jump_inverse_gram(prof, False, N, points, sketch)
    assert truncation <= 1e-12
    if N % 2:
        u = np.linalg.svd(flux_matrix(math.pi / 2, DIR, N).imag)[2][-1]
        u *= np.sign(u[0])
        dense = basis @ np.linalg.solve(jump + (1.0 - jump[0, 0]) * np.outer(u, u), basis.T)
        dense -= np.outer(basis @ u, basis @ u)
        assert np.max(np.abs(g - basis @ u)) <= 1e-13 * np.max(np.abs(basis @ u))
    else:
        dense = basis @ np.linalg.solve(jump, basis.T)
        assert g is None
    assert np.max(np.abs(gram - dense)) <= 1e-13 * max(1.0, np.max(np.abs(dense))), np.max(np.abs(gram - dense))


@pytest.mark.parametrize("N", [1, 2, 5, 64, 181, 512, 1447, 2048])
@pytest.mark.parametrize(
    "flux", [math.pi / 4, math.pi / 2, math.pi / 2 - 1e-9, math.pi / 2 + 1e-9, math.pi, 2 * math.pi + 0.5]
)
def test_dirichlet_gram_matches_the_dense_solve(flux, N):
    _assert_dirichlet_gram_matches_the_dense_solve(flux, N)


def _extended_sketches(monkeypatch) -> list[int]:
    """Start the parity sketch at 8 rows, so that it has to be extended, and record each Ritz pass's width."""
    widths, original = [], matrixcore_module._tsqr_r

    def recorded(blocks):
        widths.append(sum(len(b) for b in blocks))
        return original(blocks)

    monkeypatch.setattr(matrixcore_module, "_tsqr_r", recorded)
    monkeypatch.setattr(hilbert_module, "_SKETCH_COLUMNS", 8)
    return widths


@pytest.mark.parametrize("flux", [math.pi / 4, math.pi / 2, 2 * math.pi + 0.5])
def test_dirichlet_gram_from_an_extended_sketch_matches_the_dense_solve(monkeypatch, flux):
    # 8 rows fail the certificate at N = 512: G is built from every row of the extended Q
    widths = _extended_sketches(monkeypatch)
    _assert_dirichlet_gram_matches_the_dense_solve(flux, 512)
    assert widths[0] == 8 and widths[-1] > 8, widths


@pytest.mark.parametrize("flux, N", [(flux, N + 1) for flux, N in SYLVESTER_CASES] + SYLVESTER_CASES)
def test_dirichlet_sylvester_log_det_matches_lu(flux, N):
    # the periodic cases' fluxes on N = 41 (odd: bordered, and exactly singular F at flux pi/2), 257, 40 and 256
    a = gaussian_bump_with_flux(flux)
    prof = flux_profile(a, N / 2.0)
    point = evaluate_point(a, DIR, N, N / 2.0)
    dense = 2.0 * log_det(overlap_matrix(prof, DIR, N))
    assert abs(point.log_D_sq - dense) <= 1e-10, point.log_D_sq - dense
    assert_allclose(point.c_ratio, math.exp(dense - 2.0 * log_det(flux_matrix(prof.total_flux, DIR, N))), rtol=1e-10)


def _triangle(total_flux: float) -> PiecewiseLinear:
    """A triangle on [-1, 1] of the given total flux (1/2) int a."""
    return PiecewiseLinear(((-1.0, 0.0), (0.0, 2.0 * total_flux), (1.0, 0.0)))


@pytest.mark.parametrize("N, eps", [(N, eps) for N in (181, 513) for eps in (1e-3, 1e-5, 1e-7, 1e-9, 0.0)]
                         + [(2047, 1e-9), (2047, 0.0)])
def test_dirichlet_log_det_at_odd_n_near_delta_pi_over_2_matches_lu(N, eps):
    # delta_L = pi/2 - eps: c = cos(delta_L) vanishes on the null vector u_0 of the jump matrix's off-diagonal
    # part, and the bordered Sylvester matrix keeps log|D|^2 finite; at eps = 0, D~ = 0 and C = inf
    a = _triangle(math.pi / 2 - eps)
    prof = flux_profile(a, N / 2.0)
    assert abs(prof.delta_L - (math.pi / 2 - eps)) <= 1e-15
    point = evaluate_point(a, DIR, N, N / 2.0)
    assert abs(point.log_D_sq - 2.0 * log_det(overlap_matrix(prof, DIR, N))) <= 1e-10
    assert (point.c_ratio == math.inf) == (point.log_Dtilde_sq == -math.inf) == (eps == 0.0)


@pytest.mark.parametrize("N", [513, 2047])
def test_dirichlet_log_det_at_odd_n_and_delta_pi_over_2_from_an_extended_sketch_matches_lu(monkeypatch, N):
    # the eps = 0 cases above, the bordered G_perp from a parity sketch extended from 8 rows
    widths = _extended_sketches(monkeypatch)
    test_dirichlet_log_det_at_odd_n_near_delta_pi_over_2_matches_lu(N, 0.0)
    assert widths[0] == 8 and widths[-1] > 8, widths


def test_dirichlet_sylvester_bound_charges_the_truncation_of_a_sketch_sized_for_the_log_det(monkeypatch):
    # at N = 181, 8 rows certify the jump log-det in one pass, but their Woodbury inverse is off by a relative
    # 2.6e-12, which the bordered Sylvester matrix at delta_L = pi/2 (s_min 0.011) amplifies past the budget:
    # the bound raises, naming k and the truncation, rather than return the uncertified log-det
    widths = _extended_sketches(monkeypatch)
    with pytest.raises(NumericalError, match="Sylvester log-det bound") as raised:
        evaluate_point(_triangle(math.pi / 2), DIR, 181, 90.5)
    assert widths == [8] and raised.value.context["k"] == 8
    assert 1e-12 < raised.value.context["truncation"] < 1e-11 and raised.value.context["achieved"] > 1e-10


def test_dirichlet_sylvester_log_det_matches_the_ritz_oracle_at_2_15():
    N = 2**15
    prof = flux_profile(SWEEP_POTENTIALS[DIR], N / 2.0)
    point = evaluate_point(SWEEP_POTENTIALS[DIR], DIR, N, N / 2.0)
    ritz = overlap_log_det_sq(overlap_coefficients(prof, DIR, N), DIR, N)
    assert abs(point.log_D_sq - ritz) <= 2e-10, point.log_D_sq - ritz


def test_dirichlet_sylvester_c_at_2_17_matches_the_gate_value():
    # the Ritz route's C at 2^17 on the bench potential, L = N / 2, as in the periodic case
    N = 2**17
    point = evaluate_point(SWEEP_POTENTIALS[DIR], DIR, N, N / 2.0)
    assert_allclose(point.c_ratio, 2.504238716331226, rtol=1e-10)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 16, 33])
@pytest.mark.parametrize("bc", [PER, DIR])
def test_frobenius_deficit_matches_the_assembled_matrix(bc, N):
    # tr E = N - ||A||_F^2 from the coefficients alone, against the entrywise
    # sum over the assembled Toeplitz(-minus-Hankel) matrix
    rng = np.random.default_rng(N)
    size = 2 * N - 1 if bc is PER else 2 * N + 1
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    m = overlap_module._assemble(c, N, bc is PER)
    reference = N - float(np.vdot(m, m).real)
    assert abs(frobenius_deficit(c, N, bc is PER) - reference) <= 1e-13 * float(np.vdot(m, m).real)


def test_frobenius_deficit_of_the_sweep_is_rounded_once():
    # N - ||A||_F^2 cancels N to a few units: summed exactly, it agrees with
    # the rational sum of the same floats to the last bit
    N = 512
    c = overlap_coefficients(flux_profile(SWEEP_POTENTIALS[PER], N / 2.0), PER, N)
    weights = N - np.abs(np.arange(1 - N, N))
    exact = N - sum(int(w) * (Fraction(float(z.real)) ** 2 + Fraction(float(z.imag)) ** 2) for w, z in zip(weights, c))
    assert frobenius_deficit(c, N, True) == float(exact)


@pytest.mark.parametrize("bc", [PER, DIR])
def test_frobenius_deficit_does_not_depend_on_the_slicing(bc, monkeypatch):
    # the terms are streamed in slices of 4096, the prefix sums of the
    # Dirichlet cross term carried across them: every term and so the exactly
    # rounded sum are those of one slice over everything (and, at N = 2^11,
    # of slices of 2)
    rng = np.random.default_rng(11)
    for N in 2 ** np.arange(11, 16):
        size = 2 * N - 1 if bc is PER else 2 * N + 1
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        sliced = frobenius_deficit(c, N, bc is PER)
        for width in (4 * N + 2, 2) if N == 2**11 else (4 * N + 2,):
            monkeypatch.setattr(oracles_module, "_SUM_SLICE", width)
            assert frobenius_deficit(c, N, bc is PER).hex() == sliced.hex(), (N, width)
        monkeypatch.undo()


@pytest.mark.parametrize("bc", [PER, DIR])
def test_frobenius_deficit_peak_memory_does_not_grow_with_n(bc):
    # twelve Veltkamp parts per weighted square (24 in the Dirichlet basis)
    # took 576 (936) bytes per unit of N when every term was held at once;
    # streamed, the peak is one slice's parts whatever N is
    peaks = []
    for N in (64, 2**15, 2**17):  # the first call warms up
        size = 2 * N - 1 if bc is PER else 2 * N + 1
        c = np.full(size, 0.6 + 0.8j) / np.sqrt(size)
        tracemalloc.start()
        try:
            frobenius_deficit(c, N, bc is PER)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1], peaks


@pytest.mark.parametrize("N", [128, 2048])
@pytest.mark.parametrize("bc", [PER, DIR])
def test_sweep_potentials_accept_the_refine_one_build(bc, N):
    a = SWEEP_POTENTIALS[bc]
    L = N / 2.0
    assert _first_change_bound(a, bc, N, L) <= 1e-10
    assert np.array_equal(overlap_matrix(flux_profile(a, L), bc, N), _assemble(bc, _coefficients(a, bc, N, L, 1), N))


MEMORY_CASES = [(bc, build) for build in (overlap_matrix, flux_matrix) for bc in (PER, DIR)] + [(PER, fh_matrix)]


@pytest.mark.parametrize(
    "bc, build", MEMORY_CASES, ids=[f"{bc.value}-{build.__name__}" for bc, build in MEMORY_CASES]
)
def test_matrix_build_peak_memory_is_a_small_multiple_of_the_result(bc, build):
    # the periodic sweep potential has n_L = 1, so flux_matrix takes the sign flip
    N, L = 512, 256.0
    prof = flux_profile(SWEEP_POTENTIALS[bc], L)
    args = {fh_matrix: (math.pi / 4, N), overlap_matrix: (prof, bc, N), flux_matrix: (prof.total_flux, bc, N)}[build]
    build(*args)  # warm the cached quadrature rule
    tracemalloc.start()
    try:
        result = build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * result.nbytes, peak / result.nbytes


@pytest.mark.parametrize("bc", [PER, DIR])
def test_evaluate_point_peak_memory_is_linear_in_n(bc):
    # no N x N array is formed: |D| streams V's rows into a p x p matrix,
    # the Dirichlet jump log-det holds a sketch of 24 real rows and their
    # products, and ||Delta_N||_1 works on a core whose size does not depend
    # on N.  The peak reads 2.8 (periodic) and 3.6 (Dirichlet) N k 16 bytes,
    # k = 32, at N = 2048, under a budget of 6.  Assembling Delta_N alone
    # would take N / k = 64 of them
    N, L, k = 2048, 1024.0, 32
    a = SWEEP_POTENTIALS[bc]
    evaluate_point(a, bc, N, L)  # warm the cached quadrature rule
    tracemalloc.start()
    try:
        evaluate_point(a, bc, N, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * N * k * 16, peak / (N * k * 16)


# one grid point in a fresh interpreter; prints the peak resident set of its own address space in KiB.
# Linux carries the forking process's peak across exec into ru_maxrss, so that would read the test
# runner's size; VmHWM is the high-water mark of the address space the child built after exec.
# The child also prints how many tall-skinny QRs (matrixcore._tsqr_r, one per Ritz pass) ran outside the
# Dirichlet jump log-det's ritz_sketch: none, as no Ritz sketch runs on the overlap matrix
_POINT_CHILD = """
import json, sys
from flux_catastrophe import hilbert, matrixcore, overlap
from flux_catastrophe.potential import potential_from_dict
inside, outside, ritz_sketch, tsqr_r = [False], [], hilbert.ritz_sketch, matrixcore._tsqr_r
def jump_sketch(*args):
    inside[0] = True
    try:
        return ritz_sketch(*args)
    finally:
        inside[0] = False
def counted(blocks):
    if not inside[0]:
        outside.append(sum(len(b) for b in blocks))
    return tsqr_r(blocks)
hilbert.ritz_sketch, matrixcore._tsqr_r = jump_sketch, counted
N = int(sys.argv[3])
overlap.evaluate_point(potential_from_dict(json.loads(sys.argv[1])), sys.argv[2], N, N / 2)
print(len(outside), next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("bc", [PER, DIR])
def test_grid_point_process_peak_rss_is_three_blocks_at_n_2_15(bc):
    # the whole process, untraced allocations (LAPACK, FFT plans) and the
    # allocator's own retention included: a bench-potential point at
    # N = 2^15 grows the peak resident set over the same point at N = 64 by
    # at most a (k, N) complex block, k = 32 (periodic), or one and a half
    # (Dirichlet).  No Ritz sketch runs on the overlap matrix: C_{N,L}
    # streams V's rows 2^15 / N at a time (one FFT row here), and the
    # Dirichlet jump log-det's sketch holds 24 real rows of length N/2 and
    # their products of length N.  The growth reads 0.21 and 0.91 blocks
    package_root = str(Path(flux_catastrophe.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    raw = json.dumps(potential_to_dict(SWEEP_POTENTIALS[bc]))

    def point(N):
        args = [sys.executable, "-c", _POINT_CHILD, raw, bc.value, str(N)]
        sketches, peak_kb = subprocess.run(args, env=env, capture_output=True, text=True, check=True).stdout.split()
        return int(sketches), 1024 * int(peak_kb)

    N, k = 2**15, 32
    (sketches, peak), (_, base) = point(N), point(64)
    grown = peak - base
    assert sketches == 0, f"{sketches} Ritz passes ran on the overlap matrix"
    assert grown <= (1.0 if bc is PER else 1.5) * N * k * 16, grown / (N * k * 16)


_TRACE_NORM_CALLS = itertools.count(1)


def _unsettled_trace_norm(core: np.ndarray, gram: np.ndarray) -> float:
    """A trace norm that grows by one with every call, so its doubling check never settles."""
    return float(next(_TRACE_NORM_CALLS))


@pytest.mark.parametrize(
    "bc, stage, module, name, value",
    [
        pytest.param(DIR, "overlap log-det", overlap_module, "_QUADRATURE_TOL", 0.0, id="dirichlet-settling"),
        pytest.param(PER, "overlap log-det", overlap_module, "_QUADRATURE_TOL", 0.0, id="periodic-settling"),
        pytest.param(PER, "overlap log-det", overlap_module, "_LOGDET_ABS_ERR", 1e-300, id="periodic-bound"),
        pytest.param(DIR, "overlap log-det", overlap_module, "_LOGDET_ABS_ERR", 1e-300, id="overlap-log-det"),
        pytest.param(DIR, "jump log-det", hilbert_module, "_LOGDET_ABS_ERR", 1e-300, id="jump-log-det"),
        pytest.param(PER, "trace norm", overlap_module, "trace_norm", _unsettled_trace_norm, id="trace-norm"),
    ],
)
def test_evaluate_point_error_names_its_stage(bc, stage, module, name, value, monkeypatch):
    # each stage is made to fail for real: a quadrature or log-det budget no
    # rounding meets, or a trace norm that never settles (N = 128 > 2p, so
    # ||Delta_N||_1 comes from the p x p core's doubling check)
    monkeypatch.setattr(module, name, value)
    with pytest.raises(NumericalError) as info:
        evaluate_point(SWEEP_POTENTIALS[bc], bc, 128, 64.0)
    assert info.value.args[0].startswith(f"{stage}: "), info.value.args[0]
    assert {"achieved", "requested"} <= set(info.value.context)


@st.composite
def _piecewise_linear_cases(draw, n_L):
    """A PiecewiseLinear potential with 3-6 knots spanning [-R, R] and full-line
    flux n_L pi + delta, an interval half-length L = R or L > R, and N <= 16."""
    R = draw(st.floats(0.5, 4.0))
    k = draw(st.integers(3, 6))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=k - 1, max_size=k - 1)))
    xs = -R + 2.0 * R * np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    xs[-1] = R
    shape = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    delta = draw(st.floats(-1.57, 1.57))
    # adding a constant c to every knot value adds c R to the flux (1/2) int a
    shape_flux = 0.25 * float(np.sum((shape[1:] + shape[:-1]) * np.diff(xs)))
    values = shape + (n_L * math.pi + delta - shape_flux) / R
    a = PiecewiseLinear(tuple(zip(xs.tolist(), values.tolist())))
    L = R + draw(st.just(0.0) | st.floats(0.1, 4.0))
    return a, L, draw(st.integers(1, 16))


@pytest.mark.parametrize("n_L", [-1, 0, 1, 2])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_overlap_matrix_matches_reference_assembly_on_random_potentials(n_L, data):
    a, L, N = data.draw(_piecewise_linear_cases(n_L))
    prof = flux_profile(a, L)
    assert prof.n_L == n_L
    exact_periodic = lambda x: np.exp(1j * (prof.phi_at(x) - prof.delta_L * x / L))
    exact_dirichlet = lambda x: np.exp(1j * prof.phi_at(x))
    for bc, symbol, basis in (
        (PER, exact_periodic, BasisSpec.periodic_window(L, N)),
        (DIR, exact_dirichlet, BasisSpec.dirichlet_window(L, N)),
    ):
        m = overlap_matrix(prof, bc, N)
        reference = assemble_toeplitz(symbol, basis, breakpoints=a.breakpoints)
        assert float(np.max(np.abs(m - reference))) <= 1e-10, bc
        # a compression of the unitary multiplication by e^{i g}: |det| <= 1
        assert log_det(m) <= 1e-12, bc


# -- symbol splitting (periodic proof of the factorization lemma) ------------


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


def periodic_split_symbols(a, L: float) -> SplitSymbols:
    prof = flux_profile(a, L)
    phi_plus, phi_minus = half_fluxes(a, L)
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
        return 2.0 * heaviside(x) * np.sin(0.5 * phi_plus(x) - delta * x / L) * np.sin(0.5 * phi_minus(x))

    def _minus_branch(x):
        # Theta(-x) restricted to the complement of the '+' branch: since
        # Theta(0) = 1 assigns x = 0 to '+', the '-' symbols live on x < 0.
        return np.where(np.asarray(x, dtype=float) < 0.0, 1.0, 0.0)

    def e_minus(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * _minus_branch(x) * np.sin(0.5 * phi_minus(x) + delta * x / L) * np.sin(0.5 * phi_plus(x))

    def f_plus(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * heaviside(x) * np.cos(0.5 * phi_plus(x) - delta * x / L) * np.sin(0.5 * phi_minus(x))

    def f_minus(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * _minus_branch(x) * np.cos(0.5 * phi_minus(x) + delta * x / L) * np.sin(0.5 * phi_plus(x))

    return SplitSymbols(
        e_plus=e_plus,
        e_minus=e_minus,
        f_plus=f_plus,
        f_minus=f_minus,
        exact_symbol=lambda x: np.exp(1j * g(x)),
        flux_symbol=lambda x: np.exp(1j * g_tilde(x)),
    )


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
    tn = trace_norm(m, np.eye(N))
    bound = N / (2 * L) * weighted_abs_moment(bump_quarter_pi, 0.0, L)
    assert tn <= bound + 1e-8


_CONTRACTION_POTENTIALS = {
    "bench-bump": SWEEP_POTENTIALS[PER],
    "flux-pi-over-4": gaussian_bump_with_flux(math.pi / 4),
    "bench-piecewise-linear": SWEEP_POTENTIALS[DIR],
    "flux-100-width-0.1": gaussian_bump_with_flux(100.0, width=0.1),
    "flux-300-width-0.1": gaussian_bump_with_flux(300.0, width=0.1),
}


@pytest.mark.parametrize("N", [128, 512, 1024, 8192, 2**15])
@pytest.mark.parametrize("rho", [1, 4])
@pytest.mark.parametrize("name", list(_CONTRACTION_POTENTIALS))
def test_contracted_support_sums_match_the_direct_node_sums(monkeypatch, name, rho, N):
    # the support sums run over the 2p Chebyshev points of the sample Delta_N's
    # core shares, not the n quadrature nodes; against the sum over the n
    # nodes, written out with one exponential per (frequency, node) at 300
    # sampled coefficients and both ends, each coefficient of either basis
    # moves by at most 1e-13
    a, L = _CONTRACTION_POTENTIALS[name], N / (2.0 * rho)
    prof = flux_profile(a, L)
    R, nodes, weights = overlap_module.support_nodes(a, L, N, 0)
    seen = []
    phase_sums = overlap_module._phase_sums
    monkeypatch.setattr(overlap_module, "_phase_sums", lambda h, shift, M, x, v: seen.append(len(x)) or
                        phase_sums(h, shift, M, x, v))
    rng = np.random.default_rng(N + rho)
    p = overlap_module._chebyshev_size(math.pi * N * R / (2.0 * L))

    def direct(step, delta, k):
        """(1/2L) int e^{i (Phi_L - delta x / L)} e^{i step k x / L} dx over [-L, L], support by the node sum."""
        w = step * k / L
        values = np.exp(1j * (prof.phi_at(nodes) - delta * nodes / L)) * weights
        outer = np.exp(1j * prof.total_flux) * cis_integral(w - delta / L, R, L)
        outer += np.exp(-1j * prof.total_flux) * cis_integral(w - delta / L, -L, -R)
        return (np.exp(1j * np.outer(w, nodes)) @ values + outer) / (2.0 * L)

    for periodic, size in ((True, 2 * N - 1), (False, 2 * N + 1)):
        y, u, _ = overlap_module._support_sampler(prof, periodic, N)(0)
        got = overlap_module._support_coefficients(prof, periodic, N, y, u, symbol=True)
        assert seen.pop() == 2 * p < len(nodes)
        m = np.unique(np.concatenate([[0, size - 1], rng.integers(0, size, 300)]))
        if periodic:  # t_d, d = m - (N - 1)
            expected = direct(np.pi, prof.delta_L, m - (N - 1))
        else:  # c_m, the mean of i^{+-m} F(+-m pi / 2L)
            i_m = 1j ** (m % 4)
            expected = 0.5 * (i_m * direct(np.pi / 2, 0.0, m) + i_m.conj() * direct(np.pi / 2, 0.0, -m))
        assert np.max(np.abs(got[m] - expected)) <= 1e-13
