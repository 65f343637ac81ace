from __future__ import annotations

import json
import math
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

from flux_catastrophe import cli
from flux_catastrophe.errors import DomainError, NumericalError
from flux_catastrophe.hilbert import dirichlet_flux_logdet
from flux_catastrophe.matrixcore import fh_matrix, log_det, trace_norm
import flux_catastrophe.matrixcore as matrixcore_module
import flux_catastrophe.overlap as overlap_module
import flux_catastrophe.quadrature as quadrature_module
from flux_catastrophe.overlap import (
    evaluate_point,
    flux_matrix,
    overlap_coefficients,
    overlap_log_det_sq,
    overlap_matrix,
)
from flux_catastrophe.potential import (
    GaussianBump,
    PiecewiseLinear,
    flux_profile,
    gaussian_bump_with_flux,
    moment_integrals,
    potential_from_dict,
    weighted_abs_moment,
    zero_potential,
)
from flux_catastrophe.spectrum import BoundaryCondition
from oracles import BasisSpec, assemble_toeplitz, dense_overlap_matrix, dirichlet_flux_entries, half_fluxes

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
def test_support_nodes_stay_within_the_wavelength_and_breakpoint_budget(a, refine):
    # a short feature costs panels at its breakpoints only, not over the whole support
    L, omega = 64.0, 127 * math.pi / 64
    R, nodes, weights = overlap_module.support_nodes(a, L, omega, refine)
    panels = math.ceil(2 * R / (2 * math.pi / omega / 8)) + len(a.breakpoints)
    assert len(nodes) == len(weights) <= 16 * 2**refine * panels
    assert abs(weights.sum() - 2 * R) <= 1e-12 * R


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
    # each matrix as its coefficient vector, and the flux profile once:
    # overlap_coefficients takes it, flux_coefficients needs only Phi_L(L);
    # neither matrix is assembled, only Delta_N from their difference
    calls = {name: 0 for name in ("overlap_coefficients", "flux_coefficients", "flux_profile", "overlap_matrix",
                                  "flux_matrix", "_assemble")}
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
        assert calls == {"overlap_coefficients": 1, "flux_coefficients": 1, "flux_profile": 1, "overlap_matrix": 0,
                         "flux_matrix": 0, "_assemble": 1}, bc


@pytest.mark.parametrize("bc", [PER, DIR])
def test_evaluate_point_factors_no_complex_matrix_but_the_overlap(monkeypatch, bc):
    # no matrix is factored at all: both jump log-dets come from (delta_L, N)
    # and |D| from FFT products of the overlap coefficients
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
    assert point.c_ratio == math.exp(point.log_D_sq - point.log_Dtilde_sq)
    # Delta_N is assembled from the coefficient difference: the same entries
    # as the difference of the two matrices (periodic), or the same to rounding
    delta = _delta_n(a, bc, 40, 20.0)
    if bc is PER:
        assert point.trace_norm_delta == trace_norm(delta)
    assert_allclose(point.trace_norm_delta, trace_norm(delta), rtol=1e-13)
    assert point.bound == 40 / 20.0 * moment_integrals(a, 20.0)
    assert point.bound_holds == (point.trace_norm_delta <= point.bound + 1e-8)


@pytest.mark.parametrize("bc", [PER, DIR])
def test_evaluate_point_of_the_zero_potential_is_exactly_one(bc):
    # tr E = N - ||A||_F^2 is below rounding, so the empty sketch certifies
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


_COEFFICIENTS = {PER: "_periodic_overlap_coefficients", DIR: "_dirichlet_cosine_coefficients"}


def _coefficients(a, bc, N, L, refine):
    return getattr(overlap_module, _COEFFICIENTS[bc])(flux_profile(a, L), N, refine)


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
            patch.setattr(overlap_module, _COEFFICIENTS[bc], lambda prof, N, refine: builds[refine])
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
    # N = 128 .. 2048, odd N = 181 included: the certified Rayleigh-Ritz sum
    # against LU of the assembled matrix of the same coefficients
    a = SWEEP_POTENTIALS[bc]
    for N in _bench_grid(bc):
        c = overlap_coefficients(flux_profile(a, N / 2.0), bc, N)
        dense = 2.0 * log_det(overlap_module._assemble(c, N, bc is PER))
        assert abs(overlap_log_det_sq(c, bc, N) - dense) <= 1e-10, N


def test_overlap_log_det_is_bit_identical_on_repeat():
    for bc in (PER, DIR):
        c = overlap_coefficients(flux_profile(SWEEP_POTENTIALS[bc], 90.5), bc, 181)
        assert overlap_log_det_sq(c, bc, 181).hex() == overlap_log_det_sq(c, bc, 181).hex(), bc


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
    assert abs(overlap_module._frobenius_deficit(c, N, bc is PER) - reference) <= 1e-13 * float(np.vdot(m, m).real)


def test_frobenius_deficit_of_the_sweep_is_rounded_once():
    # N - ||A||_F^2 cancels N to a few units: summed exactly, it agrees with
    # the rational sum of the same floats to the last bit
    N = 512
    c = overlap_coefficients(flux_profile(SWEEP_POTENTIALS[PER], N / 2.0), PER, N)
    weights = N - np.abs(np.arange(1 - N, N))
    exact = N - sum(int(w) * (Fraction(float(z.real)) ** 2 + Fraction(float(z.imag)) ** 2) for w, z in zip(weights, c))
    assert overlap_module._frobenius_deficit(c, N, True) == float(exact)


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
def test_evaluate_point_peak_memory_is_about_one_matrix(bc):
    # Delta_N is the one N x N array: |D| is taken from O(N k) blocks, and the
    # trace norm's residual runs over row blocks of 2^14 entries; the dense-LU
    # evaluator, which formed Delta_N in place of the exact matrix, peaked at
    # 1.85x and held the jump matrix besides
    N, L = 1024, 512.0
    a = SWEEP_POTENTIALS[bc]
    evaluate_point(a, bc, N, L)  # warm the cached quadrature rule
    tracemalloc.start()
    try:
        evaluate_point(a, bc, N, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * N * N * 16, peak / (N * N * 16)


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
    tn = trace_norm(m)
    bound = N / (2 * L) * weighted_abs_moment(bump_quarter_pi, 0.0, L)
    assert tn <= bound + 1e-8
