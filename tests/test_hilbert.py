from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import flux_catastrophe.hilbert as hilbert_module
import flux_catastrophe.matrixcore as matrixcore_module
from flux_catastrophe.asymptotics import trigamma
from flux_catastrophe.errors import DomainError
from flux_catastrophe.hilbert import (
    dirichlet_flux_logdet,
    dirichlet_rest_sketch,
    hilbert_section_norm,
    k_matrix,
    k_part_norms,
    k_part_traces,
)
from flux_catastrophe.matrixcore import log_det
from flux_catastrophe.overlap import flux_matrix
from flux_catastrophe.potential import flux_decomposition
from flux_catastrophe.spectrum import BoundaryCondition
from oracles import hilbert_section, hilbert_square_closed_form, k_entry_bruteforce, k_minus_minus, k_parts


def test_hilbert_section_basics():
    h = hilbert_section(3)
    assert_allclose(h[0, 0], 2.0 / 3.0, rtol=1e-15)
    assert_allclose(h[0, 1], 2.0 / 5.0, rtol=1e-15)
    assert np.array_equal(h, h.T)
    with pytest.raises(DomainError):
        hilbert_section_norm(0)


def test_hilbert_section_norm_m1_m2():
    assert_allclose(hilbert_section_norm(1), 2.0 / 3.0, rtol=1e-12)
    # 2x2 eigenvalue closed form for [[2/3, 2/5], [2/5, 2/7]]
    mean = 0.5 * (2.0 / 3.0 + 2.0 / 7.0)
    disc = math.hypot(0.5 * (2.0 / 3.0 - 2.0 / 7.0), 2.0 / 5.0)
    assert_allclose(hilbert_section_norm(2), mean + disc, rtol=1e-10)


def test_hilbert_section_norms_increase_below_pi():
    norms = [hilbert_section_norm(m) for m in (1, 2, 4, 8, 16, 64, 256)]
    assert all(b > a for a, b in zip(norms[:-1], norms[1:]))
    assert all(n < math.pi for n in norms)


@pytest.mark.parametrize("M", [1, 2, 7, 256, 1024])
def test_norms_match_dense_oracle_matrices(M):
    # the package applies both operators as FFT Toeplitz products; the
    # oracles write them out entry by entry
    assert_allclose(hilbert_section_norm(M), np.linalg.norm(hilbert_section(M), 2), rtol=1e-10)
    assert_allclose(k_part_norms(M).op_mm, np.linalg.norm(k_minus_minus(M), 2), rtol=1e-10)


def test_hilbert_square_closed_form_values():
    # (H^2)_{11} = psi_1(3/2) = pi^2/2 - 4
    val = hilbert_square_closed_form(np.array([[1.0]]), np.array([[1.0]]))
    assert_allclose(val[0, 0], math.pi**2 / 2 - 4.0, rtol=1e-13)
    # and the dense check: (H_M^2)_{jk} -> closed form as M grows; the
    # finite section truncates the inner sum, an error of order 1/M
    M = 3000
    h = hilbert_section(M)
    h2 = (h @ h)[:4, :4]
    p = np.arange(1, 5, dtype=float)
    closed = hilbert_square_closed_form(p[:, None] * np.ones(4), np.ones((4, 1)) * p[None, :])
    assert_allclose(h2, closed, atol=2.0 / M)


def test_k11_value_pinned_by_bruteforce_sum():
    k11 = k_matrix(2)[0, 0]
    # frozen from the 10^7-term sum oracle; also equals pi^2/4 - 16/9
    assert_allclose(k11, 0.6896233224945618, rtol=1e-12)
    assert_allclose(k11, k_entry_bruteforce(1, 1, 1), rtol=1e-12)


def test_k_matrix_decomposition_identity():
    parts = k_parts(8)
    assert sorted(parts) == ["++", "+-", "-+", "--"]
    total = sum(parts.values())
    assert float(np.max(np.abs(k_matrix(16) - total))) < 1e-12


def test_k_matrix_vs_bruteforce_entries():
    # N = 6 and N = 7 both give 3 x 3 matrices; the sums start after T = ceil(N / 2)
    for N, T in ((6, 3), (7, 4)):
        K = k_matrix(N)
        assert K.shape == (3, 3)
        for (j, k) in ((1, 1), (1, 2), (2, 3), (3, 3)):
            assert_allclose(K[j - 1, k - 1], k_entry_bruteforce(T, j, k, l_terms=10**6), rtol=1e-11)


def test_k_parts_positive_semidefinite():
    parts = k_parts(16)
    for key in ("--", "++"):
        part = parts[key]
        assert np.array_equal(part, part.T)
        assert float(np.min(np.linalg.eigvalsh(part))) >= -1e-10


def test_k_mm_is_flipped_hilbert_square_section():
    M = 6
    p = np.arange(M, dtype=float)  # 0-based flipped indices M - j
    grid_p = p[::-1][:, None] * np.ones(M)
    grid_q = np.ones((M, 1)) * p[::-1][None, :]
    closed = 0.25 * hilbert_square_closed_form(grid_p, grid_q)
    assert_allclose(k_parts(M)["--"], closed, rtol=1e-12)


def test_k_part_traces_match_matrices():
    M = 24
    parts = k_parts(M)
    t_mm, t_pp = k_part_traces(M)
    assert_allclose(np.trace(parts["--"]), t_mm, rtol=1e-13)
    assert_allclose(np.trace(parts["++"]), t_pp, rtol=1e-13)


def test_k_part_norms_bounds():
    norms = k_part_norms(64)
    assert norms.op_mm <= math.pi**2 / 4 + 1e-8
    # trace norm dominates operator norm for the PSD leading part
    assert norms.t_mm >= norms.op_mm - 1e-10
    assert norms.t_mixed == pytest.approx(math.sqrt(norms.t_mm * norms.t_pp), rel=1e-12)


@pytest.mark.parametrize("norm", [hilbert_section_norm, k_part_norms])
def test_norm_peak_memory_is_linear_in_m(norm):
    # both operators are applied from O(M) generating vectors; one M x M
    # array would be M / 64 = 64 times this budget
    M = 4096
    norm(8)  # warm up lazy allocations (numpy.fft) outside the measurement
    tracemalloc.start()
    try:
        norm(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * M * 8, peak / (M * 8)


def test_k_matrix_peak_memory_is_two_matrices():
    # K_M is built in place next to one scratch array; the broadcast formula
    # with np.where and np.eye peaked at 3.13x one M x M matrix
    M = 1024
    k_matrix(16)
    tracemalloc.start()
    try:
        k_matrix(2 * M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * M * M * 8, peak / (M * M * 8)


def test_dirichlet_flux_logdet_peak_memory_is_linear_in_m():
    # K is applied to (k, M) blocks only: Q (k, M) and G Q (k, 2M), real,
    # plus row slices of product workspace.  The peak reads 6.3 k M 8 bytes
    # at M = 4096; the budget of 8 leaves a 25% margin.  One M x M array
    # would be M / (8 k) = 21 times this budget
    M = 4096
    dirichlet_flux_logdet(math.pi / 4, 64)
    tracemalloc.start()
    try:
        dirichlet_flux_logdet(math.pi / 4, 2 * M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * hilbert_module._SKETCH_COLUMNS * M * 8, peak / (hilbert_module._SKETCH_COLUMNS * M * 8)


@pytest.mark.parametrize("M", [1, 2, 24, 4096])
def test_k_part_traces_match_trigamma_sums(M):
    jv = np.arange(1, M + 1, dtype=float)
    t_mm, t_pp = k_part_traces(M)
    assert_allclose(t_mm, 0.25 * math.fsum(trigamma(jv - 0.5)), rtol=1e-14)
    assert_allclose(t_pp, 0.25 * math.fsum(trigamma(M + 0.5 + jv)), rtol=1e-14)


def test_trace_mm_log_growth():
    t1, _ = k_part_traces(512)
    t2, _ = k_part_traces(1024)
    assert_allclose(t2 - t1, 0.25 * math.log(2.0), rtol=0.01)


def test_dirichlet_flux_logdet_zero_delta():
    assert dirichlet_flux_logdet(0.0, 32) == 0.0
    assert dirichlet_flux_logdet(0.0, 33) == 0.0


def test_dirichlet_flux_logdet_m1():
    # det(1 - (2/pi^2) K_11) with K_11 from the brute-force oracle
    k11 = k_entry_bruteforce(1, 1, 1, l_terms=10**6)
    expected = 1.0 - (4.0 / math.pi**2) * math.sin(math.pi / 4) ** 2 * k11
    assert_allclose(math.exp(dirichlet_flux_logdet(math.pi / 4, 2)), abs(expected), rtol=1e-11)


@pytest.mark.parametrize("delta,N", [(math.pi / 4, 16), (math.pi / 3, 32), (3 * math.pi / 8, 64),
                                     (math.pi / 4, 17), (math.pi / 3, 33), (3 * math.pi / 8, 65)])
def test_block_reduction_agreement(delta, N):
    # delta in (-pi/2, pi/2) is its own flux decomposition
    ld_block = log_det(flux_matrix(delta, BoundaryCondition.DIRICHLET, N))
    assert abs(ld_block - dirichlet_flux_logdet(delta, N)) < 1e-8


# fluxes of both signs, n_L = 0, 1 and 2, and delta = pi/2 reached from -pi/2, pi/2 and 3 pi/2
REDUCTION_FLUXES = [0.3, math.pi / 4, -1.1, 2.0, 2.0 + math.pi, math.pi / 2, -math.pi / 2, 3 * math.pi / 2]


@pytest.mark.parametrize("flux", REDUCTION_FLUXES)
def test_dirichlet_flux_logdet_matches_lu_for_every_n(flux):
    # the parity Schur complement holds for both parities; at delta = pi/2 the
    # odd-N jump matrix is exactly singular and both routes give -inf
    delta = flux_decomposition(flux)[1]
    for N in range(1, 65):
        dense = log_det(flux_matrix(flux, BoundaryCondition.DIRICHLET, N))
        reduced = dirichlet_flux_logdet(delta, N)
        if math.isinf(dense) or math.isinf(reduced):
            assert dense == reduced == -math.inf and N % 2 and delta == math.pi / 2, (N, dense, reduced)
        else:
            assert abs(dense - reduced) <= 1e-12, (N, dense - reduced)


def _dense_jump_logdet(K: np.ndarray, delta: float, N: int) -> float:
    A = np.eye(len(K)) - (4.0 / math.pi**2) * math.sin(delta) ** 2 * K
    if N % 2:
        return log_det(A) + (-math.inf if abs(delta) == math.pi / 2 else math.log(abs(math.cos(delta))))
    return log_det(A)


@pytest.mark.parametrize("N", [1, 2, 3, 48, 49, 181, 1024, 4097, 8192])
def test_dirichlet_flux_logdet_matches_dense_k_route(N):
    # the sketch is exact for M <= 24 and low rank beyond; the dense oracle
    # factors I - alpha K with K from k_matrix
    K = k_matrix(N)
    assert dirichlet_flux_logdet(0.0, N) == 0.0
    for delta in (math.pi / 4, 1.2375, math.pi / 2):
        engine, dense = dirichlet_flux_logdet(delta, N), _dense_jump_logdet(K, delta, N)
        # the log-det depends on delta through sin^2 and |cos| alone
        assert dirichlet_flux_logdet(-delta, N) == engine
        if math.isinf(dense) or math.isinf(engine):
            assert dense == engine == -math.inf and N % 2 and delta == math.pi / 2
        else:
            assert abs(engine - dense) <= 1e-12, (delta, engine - dense)


@pytest.mark.parametrize("N", [1, 2, 3, 48, 49, 181])
def test_dirichlet_rest_logdet_matches_dense_k_route(N):
    # the parity sketch's log-det, the jump log-det without the odd-N factor log|cos delta|:
    # log det(I - alpha K), finite at delta = pi/2 also for odd N, where D~ = 0
    K = k_matrix(N)
    for delta in (math.pi / 4, 1.2375, math.pi / 2):
        dense = log_det(np.eye(len(K)) - (4.0 / math.pi**2) * math.sin(delta) ** 2 * K)
        rest = dirichlet_rest_sketch(delta, N).log_det
        assert abs(rest - dense) <= 1e-12, (delta, N)
        if N % 2 == 0:
            assert rest == dirichlet_flux_logdet(delta, N)


@pytest.mark.parametrize("N", [1, 2, 3, 16, 17, 64, 65])
def test_parity_factor_matches_the_dense_jump_matrix(N):
    # the odd-row / even-column block of F = c I + i s S is i s B; B's
    # entries carry the signs (-1)^(a+b) that G^T G's similarity drops
    M, T = N // 2, (N + 1) // 2
    signs = (-1.0) ** np.add.outer(np.arange(T), np.arange(M))
    for delta in (math.pi / 4, 1.2375, math.pi / 2):
        forward, adjoint = hilbert_module._parity_factor(N, delta)
        F = flux_matrix(delta, BoundaryCondition.DIRICHLET, N)
        B = signs * (F[0::2, 1::2] / (1j * math.sin(delta))).real
        G = np.vstack([abs(math.cos(delta)) * np.eye(M), abs(math.sin(delta)) * B])
        assert_allclose(forward(np.eye(M)).T, G, rtol=0, atol=1e-15)
        assert_allclose(adjoint(np.eye(N)), G, rtol=0, atol=1e-15)


def test_dirichlet_flux_logdet_doubles_the_sketch_until_certified(monkeypatch):
    # a 2-row sketch cannot hold K's dozen leading eigenvalues, so the
    # certificate rejects it and the sketch doubles until the bound holds.
    # Each pass factors A Q for all k rows of Q at once, so the rows handed
    # to that factorization are the sketch's width; the identity fallback
    # would hand it M = N / 2 rows
    N, delta = 1024, 1.2375
    expected = dirichlet_flux_logdet(delta, N)
    widths = []
    original = matrixcore_module._tsqr_r

    def recorded(blocks):
        widths.append(sum(len(b) for b in blocks))
        return original(blocks)

    monkeypatch.setattr(matrixcore_module, "_tsqr_r", recorded)
    monkeypatch.setattr(hilbert_module, "_SKETCH_COLUMNS", 2)
    doubled = dirichlet_flux_logdet(delta, N)
    assert widths == [2 << i for i in range(len(widths))]
    assert 16 <= widths[-1] < N // 2  # certified before the exact identity sketch
    assert abs(doubled - expected) <= 1e-12


def test_dirichlet_flux_logdet_on_the_bench_grid_is_pinned_to_the_bit():
    # the closed_forms dirichlet_hilbert grid at delta = pi/4: the parity sketch that now also feeds the
    # Dirichlet overlap's G leaves the log-dets of the Ritz sum it certifies as they were, bit for bit
    pinned = {512: "-0x1.23ee323ebd0bbp-1", 1024: "-0x1.3b34e3691f1fep-1", 2048: "-0x1.522ad04faa614p-1",
              4096: "-0x1.68e6eb8ff42cap-1", 8192: "-0x1.7f79cdaf83124p-1"}
    assert {N: dirichlet_flux_logdet(math.pi / 4, N).hex() for N in pinned} == pinned


def test_dirichlet_flux_logdet_is_deterministic():
    for N in (181, 4096):
        assert dirichlet_flux_logdet(1.2375, N).hex() == dirichlet_flux_logdet(1.2375, N).hex()


def test_dirichlet_logdet_decays_in_M():
    delta = math.pi / 4
    vals = [dirichlet_flux_logdet(delta, 2 * m) for m in (8, 12, 16, 24, 32, 48, 64)]
    assert all(b <= a + 1e-12 for a, b in zip(vals[:-1], vals[1:]))


def test_leading_factor_invertibility_margin():
    # smallest singular value of I - (4/pi^2) sin^2 K^{--} stays above
    # 1 - sin^2(delta) (4/pi^2) ||K^{--}||
    delta = 3 * math.pi / 8
    M = 64
    norms = k_part_norms(M)
    lead = np.eye(M) - (4.0 / math.pi**2) * math.sin(delta) ** 2 * k_parts(M)["--"]
    smin = float(np.min(np.linalg.svd(lead, compute_uv=False)))
    margin = 1.0 - math.sin(delta) ** 2 * norms.op_mm * 4.0 / math.pi**2
    assert smin > 0
    assert smin >= margin - 1e-8


def test_k_matrix_domain_error():
    for build in (k_matrix, k_part_norms):
        with pytest.raises(DomainError):
            build(0)
    for args in ((2.0, 4), (0.5, 0)):
        with pytest.raises(DomainError):
            dirichlet_flux_logdet(*args)
