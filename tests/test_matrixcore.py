from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from flux_catastrophe.errors import DomainError
from flux_catastrophe.matrixcore import (
    fh_log_det,
    fh_matrix,
    log_det,
    operator_norm,
    ritz_log_det,
    toeplitz,
    toeplitz_product,
    trace_norm,
)
from oracles import BasisSpec, assemble_toeplitz, cauchy_fh_logdet_sq, cofactor_det


# -- fh_matrix --------------------------------------------------------------


def test_fh_identity_at_zero():
    assert_allclose(fh_matrix(0.0, 6), np.eye(6), atol=0)


def test_fh_entry_values():
    m = fh_matrix(math.pi / 4, 4)
    # frozen from the closed formulas sin(d)/d and sin(d)/(d - pi)
    assert_allclose(m[0, 0], 0.9003163161571061, rtol=1e-15)
    assert_allclose(m[1, 0], -0.3001054387190353, rtol=1e-13)
    assert_allclose(m[0, 1], math.sin(math.pi / 4) / (math.pi / 4 + math.pi), rtol=1e-15)


def test_fh_small_delta_series_branch():
    d = 1e-6
    m = fh_matrix(d, 3)
    assert_allclose(m[0, 0], math.sin(d) / d, rtol=1e-15)
    assert fh_matrix(0.0, 3)[0, 0] == 1.0


@pytest.mark.parametrize("delta", [5e-324, 1e-300, 1e-9, 9.9e-5, 1e-4, 0.3])
def test_fh_diagonal_is_sin_delta_over_delta_to_one_ulp(delta):
    # the Toeplitz formula at d = 0, for either sign of delta, against 40 digits
    with mpmath.workdps(40):
        exact = float(mpmath.sin(mpmath.mpf(delta)) / mpmath.mpf(delta))
    for signed in (delta, -delta):
        diagonal = fh_matrix(signed, 3).diagonal()
        assert np.all(np.abs(diagonal - exact) <= math.ulp(exact)), (signed, diagonal - exact)


def test_fh_domain_error():
    # |delta| = pi/2 gives the nonsingular Cauchy matrix -+1 / (pi (-+1/2 - (j-k)))
    assert fh_matrix(-math.pi / 2, 4)[0, 1] == pytest.approx(-2.0 / math.pi, rel=1e-15)
    with pytest.raises(DomainError):
        fh_matrix(np.nextafter(math.pi / 2, 4.0), 4)
    with pytest.raises(DomainError):
        fh_matrix(0.3, 0)


def test_fh_depends_only_on_difference():
    m = fh_matrix(0.6, 9)
    assert m.flags.c_contiguous and m.flags.writeable
    assert float(max(np.ptp(np.diagonal(m, d)) for d in range(-8, 9))) == 0.0


# -- fh_log_det: the O(N) Cauchy sum ------------------------------------------

FH_DELTAS = [0.0, 1e-5, 0.3, math.pi / 4, -1.0, math.pi / 2, -math.pi / 2]


@pytest.mark.parametrize("N", [1, 2, 3, 63, 64, 65, 181, 512, 10**4])
def test_fh_log_det_matches_50_digit_cauchy_product(N):
    for delta in FH_DELTAS:
        assert abs(2.0 * fh_log_det(delta, N) - cauchy_fh_logdet_sq(delta, N)) <= 1e-13, delta


@pytest.mark.parametrize("N", [1, 2, 3, 64, 65, 511, 2048])
def test_fh_log_det_matches_dense_lu(N):
    for delta in FH_DELTAS:
        assert abs(fh_log_det(delta, N) - log_det(fh_matrix(delta, N))) <= 1e-11, delta


@pytest.mark.parametrize("N", [1, 63, 64, 10**6])
def test_fh_log_det_returns_a_python_float(N):
    for delta in (0.0, math.pi / 4, -math.pi / 2):
        assert type(fh_log_det(delta, N)) is float, (delta, N)


def test_fh_log_det_is_exactly_zero_at_delta_zero():
    assert fh_log_det(0.0, 1) == 0.0 and fh_log_det(0.0, 10**6) == 0.0


@pytest.mark.parametrize("delta", [0.3, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("N", [10**6, 10**7])
def test_fh_log_det_approaches_the_barnes_g_constant(delta, N):
    # log|det|^2 = -2 c^2 ln N + 2 log G(1+c) G(1-c) + O(N^-2); the O(N^-2)
    # term is 3e-14 at N = 10^6, so the sum holds no cancellation of size N^2
    c = delta / math.pi
    with mpmath.workdps(30):
        constant = float(2 * mpmath.log(mpmath.barnesg(1 + c) * mpmath.barnesg(1 - c)))
    assert abs(2.0 * fh_log_det(delta, N) + 2.0 * c * c * math.log(N) - constant) <= 1e-12


def test_fh_log_det_at_ten_million_allocates_no_array_of_size_n():
    fh_log_det(math.pi / 4, 64)  # warm-up: imports and caches outside the trace
    tracemalloc.start()
    try:
        fh_log_det(math.pi / 4, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_fh_log_det_domain():
    assert math.isfinite(fh_log_det(-math.pi / 2, 4))
    with pytest.raises(DomainError):
        fh_log_det(np.nextafter(math.pi / 2, 4.0), 4)
    with pytest.raises(DomainError):
        fh_log_det(0.3, 0)


# -- log_det ----------------------------------------------------------------


def test_log_det_identity_and_diag():
    assert log_det(np.eye(7)) == 0.0
    assert_allclose(log_det(np.diag([2.0, 2.0, 2.0])), math.log(8.0), rtol=1e-15)


def test_log_det_negative_real():
    assert_allclose(log_det(np.diag([-1.0, 2.0])), math.log(2.0), rtol=1e-15)


def test_log_det_singular():
    assert log_det(np.zeros((3, 3))) == -math.inf


def test_log_det_vs_cofactor_oracle():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert_allclose(log_det(m), math.log(abs(cofactor_det(m))), rtol=1e-10)


def test_log_det_product_rule():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert_allclose(log_det(a @ b), log_det(a) + log_det(b), rtol=1e-9, atol=1e-12)


def test_log_det_requires_square():
    with pytest.raises(DomainError):
        log_det(np.ones((2, 3)))


# -- norms --------------------------------------------------------------------


def test_norms_on_diagonal_matrix():
    m = np.diag([1.0, -2.0, 3.0])
    assert_allclose(trace_norm(m), 6.0, rtol=1e-14)
    assert_allclose(operator_norm(m.__matmul__, 3), 3.0, rtol=1e-10)


def test_trace_norm_rank_one():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    m = np.outer(u, v.conj())
    assert_allclose(trace_norm(m), np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-12)
    # operator_norm takes symmetric operators only: u u^T has norm |u|^2
    r = u.real
    assert_allclose(operator_norm(np.outer(r, r).__matmul__, 7), r @ r, rtol=1e-9)


def test_norms_vs_eigendecomposition_oracle():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # independent oracle: singular values from the hermitian eigenproblem of m* m
    sv = np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0))
    assert_allclose(trace_norm(m), float(np.sum(sv)), rtol=1e-9)
    # a random real symmetric matrix: the norm is the largest |eigenvalue|
    sym = m.real + m.real.T
    assert_allclose(operator_norm(sym.__matmul__, 6), float(np.max(np.abs(np.linalg.eigvalsh(sym)))), rtol=1e-9)


def test_norm_sandwich_property():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        m = a + a.T
        op, tr = operator_norm(m.__matmul__, n), trace_norm(m)
        rank = np.linalg.matrix_rank(m)
        assert op <= tr + 1e-10
        assert tr <= rank * op + 1e-8


def _recording_svd(monkeypatch):
    """Record the shape of every matrix passed to np.linalg.svd."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


@pytest.mark.parametrize("n", [8, 256])
def test_trace_norm_zero_matrix_is_exactly_zero(n):
    assert trace_norm(np.zeros((n, n), dtype=complex)) == 0.0


def test_trace_norm_full_rank_takes_dense_fallback(monkeypatch):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    dense = np.linalg.svd(m, compute_uv=False).sum()
    shapes = _recording_svd(monkeypatch)
    tn = trace_norm(m)
    # sketches of 32 and 64 columns fail the certificate; 128 = N/2 is dense
    assert shapes == [(32, 256), (64, 256), (256, 256)]
    assert tn == float(dense)


def test_trace_norm_low_rank_certified_by_sketch(monkeypatch):
    rng = np.random.default_rng(9)
    u = rng.standard_normal((300, 5)) + 1j * rng.standard_normal((300, 5))
    v = rng.standard_normal((300, 5)) + 1j * rng.standard_normal((300, 5))
    m = u @ v.conj().T
    dense = np.linalg.svd(m, compute_uv=False).sum()
    shapes = _recording_svd(monkeypatch)
    tn = trace_norm(m)
    assert shapes == [(32, 300)]
    assert_allclose(tn, dense, rtol=1e-10)


def test_trace_norm_rectangular_low_rank():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((400, 3)) @ rng.standard_normal((3, 150))
    assert_allclose(trace_norm(m), np.linalg.svd(m, compute_uv=False).sum(), rtol=1e-10)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((4, 4)).__matmul__, 4) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4097])
def test_toeplitz_product_matches_dense_toeplitz(n):
    rng = np.random.default_rng(n)
    t = rng.standard_normal(2 * n - 1)
    v = rng.standard_normal(n)
    fast = toeplitz_product(t, v)
    assert fast.shape == (n,)
    # FFT rounding is relative to |t| |v|; an index slip is an O(1) error
    assert_allclose(fast, toeplitz(t, n) @ v, rtol=0, atol=1e-14 * np.linalg.norm(t) * np.linalg.norm(v))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4097])
def test_toeplitz_product_of_a_block_matches_its_columns(n):
    rng = np.random.default_rng(n)
    t = rng.standard_normal(2 * n - 1)
    block = rng.standard_normal((n, 3))
    fast = toeplitz_product(t, block)
    assert fast.shape == (n, 3)
    for col in range(3):
        assert_allclose(fast[:, col], toeplitz_product(t, block[:, col]), rtol=0, atol=1e-14 * np.linalg.norm(t)
                        * np.linalg.norm(block[:, col]))
    assert_allclose(fast, toeplitz(t, n) @ block, rtol=0, atol=1e-14 * np.linalg.norm(t) * np.linalg.norm(block))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4097])
def test_toeplitz_product_of_a_complex_block_matches_dense_toeplitz(n):
    rng = np.random.default_rng(n)
    t = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    fast = toeplitz_product(t, block)
    assert fast.shape == (n, 3) and np.iscomplexobj(fast)
    assert_allclose(fast, toeplitz(t, n) @ block, rtol=0, atol=1e-14 * np.linalg.norm(t) * np.linalg.norm(block))
    # a real block under a complex kernel takes the complex transform too
    assert_allclose(toeplitz_product(t, block.real), toeplitz(t, n) @ block.real, rtol=0,
                    atol=1e-14 * np.linalg.norm(t) * np.linalg.norm(block))


# -- ritz_log_det: certified log det(I - E) from block products ---------------


def _known_spectrum(mu: np.ndarray, n: int, seed: int = 7):
    """E = U diag(mu) U^H with random orthonormal U: (V -> E V, tr E, exact log det(I - E), widths seen, U)."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0][:, : len(mu)]
    widths = []

    def apply(V):
        widths.append(V.shape[1])
        return u @ (mu[:, None] * (u.conj().T @ V))

    return apply, math.fsum(mu), float(np.sum(np.log1p(-mu))), widths, u


def test_ritz_log_det_of_the_zero_operator_is_exactly_zero():
    for n in (1, 5, 300):
        assert ritz_log_det(lambda V: np.zeros_like(V), 0.0, n, 1e-10) == 0.0


def test_ritz_log_det_doubles_the_sketch_for_a_spectrum_wider_than_32():
    # 0.9 * 0.6^i stays above 1e-10 for i < 44: 32 columns leave more than
    # the budget behind, 64 hold everything above rounding
    mu = 0.9 * 0.6 ** np.arange(80)
    apply, trace, exact, widths, _u = _known_spectrum(mu, 400)
    got = ritz_log_det(apply, trace, 400, 1e-10)
    assert abs(got - exact) <= 1e-10
    assert widths == [32, 32, 64, 64]


def test_ritz_log_det_of_a_low_rank_spectrum_needs_one_sketch():
    mu = np.array([0.999, 0.5, 0.25, 1e-3, 1e-8])
    apply, trace, exact, widths, _u = _known_spectrum(mu, 300)
    assert abs(ritz_log_det(apply, trace, 300, 1e-10) - exact) <= 1e-12
    assert widths == [32, 32]


def test_ritz_log_det_carries_matvec_rounding_through_the_top_ritz_value():
    # log2(600) eps / (1 - 0.999) = 2.2e-12 of rounding alone: a 1e-12 budget
    # cannot be certified by any sketch, so the doubling ends at the identity
    mu = np.array([0.999, 0.5, 0.25, 1e-3, 1e-8])
    apply, trace, exact, widths, _u = _known_spectrum(mu, 300)
    assert abs(ritz_log_det(apply, trace, 300, 1e-12) - exact) <= 1e-12
    assert widths[-1] == 300


def test_ritz_log_det_rejects_a_misaligned_sketch():
    # the first sketch is pushed out of range(E) by about 1e-6: the trace gap
    # is then ~1e-12, but theta_max = 1 - 1e-4 turns the coupling to the
    # missed directions into a log-det error of ~1e-8, which only the
    # residual term of the certificate sees
    n = 64
    mu = np.concatenate([[1.0 - 1e-4], 0.5 ** np.arange(1, 10)])
    apply, trace, exact, widths, u = _known_spectrum(mu, n, seed=3)

    def first_sketch_off(V):
        out = apply(V)
        if len(widths) == 1:
            noise = np.random.default_rng(11).standard_normal((n, V.shape[1])) + 0j
            noise -= u @ (u.conj().T @ noise)  # E annihilates it
            out = out + 1e-6 * np.linalg.norm(out) / np.linalg.norm(noise) * noise
        return out

    got = ritz_log_det(first_sketch_off, trace, n, 1e-10)
    assert abs(got - exact) <= 1e-10
    assert widths[0] == 32 and widths[-1] == n  # the first sketch was rejected


def test_ritz_log_det_is_bit_identical_on_repeat():
    mu = 0.9 * 0.6 ** np.arange(80)
    apply, trace, _exact, _widths, _u = _known_spectrum(mu, 400)
    assert ritz_log_det(apply, trace, 400, 1e-10).hex() == ritz_log_det(apply, trace, 400, 1e-10).hex()


def test_ritz_log_det_identity_sketch_is_exact_for_small_n():
    # k >= n: Q = I, so the sum runs over the eigenvalues of E itself
    mu = np.array([0.9, 0.3, 0.1])
    apply, trace, exact, widths, _u = _known_spectrum(mu, 6)
    assert abs(ritz_log_det(apply, trace, 6, 1e-10) - exact) <= 1e-14
    assert widths == [6]


# -- reference assembly (tests/oracles.py) ----------------------------------


def test_assemble_identity_symbol_periodic_and_dirichlet():
    for basis in (BasisSpec.periodic_window(3.0, 8), BasisSpec.dirichlet_window(3.0, 8)):
        m = assemble_toeplitz(lambda x: np.ones_like(x, dtype=complex), basis)
        assert_allclose(m, np.eye(8), atol=1e-12)


def test_assemble_shift_symbol_gives_offdiagonal():
    L = 3.0
    basis = BasisSpec.periodic_window(L, 6)
    m = assemble_toeplitz(lambda x: np.exp(1j * np.pi * x / L), basis)
    expected = np.zeros((6, 6))
    for j in range(5):
        expected[j, j + 1] = 1.0  # <phi_j, e^{i pi x/L} phi_k> = delta_{k, j+1}
    assert_allclose(m, expected, atol=1e-12)


def _jump_symbol(delta, L):
    def f(x):
        x = np.asarray(x, dtype=float)
        sgn = np.where(x >= 0, 1.0, -1.0)
        return np.exp(1j * (delta * sgn - delta * x / L))

    return f


def test_assemble_matches_fh_closed_form_small():
    delta = math.pi / 4
    m = assemble_toeplitz(_jump_symbol(delta, 8.0), BasisSpec.periodic_window(8.0, 16))
    assert float(np.max(np.abs(m - fh_matrix(delta, 16)))) < 1e-9
    diagonals = (np.diagonal(m, d) for d in range(-15, 16))
    assert max(float(np.max(np.abs(diag - diag[0]))) for diag in diagonals) < 1e-9


def test_assemble_max_refine_below_one_is_a_domain_error():
    one = lambda x: np.ones_like(np.asarray(x), dtype=complex)
    with pytest.raises(DomainError, match="max_refine"):
        assemble_toeplitz(one, BasisSpec.periodic_window(8.0, 16), max_refine=0)


# -- Toeplitz properties: linearity, self-adjointness, semidefiniteness and
# ||T(f)^{-1}|| <= 1/delta when Re f >= delta > 0


def _random_trig_symbol(rng, L, degree=3):
    coeff = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    ks = np.arange(-degree, degree + 1)
    return lambda x: coeff @ np.exp(1j * np.pi * np.outer(ks, np.asarray(x, dtype=float)) / L)


def test_assembly_is_linear_in_the_symbol():
    rng = np.random.default_rng(7)
    basis = BasisSpec.periodic_window(2.0, 8)
    g, h = _random_trig_symbol(rng, 2.0), _random_trig_symbol(rng, 2.0)
    alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    combo = assemble_toeplitz(lambda x: alpha * g(x) + beta * h(x), basis)
    parts = alpha * assemble_toeplitz(g, basis) + beta * assemble_toeplitz(h, basis)
    assert float(np.max(np.abs(combo - parts))) <= 1e-9


def _assert_real_symbol_properties(m, floor):
    """T(f) of a real symbol f >= floor > 0: self-adjoint, PSD, ||T^-1|| <= 1/floor."""
    assert float(np.max(np.abs(m - m.conj().T))) <= 1e-9
    assert float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))) >= -1e-10
    inverse_norm = np.linalg.norm(np.linalg.inv(m), 2)
    assert inverse_norm <= 1.0 / floor + 1e-8
    return inverse_norm


def test_property_checks_identity_symbol():
    one = lambda x: np.ones_like(np.asarray(x), dtype=complex)
    m = assemble_toeplitz(one, BasisSpec.periodic_window(2.0, 6))
    assert _assert_real_symbol_properties(m, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_property_checks_shifted_cosine():
    L = 2.0
    f = lambda x: (2.0 + np.cos(np.pi * np.asarray(x) / L)).astype(complex)
    _assert_real_symbol_properties(assemble_toeplitz(f, BasisSpec.periodic_window(L, 10)), 1.0)


def test_property_checks_fh_symbol_inverse_bound():
    # Re e^{i g~} >= cos(delta), so ||T^{-1}|| <= 1/cos(delta)
    delta = math.pi / 4
    assert np.linalg.norm(np.linalg.inv(fh_matrix(delta, 24)), 2) <= 1.0 / math.cos(delta) + 1e-8
