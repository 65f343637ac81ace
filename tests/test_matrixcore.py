from __future__ import annotations

import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import flux_catastrophe.matrixcore as matrixcore_module
from flux_catastrophe.asymptotics import fh_log_det
from flux_catastrophe.errors import DomainError, NumericalError
from flux_catastrophe.matrixcore import (
    fh_matrix,
    log_det,
    operator_norm,
    ritz_sketch,
    toeplitz,
    toeplitz_hankel_operator,
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


def _dense_trace_norm(m):
    """trace_norm of a dense matrix: the matrix itself as the core, with the identity Gram matrix."""
    return trace_norm(m, np.eye(len(m)))


def test_norms_on_diagonal_matrix():
    m = np.diag([1.0, -2.0, 3.0])
    assert_allclose(_dense_trace_norm(m), 6.0, rtol=1e-14)
    assert_allclose(operator_norm(m.__matmul__, 3), 3.0, rtol=1e-10)


def test_trace_norm_rank_one():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    m = np.outer(u, v.conj())
    assert_allclose(_dense_trace_norm(m), np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-12)
    # operator_norm takes symmetric operators only: u u^T has norm |u|^2
    r = u.real
    assert_allclose(operator_norm(np.outer(r, r).__matmul__, 7), r @ r, rtol=1e-9)


def test_norms_vs_eigendecomposition_oracle():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # independent oracle: singular values from the hermitian eigenproblem of m* m
    sv = np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0))
    assert_allclose(_dense_trace_norm(m), float(np.sum(sv)), rtol=1e-9)
    # a random real symmetric matrix: the norm is the largest |eigenvalue|
    sym = m.real + m.real.T
    assert_allclose(operator_norm(sym.__matmul__, 6), float(np.max(np.abs(np.linalg.eigvalsh(sym)))), rtol=1e-9)


def test_norm_sandwich_property():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        m = a + a.T
        op, tr = operator_norm(m.__matmul__, n), _dense_trace_norm(m)
        rank = np.linalg.matrix_rank(m)
        assert op <= tr + 1e-10
        assert tr <= rank * op + 1e-8


@pytest.mark.parametrize("n", [8, 256])
def test_trace_norm_zero_matrix_is_exactly_zero(n):
    assert _dense_trace_norm(np.zeros((n, n), dtype=complex)) == 0.0


@pytest.mark.parametrize("p, n", [(12, 40), (40, 12)], ids=["p-below-n", "p-above-n"])
def test_trace_norm_from_core_and_gram_matches_the_sandwich(p, n):
    # sigma(V^H C V) from C and G = V V^H alone, for V of full row rank
    # (p < n) and for a singular G (p > n), against the SVD of V^H C V
    rng = np.random.default_rng(p * n)
    v = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    c = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    dense = np.linalg.svd(v.conj().T @ c @ v, compute_uv=False).sum()
    assert_allclose(trace_norm(c, v @ v.conj().T), dense, rtol=1e-10)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((4, 4)).__matmul__, 4) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4097])
def test_toeplitz_product_matches_dense_toeplitz(n):
    rng = np.random.default_rng(n)
    t = rng.standard_normal(2 * n - 1)
    v = rng.standard_normal(n)
    fast = toeplitz_hankel_operator(t)(v)
    assert fast.shape == (n,)
    # FFT rounding is relative to |t| |v|; an index slip is an O(1) error
    assert_allclose(fast, toeplitz(t, n) @ v, rtol=0, atol=1e-14 * np.linalg.norm(t) * np.linalg.norm(v))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4097])
def test_toeplitz_product_of_a_block_matches_its_columns(n):
    # one vector per row of the (k, n) block
    rng = np.random.default_rng(n)
    t = rng.standard_normal(2 * n - 1)
    block = rng.standard_normal((3, n))
    product = toeplitz_hankel_operator(t)
    fast = product(block)
    assert fast.shape == (3, n) and fast.flags.c_contiguous
    for row in range(3):
        assert_allclose(fast[row], product(block[row]), rtol=0, atol=1e-14 * np.linalg.norm(t)
                        * np.linalg.norm(block[row]))
    assert_allclose(fast, block @ toeplitz(t, n).T, rtol=0, atol=1e-14 * np.linalg.norm(t) * np.linalg.norm(block))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4097])
def test_toeplitz_product_of_a_complex_block_matches_dense_toeplitz(n):
    rng = np.random.default_rng(n)
    t = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
    block = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    product = toeplitz_hankel_operator(t)
    fast = product(block)
    assert fast.shape == (3, n) and np.iscomplexobj(fast)
    assert_allclose(fast, block @ toeplitz(t, n).T, rtol=0, atol=1e-14 * np.linalg.norm(t) * np.linalg.norm(block))
    # a real block under a complex kernel takes the complex transform too
    assert_allclose(product(block.real), block.real @ toeplitz(t, n).T, rtol=0,
                    atol=1e-14 * np.linalg.norm(t) * np.linalg.norm(block))


def _dense_t_minus_h(t, h, n):
    """T(t) - H(h) indexed entry by entry, t[(n - 1) + j - k] - h[j + k], either part None for zero."""
    j, k = np.ogrid[:n, :n]
    return (0.0 if t is None else t[(n - 1) + j - k]) - (0.0 if h is None else h[j + k])


@pytest.mark.parametrize("n", [1, 2, 3, 64, 181, 724])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_toeplitz_hankel_operator_matches_dense_t_minus_h(n, kind):
    rng = np.random.default_rng(n)

    def symbol():
        s = rng.standard_normal(2 * n - 1)
        return s + 1j * rng.standard_normal(2 * n - 1) if kind == "complex" else s

    t, h = symbol(), symbol()
    vector = rng.standard_normal(n)
    block = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    for tt, hh in ((t, h), (t, None), (None, h)):
        dense = _dense_t_minus_h(tt, hh, n)
        product = toeplitz_hankel_operator(tt, hh)
        scale = 1e-14 * (np.linalg.norm(t) + np.linalg.norm(h))
        # a real vector, a complex block (a real symbol splits it in two real blocks) and its real part
        for v in (vector, block, block.real):
            fast = product(v)
            assert fast.shape == v.shape and fast.flags.c_contiguous
            assert np.iscomplexobj(fast) == (kind == "complex" or np.iscomplexobj(v))
            assert_allclose(fast, v @ dense.T, rtol=0, atol=scale * np.linalg.norm(v))
        # the adjoint is the operator of the reversed conjugate Toeplitz and the conjugate Hankel symbol
        adjoint = toeplitz_hankel_operator(None if tt is None else tt[::-1].conj(), None if hh is None else hh.conj())
        assert_allclose(adjoint(block), block @ dense.conj(), rtol=0, atol=scale * np.linalg.norm(block))


# -- ritz_sketch: certified log det(A^H A) from block products -------------


def ritz_log_det(*args) -> float:
    return ritz_sketch(*args).log_det


def _known_spectrum(mu: np.ndarray, n: int, seed: int = 7):
    """A = I - U diag(1 - sqrt(1 - mu)) U^H with random orthonormal U, so I - A^H A = U diag(mu) U^H:
    (V -> A V on (k, n) rows, W -> A^H W, tr(I - A^H A), exact log det(A^H A), rows of each A V, U)."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0][:, : len(mu)]
    shrink = 1.0 - np.sqrt(1.0 - mu)
    widths = []

    def adjoint(V):  # A is Hermitian
        return V - ((V @ u.conj()) * shrink) @ u.T

    def forward(V):
        widths.append(V.shape[0])
        return adjoint(V)

    return forward, adjoint, math.fsum(mu), float(np.sum(np.log1p(-mu))), widths, u


def test_ritz_log_det_of_the_zero_operator_is_exactly_zero():
    # E = I - A^H A = 0 for the identity factor
    for n in (1, 5, 300):
        assert ritz_log_det(np.copy, np.copy, 0.0, n, 1e-10, 32) == 0.0


def test_ritz_log_det_raises_at_a_width_short_of_the_spectrum():
    # 0.9 * 0.6^i stays above 1e-10 for i < 44: 32 rows leave 2.8e-7 of the
    # tail behind, and the one pass raises, naming its width and the tail,
    # rather than return an uncertified sum or widen the sketch
    mu = 0.9 * 0.6 ** np.arange(80)
    forward, adjoint, trace, _exact, widths, _u = _known_spectrum(mu, 400)
    with pytest.raises(NumericalError, match="sketch width") as info:
        ritz_log_det(forward, adjoint, trace, 400, 1e-10, 32)
    assert widths == [32, 32]
    assert info.value.context["k"] == 32 and info.value.context["tail"] > 1e-10


def test_ritz_log_det_certifies_a_spectrum_wider_than_32_in_one_pass_at_64():
    # the same spectrum: 64 rows hold everything above rounding, so one pass,
    # E on the 64 sketch rows and then A on the 64 rows of Q, certifies
    mu = 0.9 * 0.6 ** np.arange(80)
    forward, adjoint, trace, exact, widths, _u = _known_spectrum(mu, 400)
    assert abs(ritz_log_det(forward, adjoint, trace, 400, 1e-10, 64) - exact) <= 1e-10
    assert widths == [64, 64]


@pytest.mark.parametrize("width, k", [(5, 32), (40, 64)])
def test_ritz_sketch_hands_back_its_last_pass(width, k):
    # A = [A_0; A_0] / sqrt 2 maps C^n to C^2n with A^H A = A_0^H A_0: the sketch returns all k rows of Q,
    # A Q's rows past n, the R of (A Q)^T and the terms of its certificate, each against the same quantity
    # formed from Q directly
    n = 300
    forward0, adjoint0, trace, exact, _widths, _u = _known_spectrum(0.9 * 0.5 ** np.arange(width), n)

    def forward(V):
        half = forward0(V) / math.sqrt(2.0)
        return np.concatenate([half, half], axis=1)

    def adjoint(W):
        return (adjoint0(np.ascontiguousarray(W[:, :n])) + adjoint0(np.ascontiguousarray(W[:, n:]))) / math.sqrt(2.0)

    sketch = ritz_sketch(forward, adjoint, trace, n, 1e-10, k)
    q, aq = sketch.q, forward(sketch.q)
    assert abs(sketch.log_det - exact) <= 1e-10 and q.shape == (k, n)
    assert_allclose(q @ q.conj().T, np.eye(k), rtol=0, atol=1e-14)
    assert_allclose(sketch.rest, aq[:, n:], rtol=0, atol=1e-14)
    assert_allclose(sketch.r.conj().T @ sketch.r, aq.conj() @ aq.T, rtol=0, atol=1e-14)
    sigma = np.linalg.svd(sketch.r, compute_uv=False)
    assert abs(sketch.tail - (trace - np.sum(1.0 - sigma**2))) <= 1e-14
    eq = q - adjoint(aq)
    residual = eq - (eq @ q.conj().T) @ q
    assert_allclose(sketch.residual, residual @ residual.conj().T, rtol=0, atol=1e-28)


def test_tsqr_over_column_slices_matches_one_householder_qr(monkeypatch):
    # a 24-row block of rank 10 in 7 column slices (from a 1 MB budget): the
    # R factor has the singular values of one QR, and the rows overwritten in
    # place are orthonormal and span the block's rows
    monkeypatch.setattr(matrixcore_module, "_BLOCK_BYTES", 1 << 20)
    rng = np.random.default_rng(5)
    y = (rng.standard_normal((24, 10)) + 1j * rng.standard_normal((24, 10))) @ rng.standard_normal((10, 5000))
    assert len(matrixcore_module._column_slices(24, 5000)) == 7
    sigma = np.linalg.svd(y, compute_uv=False)
    r = matrixcore_module._tsqr_r(y)
    assert_allclose(np.linalg.svd(r, compute_uv=False), sigma, rtol=0, atol=1e-12 * sigma[0])
    q = y.copy()
    matrixcore_module._orthonormalize(q)
    assert_allclose(q @ q.conj().T, np.eye(24), rtol=0, atol=1e-14)
    assert_allclose(y - (y @ q.conj().T) @ q, 0.0, rtol=0, atol=1e-12 * sigma[0])


def test_ritz_log_det_of_a_low_rank_spectrum_needs_one_sketch():
    mu = np.array([0.999, 0.5, 0.25, 1e-3, 1e-8])
    forward, adjoint, trace, exact, widths, _u = _known_spectrum(mu, 300)
    assert abs(ritz_log_det(forward, adjoint, trace, 300, 1e-10, 32) - exact) <= 1e-12
    assert widths == [32, 32]


def test_ritz_log_det_carries_matvec_rounding_through_the_top_ritz_value():
    # s_min = sqrt(1 - mu_max) = 1e-3, so 2 log2(600) eps / s_min = 4.4e-12 of
    # rounding alone: the rounding grows with k, so no wider sketch meets a
    # 1e-12 budget, and the message says so
    mu = np.array([1.0 - 1e-6, 0.5, 0.25, 1e-3, 1e-8])
    forward, adjoint, trace, exact, widths, _u = _known_spectrum(mu, 300)
    with pytest.raises(NumericalError, match="rounding alone") as info:
        ritz_log_det(forward, adjoint, trace, 300, 1e-12, 32)
    context = info.value.context
    assert context["requested"] == 1e-12
    assert context["achieved"] >= 2 * 10 * np.finfo(float).eps / 1e-3
    assert context["k"] == 32
    assert abs(context["s_min"] - 1e-3) <= 1e-9
    assert widths == [32, 32]
    # the same spectrum meets a 1e-10 budget with the same sketch
    assert abs(ritz_log_det(forward, adjoint, trace, 300, 1e-10, 32) - exact) <= 1e-10


def test_ritz_log_det_rejects_a_misaligned_sketch():
    # the first sketch is pushed out of range(E) by about 1e-6: the trace gap
    # is then ~1e-12, but s_min^2 = 1e-4 turns the coupling to the missed
    # directions into a log-det error of ~1e-8, which only the residual term
    # of the certificate sees: the tail stays within the budget, the bound
    # does not, and the one pass raises.  The aligned sketch certifies
    n = 64
    mu = np.concatenate([[1.0 - 1e-4], 0.5 ** np.arange(1, 10)])
    forward, adjoint, trace, exact, widths, u = _known_spectrum(mu, n, seed=3)

    def first_sketch_off(V):
        out = forward(V)
        if len(widths) == 1:
            noise = np.random.default_rng(11).standard_normal((V.shape[0], n)) + 0j
            noise -= (noise @ u.conj()) @ u.T  # A is the identity on it, so E V moves by -noise
            size = np.linalg.norm(V - adjoint(out))  # of E V
            out = out + 1e-6 * size / np.linalg.norm(noise) * noise
        return out

    with pytest.raises(NumericalError, match="sketch width") as info:
        ritz_log_det(first_sketch_off, adjoint, trace, n, 1e-10, 32)
    assert widths == [32, 32]
    assert info.value.context["tail"] <= 1e-10 < info.value.context["achieved"]
    assert abs(ritz_log_det(forward, adjoint, trace, n, 1e-10, 32) - exact) <= 1e-10


def test_sketch_rows_are_one_stream_of_signs():
    # n = 45 is not a whole number of 32-bit words: each row still starts on a word
    rng = random.Random(matrixcore_module._SKETCH_SEED)
    parts = [matrixcore_module._signs(rng, rows, 45) for rows in (3, 5)]
    whole = matrixcore_module._signs(random.Random(matrixcore_module._SKETCH_SEED), 8, 45)
    assert np.array_equal(np.concatenate(parts), whole)
    assert whole.shape == (8, 45) and np.all(np.abs(whole) == 1.0)
    assert 0 < np.count_nonzero(whole > 0) < whole.size


def test_ritz_log_det_sketches_the_first_rows_of_the_stream():
    # the one pass sketches the first 64 rows of the fixed-seed sign stream,
    # each row as drawn (E = I - A^H A is applied to the sketch as
    # omega - A^H (A omega))
    mu = 0.9 * 0.6 ** np.arange(80)
    forward, adjoint, trace, _exact, _widths, _u = _known_spectrum(mu, 400)
    seen = []

    def recording(V):
        seen.append(V.copy())
        return forward(V)

    ritz_log_det(recording, adjoint, trace, 400, 1e-10, 64)
    assert np.array_equal(seen[0], matrixcore_module._signs(random.Random(matrixcore_module._SKETCH_SEED), 64, 400))


def test_operator_norm_is_bit_identical_on_repeat():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((50, 50))
    sym = m + m.T
    assert operator_norm(sym.__matmul__, 50).hex() == operator_norm(sym.__matmul__, 50).hex()


def test_ritz_log_det_is_bit_identical_on_repeat():
    mu = 0.9 * 0.6 ** np.arange(80)
    forward, adjoint, trace, _exact, _widths, _u = _known_spectrum(mu, 400)
    first = ritz_log_det(forward, adjoint, trace, 400, 1e-10, 64)
    assert first.hex() == ritz_log_det(forward, adjoint, trace, 400, 1e-10, 64).hex()


def test_ritz_log_det_identity_sketch_is_exact_for_small_n():
    # k >= n: Q = I, so the sum runs over the singular values of A itself
    mu = np.array([0.9, 0.3, 0.1])
    forward, adjoint, trace, exact, widths, _u = _known_spectrum(mu, 6)
    assert abs(ritz_log_det(forward, adjoint, trace, 6, 1e-10, 32) - exact) <= 1e-14
    assert widths == [6]


def test_ritz_log_det_of_the_zero_factor_is_minus_infinity():
    # A = 0: E = I, and every singular value of A Q is exactly zero
    for n in (6, 300):
        assert ritz_log_det(np.zeros_like, np.zeros_like, float(n), n, 1e-10, 32) == -math.inf


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
