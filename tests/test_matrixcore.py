from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flux_catastrophe.errors import DomainError
from flux_catastrophe.matrixcore import (
    BasisSpec,
    SymbolKind,
    assemble_toeplitz,
    fh_matrix,
    load_binary,
    log_det,
    operator_norm,
    save_binary,
    save_csv,
    toeplitz_property_checks,
    trace_norm,
)
from flux_catastrophe.spectrum import BoundaryCondition
from oracles import cofactor_det


# -- fh_matrix --------------------------------------------------------------


def test_fh_identity_at_zero():
    m = fh_matrix(0.0, 6)
    assert_allclose(m.entries, np.eye(6), atol=0)


def test_fh_entry_values():
    m = fh_matrix(math.pi / 4, 4)
    # frozen from the closed formulas sin(d)/d and sin(d)/(d - pi)
    assert_allclose(m.entries[0, 0], 0.9003163161571061, rtol=1e-15)
    assert_allclose(m.entries[1, 0], -0.3001054387190353, rtol=1e-13)
    assert_allclose(m.entries[0, 1], math.sin(math.pi / 4) / (math.pi / 4 + math.pi), rtol=1e-15)


def test_fh_small_delta_series_branch():
    d = 1e-6
    m = fh_matrix(d, 3)
    assert_allclose(m.entries[0, 0], math.sin(d) / d, rtol=1e-15)
    assert fh_matrix(0.0, 3).entries[0, 0] == 1.0


def test_fh_domain_error():
    with pytest.raises(DomainError):
        fh_matrix(math.pi / 2, 4)
    with pytest.raises(DomainError):
        fh_matrix(0.3, 0)


def test_fh_depends_only_on_difference():
    m = fh_matrix(0.6, 9).entries
    assert float(max(np.ptp(np.diagonal(m, d)) for d in range(-8, 9))) == 0.0


# -- log_det ----------------------------------------------------------------


def test_log_det_identity_and_diag():
    ld = log_det(np.eye(7))
    assert ld.log_magnitude == 0.0 and ld.phase == 0.0
    ld = log_det(np.diag([2.0, 2.0, 2.0]))
    assert_allclose(ld.log_magnitude, math.log(8.0), rtol=1e-15)
    assert ld.phase == 0.0


def test_log_det_negative_real():
    ld = log_det(np.diag([-1.0, 2.0]))
    assert_allclose(ld.log_magnitude, math.log(2.0), rtol=1e-15)
    assert_allclose(ld.phase, math.pi, atol=0)


def test_log_det_singular():
    ld = log_det(np.zeros((3, 3)))
    assert ld.log_magnitude == -math.inf and ld.phase == 0.0


def test_log_det_vs_cofactor_oracle():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ld = log_det(m)
    oracle = cofactor_det(m)
    assert_allclose(ld.log_magnitude, math.log(abs(oracle)), rtol=1e-10)
    phase_diff = (ld.phase - np.angle(oracle) + math.pi) % (2 * math.pi) - math.pi
    assert abs(phase_diff) < 1e-10


def test_log_det_product_rule():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        la, lb, lab = log_det(a), log_det(b), log_det(a @ b)
        assert_allclose(lab.log_magnitude, la.log_magnitude + lb.log_magnitude, rtol=1e-9, atol=1e-12)
        wrap = (la.phase + lb.phase - lab.phase + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrap) < 1e-9


def test_log_det_requires_square():
    with pytest.raises(DomainError):
        log_det(np.ones((2, 3)))


# -- norms --------------------------------------------------------------------


def test_norms_on_diagonal_matrix():
    m = np.diag([1.0, -2.0, 3.0])
    assert_allclose(trace_norm(m), 6.0, rtol=1e-14)
    assert_allclose(operator_norm(m), 3.0, rtol=1e-10)


def test_trace_norm_rank_one():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    m = np.outer(u, v.conj())
    assert_allclose(trace_norm(m), np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-12)
    assert_allclose(operator_norm(m), np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-9)


def test_norms_vs_eigendecomposition_oracle():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # independent oracle: singular values from the hermitian eigenproblem of m* m
    sv = np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0))
    assert_allclose(trace_norm(m), float(np.sum(sv)), rtol=1e-9)
    assert_allclose(operator_norm(m), float(np.max(sv)), rtol=1e-9)


def test_norm_sandwich_property():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n))
        op, tr = operator_norm(m), trace_norm(m)
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
    assert operator_norm(np.zeros((4, 4))) == 0.0


# -- assembly -----------------------------------------------------------------


def test_assemble_identity_symbol_periodic_and_dirichlet():
    for basis in (BasisSpec.periodic_window(3.0, 8), BasisSpec.dirichlet_window(3.0, 8)):
        m = assemble_toeplitz(lambda x: np.ones_like(x, dtype=complex), basis)
        assert_allclose(m.entries, np.eye(8), atol=1e-12)


def test_assemble_shift_symbol_gives_offdiagonal():
    L = 3.0
    basis = BasisSpec.periodic_window(L, 6)
    m = assemble_toeplitz(lambda x: np.exp(1j * np.pi * x / L), basis)
    expected = np.zeros((6, 6))
    for j in range(5):
        expected[j, j + 1] = 1.0  # <phi_j, e^{i pi x/L} phi_k> = delta_{k, j+1}
    assert_allclose(m.entries, expected, atol=1e-12)


def test_assemble_matches_fh_closed_form_small():
    delta = math.pi / 4
    L = 8.0
    basis = BasisSpec.periodic_window(L, 16)

    def jump_symbol(x):
        x = np.asarray(x, dtype=float)
        sgn = np.where(x >= 0, 1.0, -1.0)
        return np.exp(1j * (delta * sgn - delta * x / L))

    m = assemble_toeplitz(jump_symbol, basis, symbol_kind=SymbolKind.DISCONTINUOUS_FLUX)
    assert float(np.max(np.abs(m.entries - fh_matrix(delta, 16).entries))) < 1e-9
    assert m.toeplitz_deviation() < 1e-9


def test_property_checks_identity_symbol():
    basis = BasisSpec.periodic_window(2.0, 6)
    one = lambda x: np.ones_like(np.asarray(x), dtype=complex)
    m = assemble_toeplitz(one, basis)
    rep = toeplitz_property_checks(one, m, re_lower_bound=1.0)
    assert rep.passed, rep.summary()
    inverse_clause = [c for c in rep.clauses if c.name == "inverse-bound"][0]
    assert "1.000000" in inverse_clause.detail


def test_property_checks_shifted_cosine():
    L = 2.0
    basis = BasisSpec.periodic_window(L, 10)
    f = lambda x: (2.0 + np.cos(np.pi * np.asarray(x) / L)).astype(complex)
    m = assemble_toeplitz(f, basis)
    rep = toeplitz_property_checks(f, m, re_lower_bound=1.0)
    assert rep.passed, rep.summary()


def test_property_checks_fh_symbol_inverse_bound():
    # Re e^{i g~} >= cos(delta), so ||T^{-1}|| <= 1/cos(delta)
    delta = math.pi / 4
    m = fh_matrix(delta, 24)
    m.L = 12.0  # fh matrices are L-independent; give the checker a basis

    def jump_symbol(x):
        x = np.asarray(x, dtype=float)
        sgn = np.where(x >= 0, 1.0, -1.0)
        return np.exp(1j * (delta * sgn - delta * x / 12.0))

    rep = toeplitz_property_checks(jump_symbol, m, re_lower_bound=math.cos(delta))
    assert rep.passed, rep.summary()


def test_property_checks_flag_violation():
    basis = BasisSpec.periodic_window(2.0, 5)
    one = lambda x: np.ones_like(np.asarray(x), dtype=complex)
    m = assemble_toeplitz(one, basis)
    m.entries = m.entries * 0.1  # inverse norm becomes 10 > 1/delta = 1
    rep = toeplitz_property_checks(one, m, re_lower_bound=1.0)
    assert not rep.passed
    assert [c.name for c in rep.failures] == ["inverse-bound"]


# -- export -------------------------------------------------------------------


def test_binary_roundtrip(tmp_path):
    m = fh_matrix(0.7, 5)
    path = tmp_path / "m.bin"
    save_binary(m, path)
    back = load_binary(path)
    assert back.n == 5 and back.bc is BoundaryCondition.PERIODIC
    assert back.symbol_kind is SymbolKind.DISCONTINUOUS_FLUX
    assert_allclose(back.entries, m.entries, atol=0)


def test_csv_export(tmp_path):
    m = fh_matrix(0.3, 3)
    path = tmp_path / "m.csv"
    save_csv(m, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + 9
