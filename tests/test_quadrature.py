from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import flux_catastrophe.quadrature as quadrature_module
from flux_catastrophe.errors import NumericalError
from flux_catastrophe.potential import MOMENT_TOL, gaussian_bump_with_flux, moment_integrals
from flux_catastrophe.quadrature import adaptive_gauss_legendre, build_edges, gauss_legendre_rule, panel_nodes


def _recorded(values):
    """estimate(refine) = values[refine], with the refine levels asked for."""
    asked = []

    def estimate(refine):
        asked.append(refine)
        return values[refine]

    return estimate, asked


def test_driver_returns_the_first_settled_scalar():
    # scale 1 (absolute below modulus 1) and scale 0 (relative) agree on estimates of modulus >= 1/2
    for scale in (1.0, 0.0):
        estimate, asked = _recorded([1.0, 1.5, 1.5 + 2e-12, 1.5 + 3e-12, 9.0])
        assert adaptive_gauss_legendre(estimate, 1e-11, scale) == 1.5 + 2e-12
        assert asked == [0, 1, 2]


def test_driver_returns_the_first_settled_array():
    for scale in (1.0, 0.0):
        values = [np.array([0.5, 0.25j]), np.array([0.5, 0.25j + 1e-9]), np.array([0.5 + 1e-13, 0.25j + 1e-9])]
        estimate, asked = _recorded(values)
        assert adaptive_gauss_legendre(estimate, 1e-12, scale) is values[2]
        assert asked == [0, 1, 2]


def test_driver_settles_large_estimates_relative_to_their_size():
    # a change of 1e-6 on an estimate of 1e7 is within 1e-12 * |estimate|
    for scale in (1.0, 0.0):
        estimate, asked = _recorded([1e7, 1e7 + 1e-6])
        assert adaptive_gauss_legendre(estimate, 1e-12, scale) == 1e7 + 1e-6
        assert asked == [0, 1]


def test_driver_scale_zero_makes_the_check_relative():
    # a change of 1e-13 on an estimate of 1e-3 is within 1e-12 * max(1, 1e-3)
    # but not within 1e-12 * max(0, 1e-3)
    values = [1e-3, 1e-3 + 1e-13, 1e-3 + 1e-13]
    estimate, asked = _recorded(values)
    assert adaptive_gauss_legendre(estimate, 1e-12, 1.0) == values[1]
    assert asked == [0, 1]
    estimate, asked = _recorded(values)
    assert adaptive_gauss_legendre(estimate, 1e-12, 0.0) == values[2]
    assert asked == [0, 1, 2]


def test_driver_raises_after_max_refine_halvings():
    for scale in (1.0, 0.0):
        estimate, asked = _recorded([float(r) for r in range(10)])
        with pytest.raises(NumericalError) as info:
            adaptive_gauss_legendre(estimate, 1e-12, scale)
        max_refine = quadrature_module._MAX_REFINE
        assert asked == list(range(max_refine + 1))
        assert info.value.context["achieved"] == 1.0
        assert info.value.context["requested"] == 1e-12 * max_refine


def test_narrow_bump_with_a_large_flux_settles():
    # int |y| A exp(-y^2 / 2 w^2) dy over [-R, R] = 2 A w^2 (1 - exp(-R^2 / 2 w^2))
    a = gaussian_bump_with_flux(1e6, width=0.05)
    with mpmath.workdps(30):
        w, R = mpmath.mpf(a.width), mpmath.mpf(a.support_radius)
        exact = float(2 * mpmath.mpf(a.amplitude) * w**2 * (1 - mpmath.exp(-(R**2) / (2 * w**2))))
    assert abs(moment_integrals(a, 10.0) - exact) <= MOMENT_TOL * exact


@pytest.mark.parametrize("npts", [16, 5])
def test_gauss_legendre_rule_matches_leggauss(npts):
    # numpy.polynomial's rule is the oracle: nodes within an ulp, weights within
    # 1e-15, and x^j, j < 2 npts, integrated over [-1, 1] to 1e-15
    x, w = gauss_legendre_rule(npts)
    x_ref, w_ref = np.polynomial.legendre.leggauss(npts)
    assert np.all(np.abs(x - x_ref) <= np.spacing(np.abs(x_ref)))
    assert np.max(np.abs(w - w_ref)) <= 1e-15
    for j in range(2 * npts):
        assert abs(w @ x**j - (2.0 / (j + 1) if j % 2 == 0 else 0.0)) <= 1e-15, j


@pytest.mark.parametrize("degree", range(32))
def test_panel_nodes_integrate_polynomials_of_degree_31_exactly(degree):
    rng = np.random.default_rng(degree)
    edges = np.concatenate([[-1.3], np.sort(rng.uniform(-1.3, 0.9, 5)), [0.9]])
    nodes, weights = panel_nodes(edges, *gauss_legendre_rule(16))
    coefficients = rng.standard_normal(degree + 1)
    p = np.polynomial.Polynomial(coefficients)
    exact = p.integ()(0.9) - p.integ()(-1.3)
    scale = float(np.polynomial.Polynomial(np.abs(coefficients)).integ()(1.3)) * 2.0
    assert abs(weights @ p(nodes) - exact) <= 1e-14 * scale


def _linspace_edges(a, b, breakpoints, max_width, refine):
    """The panel edges one np.linspace call per gap gives."""
    pts = sorted({a, b} | {float(p) for p in breakpoints if a < p < b})
    edges = [pts[0]]
    for lo, hi in zip(pts[:-1], pts[1:]):
        edges.extend(np.linspace(lo, hi, math.ceil((hi - lo) / max_width) * 2**refine + 1)[1:])
    return np.asarray(edges)


@pytest.mark.parametrize("seed", range(20))
def test_build_edges_equals_the_linspace_loop(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-10.0, 0.0), rng.uniform(0.0, 10.0)
    # breakpoints outside [a, b], on its ends and repeated are all ignored
    breakpoints = [*rng.uniform(-12.0, 12.0, rng.integers(0, 8)), 0.0, 0.0, a, b]
    for max_width in (rng.uniform(1e-3, 5.0), (b - a) / rng.integers(1, 9), 0.5):
        coarser = None
        for refine in (0, 1, 2):
            edges = build_edges(a, b, breakpoints, max_width, refine)
            assert np.array_equal(edges, _linspace_edges(a, b, breakpoints, max_width, refine))
            assert np.all(np.diff(edges) <= max_width / 2**refine * (1.0 + 1e-15))
            # every refinement halves every panel exactly: the coarser edges stay
            if coarser is not None:
                assert np.array_equal(edges[::2], coarser)
            coarser = edges


@pytest.mark.parametrize("refine", [0, 1, 2])
def test_build_edges_takes_one_width_per_gap(refine):
    # a width function of the gaps' ends: each gap gets its own
    # ceil(gap / width) * 2**refine equal panels, and a constant function the
    # edges of the constant width
    a, b, breakpoints = -3.0, 4.0, (-1.0, 0.0, 2.5)
    widths = {(-3.0, -1.0): 0.3, (-1.0, 0.0): 0.07, (0.0, 2.5): 1.0, (2.5, 4.0): 0.5}
    seen = []

    def width(lo, hi):
        seen.append((lo.copy(), hi.copy()))
        return np.array([widths[pair] for pair in zip(lo.tolist(), hi.tolist())])

    edges = build_edges(a, b, breakpoints, width, refine)
    assert len(seen) == 1 and seen[0][0].tolist() == [-3.0, -1.0, 0.0, 2.5]
    for (lo, hi), w in widths.items():
        inside = edges[(edges >= lo) & (edges <= hi)]
        assert inside[0] == lo and inside[-1] == hi
        assert len(inside) - 1 == math.ceil((hi - lo) / w) * 2**refine
        assert np.all(np.diff(inside) <= w / 2**refine * (1.0 + 1e-15))
    assert np.array_equal(build_edges(a, b, breakpoints, lambda lo, hi: np.full(len(lo), 0.3), refine),
                          build_edges(a, b, breakpoints, 0.3, refine))
