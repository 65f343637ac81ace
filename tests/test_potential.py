from __future__ import annotations

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flux_catastrophe.errors import DomainError
from flux_catastrophe.potential import (
    MOMENT_TOL,
    GaussianBump,
    PiecewiseLinear,
    flux_decomposition,
    flux_profile,
    full_line_delta,
    gaussian_bump_with_flux,
    moment_integrals,
    potential_from_dict,
    potential_to_dict,
    table_samples,
    weighted_abs_moment,
    zero_potential,
)
from oracles import half_fluxes, piecewise_linear_abs_moment_mp, riemann_abs_moment


def test_zero_potential_flux_is_identically_zero():
    prof = flux_profile(zero_potential(), 5.0)
    assert prof.total_flux == 0.0
    xs = np.linspace(-5, 5, 101)
    assert_allclose(prof.phi_at(xs), 0.0, atol=1e-15)
    assert prof.n_L == 0 and prof.delta_L == 0.0


def test_gaussian_total_flux_vs_riemann_oracle():
    a = GaussianBump(center=0.0, width=0.5, amplitude=1.3, support_radius=4.0)
    prof = flux_profile(a, 10.0)
    # frozen oracle: 10^7-point midpoint Riemann sum of a over [-10, 10]
    oracle = riemann_abs_moment(a, -10.0, 10.0, n=10**7)  # a >= 0 so |a| = a
    assert_allclose(prof.total_flux, 0.5 * oracle, rtol=1e-9)


def test_piecewise_linear_exact_quarter_pi():
    # triangle of height pi/2 and base 2 has area pi/2, so total flux pi/4
    a = PiecewiseLinear(((-1.0, 0.0), (0.0, math.pi / 2), (1.0, 0.0)))
    prof = flux_profile(a, 3.0)
    assert_allclose(prof.total_flux, math.pi / 4, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "flux,expected",
    [
        (0.0, (0, 0.0)),
        (math.pi / 2, (0, math.pi / 2)),
        (3 * math.pi / 4, (1, -math.pi / 4)),
        (-math.pi / 2, (-1, math.pi / 2)),
    ],
)
def test_flux_decomposition_cases(flux, expected):
    n, delta = flux_decomposition(flux)
    assert n == expected[0]
    assert_allclose(delta, expected[1], atol=1e-15)


def test_flux_decomposition_roundtrip_property():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-50, 50, size=500):
        n, delta = flux_decomposition(float(x))
        assert -math.pi / 2 < delta <= math.pi / 2
        assert abs(n * math.pi + delta - x) <= 8 * np.finfo(float).eps * max(1.0, abs(x))


def test_flux_antisymmetry_and_endpoints():
    a = GaussianBump(center=0.0, width=0.7, amplitude=0.9, support_radius=4.0)
    prof = flux_profile(a, 6.0)
    xs = np.linspace(-6, 6, 201)
    # even potential makes Phi_L odd
    assert np.max(np.abs(prof.phi_at(xs) + prof.phi_at(-xs))) < 1e-10
    assert_allclose(prof.phi_at(np.array([-6.0]))[0], -prof.total_flux, atol=1e-14)
    # off-center potential still satisfies Phi_L(-L) = -Phi_L(L)
    b = GaussianBump(center=1.1, width=0.5, amplitude=1.0, support_radius=4.0)
    pb = flux_profile(b, 7.0)
    assert_allclose(pb.phi_at(np.array([-7.0]))[0], -pb.total_flux, atol=1e-14)


def test_half_flux_identities():
    a = GaussianBump(center=0.4, width=0.5, amplitude=1.2, support_radius=4.0)
    prof = flux_profile(a, 9.0)
    phi_plus, phi_minus = half_fluxes(a, 9.0)
    xs = np.linspace(-9, 9, 57)
    total_integral = phi_plus(np.array([9.0]))[0]
    assert_allclose(phi_plus(xs) + phi_minus(xs), total_integral, atol=1e-13)
    assert_allclose(prof.phi_at(xs), 0.5 * (phi_plus(xs) - phi_minus(xs)), atol=1e-13)
    assert_allclose(total_integral, 2.0 * prof.total_flux, atol=1e-14)


def test_delta_L_independent_of_L_beyond_support():
    a = gaussian_bump_with_flux(1.1)
    d1 = flux_profile(a, 5.0).delta_L
    d2 = flux_profile(a, 50.0).delta_L
    assert abs(d1 - d2) < 1e-14
    assert abs(full_line_delta(a) - d1) < 1e-14


def test_moment_integrals_zero_potential():
    assert moment_integrals(zero_potential(), 4.0) == 0.0


def test_moment_integrals_vs_riemann_oracle():
    a = GaussianBump(center=0.3, width=0.5, amplitude=-1.7, support_radius=4.0)
    weighted = moment_integrals(a, 10.0)
    w_oracle = riemann_abs_moment(a, -4.0, 4.0, n=10**7, weight_y=True)
    assert_allclose(weighted, w_oracle, rtol=1e-9)


def test_symmetric_bump_weighted_moment_splits():
    a = GaussianBump(center=0.0, width=0.6, amplitude=2.0, support_radius=4.0)
    weighted = moment_integrals(a, 8.0)
    half = weighted_abs_moment(a, 0.0, 8.0)
    assert_allclose(weighted, 2.0 * half, rtol=1e-12)


def test_piecewise_linear_sign_change_moments():
    a = PiecewiseLinear(((-2.0, 0.0), (-1.0, 1.0), (1.0, -1.0), (2.0, 0.0)))
    weighted = moment_integrals(a, 3.0)
    assert_allclose(weighted, riemann_abs_moment(a, -2.0, 2.0, n=10**7, weight_y=True), rtol=1e-8)


# |y a(y)| has a kink inside the segments where a changes sign
SIGN_CHANGING_KNOTS = ((-4.431, 0.925), (-2.848, 1.048), (-1.53, -0.077), (-0.897, 0.815), (3.053, -0.783),
                       (3.851, 1.462), (4.325, 1.152))


def _random_sign_changing_knots(seed: int) -> tuple[tuple[float, float], ...]:
    rng = np.random.default_rng(seed)
    while True:
        xs = np.sort(rng.uniform(-5.0, 5.0, rng.integers(3, 10)))
        vs = rng.uniform(-1.5, 1.5, len(xs))
        if np.any(vs[:-1] * vs[1:] < 0):
            return tuple(zip(xs.tolist(), vs.tolist()))


@pytest.mark.parametrize(
    "knots, L",
    [(SIGN_CHANGING_KNOTS, 7.595), (SIGN_CHANGING_KNOTS, 2.0)]
    + [(_random_sign_changing_knots(seed), 5.0 + seed / 10.0) for seed in range(40)]
    # a 1e-4 segment among 4-wide ones
    + [(((-4.0, 0.0), (0.0, 1.0), (1e-4, 1.0), (4.0, 0.0)), 6.0)],
)
def test_piecewise_linear_moment_matches_mpmath(knots, L):
    exact = piecewise_linear_abs_moment_mp(knots, L)
    got = moment_integrals(PiecewiseLinear(knots), L)
    assert abs(got - exact) <= MOMENT_TOL * max(1.0, abs(exact))


def test_table_samples_matches_piecewise():
    xs = np.linspace(-2.0, 2.0, 41)
    vals = np.exp(-xs**2)
    a = table_samples(-2.0, 0.1, vals.tolist())
    b = PiecewiseLinear(tuple(zip(xs.tolist(), vals.tolist())))
    grid = np.linspace(-2.5, 2.5, 301)
    assert_allclose(a(grid), b(grid), atol=1e-15)
    assert_allclose(a.antiderivative(grid), b.antiderivative(grid), atol=1e-15)


def test_compact_support_guarantee():
    a = GaussianBump(support_radius=3.0)
    assert a(np.array([3.5, -3.2, 100.0])).tolist() == [0.0, 0.0, 0.0]
    p = PiecewiseLinear(((-1.0, 0.25), (1.0, 0.5)))
    # the end knots keep their values; one ulp beyond them a(x) is 0
    x = np.array([-1.0, 1.0, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), -1.5, 1.5])
    assert p(x).tolist() == [0.25, 0.5, 0.0, 0.0, 0.0, 0.0]
    # the antiderivative of a float (math) is that of an array (numpy) bit for bit, at -+R, at -+L
    # inside and beyond the support, at every breakpoint and beyond the support
    table = table_samples(-1.3, 0.35, [0.0, 0.4, -0.2, 1.1, 0.7, 0.0], support_radius=2.0)
    for pot in (a, gaussian_bump_with_flux(2.0, center=0.3), p, table):
        R = pot.support_radius
        xs = [-R, R, *pot.breakpoints, *(s * L for s in (-1.0, 1.0) for L in (0.5 * R, 2.5 * R)), -R - 1.0, 1e3]
        scalar = [pot.antiderivative(x) for x in xs]
        assert all(type(v) is float for v in scalar)
        assert [v.hex() for v in scalar] == [v.hex() for v in pot.antiderivative(np.array(xs)).tolist()]


def test_json_roundtrip_and_errors():
    a = gaussian_bump_with_flux(math.pi / 8, width=0.4)
    doc = potential_to_dict(a)
    b = potential_from_dict(doc)
    xs = np.linspace(-4, 4, 101)
    assert_allclose(a(xs), b(xs), atol=0)

    c = potential_from_dict(json.loads('{"kind": "piecewise_linear", "knots": [[-1, 0], [0, 2], [1, 0]]}'))
    assert c.total_integral == pytest.approx(2.0)

    with pytest.raises(DomainError):
        potential_from_dict({"kind": "nope"})
    with pytest.raises(DomainError):
        potential_from_dict({"kind": "piecewise_linear", "knots": [[0, 1]]})
    with pytest.raises(DomainError):
        potential_from_dict({"kind": "gaussian_bump", "amplitude": 1.0, "total_flux": 1.0})


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianBump(width=0.0),
        lambda: GaussianBump(0.0, -0.5),
        lambda: GaussianBump(support_radius=-1.0),
        lambda: GaussianBump()._replace(width=-0.5),
        lambda: PiecewiseLinear(((0.0, 1.0), (0.0, 2.0))),
        lambda: PiecewiseLinear(((-1.0, 0.0), (1.0, 1.0), (0.5, 0.0))),
    ],
    ids=["zero-width", "negative-width", "negative-radius", "replaced-width", "repeated-knot", "decreasing-knots"],
)
def test_invalid_potentials_raise_at_construction(build):
    with pytest.raises(DomainError):
        build()


SPECS = {
    "gaussian_bump": {"kind": "gaussian_bump", "center": 0.3, "width": 0.4, "amplitude": 1.2, "support_radius": 3.5},
    "piecewise_linear": {"kind": "piecewise_linear", "knots": [[-1.0, 0.0], [0.5, 2.0], [1.5, 0.0]],
                         "support_radius": 2.0},
    "table_samples": {"kind": "table_samples", "x0": -1.0, "dx": 0.5, "values": [0.0, 0.4, 1.0, 0.2, 0.0],
                      "support_radius": 2.0},
}


@pytest.mark.parametrize("kind", list(SPECS))
def test_potentials_are_immutable_values(kind):
    a, b = potential_from_dict(SPECS[kind]), potential_from_dict(SPECS[kind])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.support_radius = 10.0
    assert potential_to_dict(a) == SPECS[kind]


def test_piecewise_linear_lifts_support_radius_to_its_outermost_knot():
    knots = ((-3.0, 0.0), (1.0, 1.0), (2.0, 0.0))
    assert PiecewiseLinear(knots).support_radius == 3.0
    assert PiecewiseLinear(knots, support_radius=1.0).support_radius == 3.0
    assert PiecewiseLinear(knots, support_radius=5.0).support_radius == 5.0
    lowered = PiecewiseLinear(knots, support_radius=5.0)._replace(support_radius=0.0)
    assert lowered.support_radius == 3.0 and lowered.antiderivative(3.0) == lowered.total_integral == 2.5


def test_flux_profile_rejects_bad_L(zero_pot):
    with pytest.raises(DomainError):
        flux_profile(zero_pot, 0.0)
    with pytest.raises(DomainError):
        flux_decomposition(math.inf)


@pytest.mark.parametrize(
    "a",
    [
        GaussianBump(0.3, 0.1, -7.0, 4.0),
        PiecewiseLinear(((-3.0, 0.0), (-1.5, 0.6), (0.0, -1.2), (0.5, 0.3), (2.5, 0.0))),
    ],
    ids=["bump", "piecewise-linear"],
)
def test_peak_is_the_largest_modulus_on_each_interval(a):
    # against a 20001-point sample of each interval: never below it, and at
    # most the rounding of a sample that misses the maximizer by 2e-5 above it
    rng = np.random.default_rng(3)
    ends = np.sort(rng.uniform(-a.support_radius, a.support_radius, (40, 2)), axis=1)
    ends = np.vstack([ends, [[-1.0, 1.0], [0.3, 0.3], [-0.2, 0.1], [0.5, 2.5]]])
    peak = a.peak(ends[:, 0], ends[:, 1])
    assert peak.shape == (len(ends),)
    for (lo, hi), top in zip(ends, peak):
        sampled = float(np.max(np.abs(a(np.linspace(lo, hi, 20001)))))
        assert sampled <= top * (1 + 1e-14)
        assert top <= sampled + 1e-3 * max(top, 1e-300)
    assert a.peak(0.3, 0.3) == pytest.approx(abs(float(a(0.3))), rel=1e-15)
