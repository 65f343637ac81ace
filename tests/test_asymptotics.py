from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from flux_catastrophe.asymptotics import (
    anderson_integral,
    digamma,
    fh_log_det,
    fit_decay_exponent,
    hurwitz_zeta,
    theorem_constant,
    theorem_exponent,
    trigamma,
    upper_bound_exponent,
)
from flux_catastrophe.errors import DomainError
from oracles import anderson_bruteforce, cauchy_fh_logdet_sq, inv_square_tail_partial

EULER_GAMMA = 0.5772156649015329


# -- polygamma ----------------------------------------------------------------


def test_digamma_classical_values():
    assert_allclose(digamma(1.0), -EULER_GAMMA, rtol=1e-14)
    assert_allclose(digamma(2.0), 1.0 - EULER_GAMMA, rtol=1e-14)
    assert_allclose(digamma(0.5), -EULER_GAMMA - 2 * math.log(2.0), rtol=1e-14)


# 41 points across the recurrence/asymptotic switch at x = 64, the floats
# next to it, and points from the small-x recurrence to the K_M arguments
# M + 1/2 -+ j (up to 8191.5 on the benchmark grid) and beyond
POLYGAMMA_POINTS = [
    *np.linspace(63.0, 65.0, 41),
    np.nextafter(64.0, 0.0),
    np.nextafter(64.0, 65.0),
    0.5,
    1.4616321449683623,  # the positive zero of digamma
    16.0,
    4095.5,
    8191.5,
    1e6,
]


@pytest.mark.parametrize("fn, oracle", [(digamma, mpmath.digamma), (trigamma, lambda x: mpmath.psi(1, x))],
                         ids=["digamma", "trigamma"])
def test_polygamma_against_50_digit_mpmath(fn, oracle):
    xs = np.array(POLYGAMMA_POINTS)
    with mpmath.workdps(50):
        ref = np.array([float(oracle(mpmath.mpf(float(x)))) for x in xs])
    budget = 1e-14 * np.maximum(np.abs(ref), 1.0)  # relative, absolute below 1
    assert np.all(np.abs(fn(xs) - ref) <= budget)
    assert all(abs(fn(float(x)) - r) <= b for x, r, b in zip(xs, ref, budget))


def test_trigamma_classical_values():
    assert_allclose(trigamma(1.0), math.pi**2 / 6, rtol=1e-14)
    assert_allclose(trigamma(0.5), math.pi**2 / 2, rtol=1e-14)
    assert_allclose(trigamma(1.5), math.pi**2 / 2 - 4.0, rtol=1e-13)


def test_trigamma_three_halves_vs_series_oracle():
    # sum_{t>=1} 1/(t + 1/2)^2 closed by the elementary remainder
    oracle = inv_square_tail_partial(0.5, terms=10**6)
    assert_allclose(trigamma(1.5), oracle, rtol=1e-12)


def test_polygamma_vs_scipy_random_points():
    rng = np.random.default_rng(9)
    xs = np.concatenate([rng.uniform(1e-3, 2.0, 50), rng.uniform(2.0, 500.0, 50)])
    assert_allclose(digamma(xs), scipy.special.digamma(xs), rtol=1e-13, atol=1e-13)
    assert_allclose(trigamma(xs), scipy.special.polygamma(1, xs), rtol=1e-13)


def test_polygamma_recurrence_identities():
    rng = np.random.default_rng(19)
    for x in rng.uniform(0.1, 30.0, 25):
        assert_allclose(digamma(x + 1.0), digamma(x) + 1.0 / x, rtol=1e-13)
        assert_allclose(trigamma(x + 1.0), trigamma(x) - 1.0 / x**2, rtol=1e-12)


def test_polygamma_domain_errors():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        trigamma(-1.5)


# x = 20 needs the recurrence: Euler-Maclaurin at 20 itself is off by 3e-8 at s = 29
ZETA_POINTS = [0.5, 2.0, 20.0, 63.9, 64.0, 1e6]


@pytest.mark.parametrize("s", range(1, 30))
def test_hurwitz_zeta_against_mpmath(s):
    # 80 digits: at 50, mpmath 1.3's zeta(26, 64) is itself off by 2e-13
    with mpmath.workdps(80):
        ref = [float(-mpmath.digamma(x) if s == 1 else mpmath.zeta(s, x)) for x in ZETA_POINTS]
    array = hurwitz_zeta(s, np.array(ZETA_POINTS))
    assert_allclose(array, ref, rtol=1e-14, atol=0.0)
    assert all(abs(hurwitz_zeta(s, x) - r) <= 1e-14 * abs(r) for x, r in zip(ZETA_POINTS, ref))
    # a float takes the math path, an array the numpy path: the two agree to 4 ulp
    for x, a in zip(ZETA_POINTS, array):
        scalar = hurwitz_zeta(s, x)
        assert type(scalar) is float and abs(scalar - a) <= 4 * math.ulp(a), (x, scalar, a)


@pytest.mark.parametrize("s", [1, 2, 11, 29])
def test_hurwitz_zeta_of_an_argument_does_not_depend_on_its_batch(s):
    # the recurrence terms are summed down each column in one order: a lone
    # argument, 0-d or in a one-element array, gives the bits it gives inside
    # a batch (np.sum put (11, 20.0) 5 ulp apart)
    batch = np.array([0.5, 3.0, 20.0, 63.9, 70.0, 1.25])
    for x, value in zip(batch, hurwitz_zeta(s, batch)):
        assert hurwitz_zeta(s, np.array([x]))[0].hex() == value.hex(), x
        assert hurwitz_zeta(s, np.array(x)).hex() == value.hex(), x


def test_hurwitz_zeta_domain():
    assert hurwitz_zeta(2, np.array([])).shape == (0,)
    with pytest.raises(DomainError):
        hurwitz_zeta(0, 2.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(3, [1.0, 0.0])
    with pytest.raises(DomainError):
        hurwitz_zeta(3, math.inf)


# -- fitting --------------------------------------------------------------------


def test_fit_exact_linear_data():
    series = [(n, -0.125 * math.log(n) + 3.0) for n in (16, 32, 64, 128, 256)]
    fit = fit_decay_exponent(series)
    assert_allclose(fit.slope, -0.125, rtol=1e-12)
    assert_allclose(fit.intercept, 3.0, rtol=1e-12)
    assert fit.max_abs_residual < 1e-12


def test_fit_requires_enough_distinct_points():
    with pytest.raises(DomainError):
        fit_decay_exponent([(1, 0.0), (2, 0.1), (3, 0.2)])
    with pytest.raises(DomainError):
        fit_decay_exponent([(2, 0.0), (2, 0.1), (3, 0.2), (4, 0.3)])


def test_target_exponent_arithmetic():
    assert_allclose(theorem_exponent(math.pi / 4), -0.125, rtol=1e-15)
    assert_allclose(theorem_exponent(math.pi / 3), -2.0 / 9.0, rtol=1e-15)
    assert_allclose(theorem_exponent(math.pi / 8), -0.03125, rtol=1e-15)
    assert_allclose(theorem_exponent(3 * math.pi / 8), -0.28125, rtol=1e-15)
    assert_allclose(upper_bound_exponent(math.pi / 4), -1.0 / math.pi**2, rtol=1e-15)


def _fh_series(delta, n_grid):
    """(N, log |det T_N|^2) of the jump-symbol matrix from the O(N) Cauchy sum
    fh_log_det, as the exponent_fit row computes it."""
    return [(n, 2.0 * fh_log_det(delta, n)) for n in n_grid]


def test_fh_series_matches_cauchy_product_oracle():
    delta = math.pi / 3
    for n, val in _fh_series(delta, (8, 16, 32, 64)):
        assert_allclose(val, cauchy_fh_logdet_sq(delta, n), atol=5e-10)


@pytest.mark.parametrize("c", [0.1, 0.25, 0.45, 0.5])
def test_theorem_constant_matches_barnes_g(c):
    with mpmath.workdps(30):
        oracle = float(2 * mpmath.log(mpmath.barnesg(1 + c) * mpmath.barnesg(1 - c)))
    assert abs(theorem_constant(c * math.pi) - oracle) <= 1e-14
    assert theorem_constant(-c * math.pi) == theorem_constant(c * math.pi)


def test_sliding_window_slopes_converge():
    delta = math.pi / 4
    series = _fh_series(delta, (32, 45, 64, 91, 128, 181, 256, 362, 512))
    target = theorem_exponent(delta)
    errs = []
    for start in range(len(series) - 3):
        window = series[start : start + 4]
        errs.append(abs(fit_decay_exponent(window).slope - target))
    assert errs[-1] == min(errs)


# -- Anderson integral -----------------------------------------------------------


def test_anderson_zero_delta():
    assert anderson_integral(0.0, 100) == 0.0


def test_anderson_domain_errors():
    assert math.isfinite(anderson_integral(math.pi / 2, 10))
    with pytest.raises(DomainError):
        anderson_integral(np.nextafter(math.pi / 2, 4.0), 10)
    with pytest.raises(DomainError):
        anderson_integral(0.3, 0)


def test_anderson_n1_value_pinned_by_bruteforce():
    # N = 1, delta = pi/4: value frozen from the double-sum oracle; equals
    # (sin^2(pi/4)/pi^2) (psi_1(3/4) + psi_1(5/4))
    got = anderson_integral(math.pi / 4, 1)
    assert_allclose(got, 0.18943053086129782, rtol=1e-12)
    oracle = anderson_bruteforce(math.pi / 4, 1)
    assert_allclose(got, oracle, rtol=1e-11)
    identity = math.sin(math.pi / 4) ** 2 / math.pi**2 * (trigamma(0.75) + trigamma(1.25))
    assert_allclose(got, identity, rtol=1e-13)


@pytest.mark.parametrize("delta", [0.2, math.pi / 4, -1.1])
@pytest.mark.parametrize("N", [1, 2, 7, 16])
def test_anderson_matches_double_sum_oracle(delta, N):
    got = anderson_integral(delta, N)
    assert_allclose(got, anderson_bruteforce(delta, N), rtol=1e-10)


@pytest.mark.parametrize("delta", [math.pi / 4, math.pi / 2, -1.0, 1e-9])
@pytest.mark.parametrize("N", [17, 5793, 10**6])
def test_anderson_closed_form_matches_finite_sums(delta, N):
    # S(+-c) = sum_{t=1}^N t / (t -+ c)^2 summed term by term, against the
    # polygamma closed form; the tails are the trigammas in both
    c = delta / math.pi
    t = np.arange(1, N + 1, dtype=float)
    finite = math.fsum(t / (t - c) ** 2) + math.fsum(t / (t + c) ** 2)
    tails = N * (trigamma(N + 1 - c) + trigamma(N + 1 + c))
    expected = math.sin(delta) ** 2 / math.pi**2 * (finite + tails)
    assert_allclose(anderson_integral(delta, N), expected, rtol=1e-14)


def test_anderson_at_ten_million_allocates_no_array_of_size_n():
    anderson_integral(math.pi / 4, 64)  # warm-up outside the trace
    tracemalloc.start()
    try:
        anderson_integral(math.pi / 4, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_anderson_window_invariance():
    # any window of N consecutive indices gives the same integral
    delta, N = 0.9, 6
    vals = [anderson_bruteforce(delta, N, window_start=s) for s in (-3, -2, 0, 5)]
    assert_allclose(vals, vals[0], rtol=1e-12)
    assert_allclose(anderson_integral(delta, N), vals[0], rtol=1e-10)


def test_anderson_tails_match_partial_sum_oracle():
    # the tails sum_{t > N} 1/(t -+ delta/pi)^2 = psi_1(N + 1 -+ delta/pi) of
    # anderson_integral vs the 10^7-term brute-force tail oracle, 1e-10 relative
    for delta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        for N in (1, 64, 1024):
            for sign in (-1, 1):
                closed = trigamma(N + 1 + sign * delta / math.pi)
                oracle = inv_square_tail_partial(N + sign * delta / math.pi, terms=10**7)
                assert_allclose(closed, oracle, rtol=1e-10)


def test_anderson_even_in_delta_and_monotone():
    for N in (4, 64):
        vals = [anderson_integral(d, N) for d in (0.1, 0.4, 0.8, 1.2, 1.5)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        for d in (0.3, 1.0):
            assert_allclose(anderson_integral(d, N), anderson_integral(-d, N), rtol=1e-14)


def test_anderson_leading_log_coefficient():
    # I_N = (2/pi^2) sin^2(delta) ln N + O(1): the log-slope isolates the
    # leading coefficient (the plain ratio I/ln N carries the O(1) constant)
    delta = math.pi / 4
    lo = anderson_integral(delta, 2**16)
    hi = anderson_integral(delta, 2**20)
    slope = (hi - lo) / (math.log(2**20) - math.log(2**16))
    assert_allclose(slope, 2 / math.pi**2 * math.sin(delta) ** 2, rtol=1e-4)
    assert_allclose(2 / math.pi**2 * math.sin(math.pi / 4) ** 2, 0.101321, rtol=1e-5)


# -- upper bound det(A) <= exp(-tr(1 - A)), as the anderson row checks it ---------


def _upper_bound_sides(delta, N):
    """(log|D~_N|^2, -I_N): the bound holds when the first is <= the second + 1e-8."""
    return 2.0 * fh_log_det(delta, N), -anderson_integral(delta, N)


def test_upper_bound_trivial_at_zero():
    assert _upper_bound_sides(0.0, 16) == (0.0, 0.0)


@pytest.mark.parametrize("delta,N", [(math.pi / 4, 128), (3 * math.pi / 8, 512)])
def test_upper_bound_numerical_cases(delta, N):
    lhs, rhs = _upper_bound_sides(delta, N)
    assert lhs <= rhs + 1e-8, (lhs, rhs)
