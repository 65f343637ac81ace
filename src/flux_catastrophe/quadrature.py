"""Adaptive Gauss-Legendre quadrature and phase-integral helpers.

All integrands appearing in this package are piecewise smooth: magnetic
potentials are smooth between declared breakpoints and the gauge symbols
oscillate at known basis frequencies.  Panel-based Gauss-Legendre with
recursive bisection therefore converges fast, provided panels never
straddle a declared breakpoint and are no wider than an eighth of the
shortest oscillation wavelength.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericalError


@lru_cache(maxsize=32)
def gauss_legendre_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``npts``-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


def build_edges(
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
    max_width: float | None = None,
) -> np.ndarray:
    """Panel edges over [a, b] honouring breakpoints and a width cap."""
    pts = sorted({a, b} | {float(p) for p in breakpoints if a < p < b})
    edges: list[float] = [pts[0]]
    for lo, hi in zip(pts[:-1], pts[1:]):
        if max_width is not None and hi - lo > max_width:
            k = int(np.ceil((hi - lo) / max_width))
            edges.extend(np.linspace(lo, hi, k + 1)[1:].tolist())
        else:
            edges.append(hi)
    return np.asarray(edges)


def _panel_integral(f, lo, hi, x, w):
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi) + half * x
    return half * np.sum(w * f(nodes), axis=-1)


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-12,
    breakpoints: Sequence[float] = (),
    max_width: float | None = None,
    npts: int = 15,
    max_depth: int = 40,
) -> float | complex:
    """Integrate ``f`` over [a, b] by recursive panel bisection.

    ``f`` must accept a numpy array of abscissae and return values of the
    same shape (real or complex).  Each panel is accepted when the one-panel
    estimate agrees with its two-half refinement within the panel's share
    of ``abs_tol``; otherwise the panel is split.

    Raises
    ------
    NumericalError
        if some panel still disagrees at the maximum recursion depth; the
        achieved error estimate is attached.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0
    x, w = gauss_legendre_rule(npts)
    edges = build_edges(a, b, breakpoints, max_width)
    total = 0.0 + 0.0j
    worst = 0.0
    span = b - a
    # iterative stack of (lo, hi, depth, coarse estimate)
    stack = [(lo, hi, 0, _panel_integral(f, lo, hi, x, w)) for lo, hi in zip(edges[:-1], edges[1:])]
    while stack:
        lo, hi, depth, coarse = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel_integral(f, lo, mid, x, w)
        right = _panel_integral(f, mid, hi, x, w)
        fine = left + right
        err = abs(fine - coarse)
        if err <= abs_tol * max((hi - lo) / span, 1e-3) or err <= 1e-16 * max(1.0, abs(fine)):
            total += fine
            worst = max(worst, err)
        elif depth >= max_depth:
            raise NumericalError(
                "adaptive quadrature did not converge",
                interval=(lo, hi),
                achieved=err,
                requested=abs_tol,
            )
        else:
            stack.append((lo, mid, depth + 1, left))
            stack.append((mid, hi, depth + 1, right))
    if abs(total.imag) == 0.0:
        return total.real
    return total


def cis_integral(omega, a: float, b: float):
    """Exact ``integral of exp(i omega x) over [a, b]``, stable for small omega.

    Uses exp(i t) - 1 = 2i sin(t/2) exp(i t/2), so the result is
    ``h * sinc(omega h / 2) * exp(i omega (a+b)/2)`` with h = b - a,
    valid including omega = 0.  ``omega`` may be an array.
    """
    omega = np.asarray(omega, dtype=float)
    h = b - a
    phase = np.exp(1j * omega * 0.5 * (a + b))
    return h * np.sinc(omega * h / (2.0 * np.pi)) * phase
