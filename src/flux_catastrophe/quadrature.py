"""Panel Gauss-Legendre quadrature with one doubling check, and phase-integral helpers.

All integrands appearing in this package are piecewise smooth: magnetic
potentials are smooth between declared breakpoints and the gauge symbols
oscillate at known basis frequencies.  The three integrals the package
needs, the overlap coefficients of e^{i Phi_L}, the p x p core of Delta_N
and the moment int |y a(y)| dy, therefore use the same scheme: 16-point
Gauss-Legendre panels between the potential's breakpoints (build_edges,
panel_nodes), at most as wide as the caller's one width rule allows, and
one refinement policy, adaptive_gauss_legendre, which halves every panel
exactly until two successive estimates agree.

gauss_legendre_rule builds the rule here, from the eigenvalues of the
Jacobi matrix (Golub-Welsch) and one Newton step on Bonnet's recurrence,
so no run loads numpy.polynomial; numpy.polynomial.legendre.leggauss is its
test oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import NumericalError


def _legendre(npts: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_npts(x) and P_npts'(x) by Bonnet's recurrence (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, npts):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, npts * (p0 - x * p1) / (1.0 - x * x)


@lru_cache(maxsize=32)
def gauss_legendre_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``npts``-point Gauss-Legendre rule on [-1, 1].

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre recurrence, off-diagonal j / sqrt(4 j^2 - 1) (Golub & Welsch,
    Math. Comp. 23, 1969), polished by one Newton step on P_npts; the weights
    are 2 / ((1 - x^2) P_npts'(x)^2).  Both are symmetrized about 0.
    """
    j = np.arange(1.0, npts)
    x = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    p, dp = _legendre(npts, x)
    x = x - p / dp
    dp = _legendre(npts, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def build_edges(
    a: float,
    b: float,
    breakpoints: Iterable[float],
    max_width: float | Callable[[np.ndarray, np.ndarray], np.ndarray],
    refine: int,
) -> np.ndarray:
    """Panel edges over [a, b]: the breakpoints inside it, and between them the np.linspace
    cuts into ceil(gap / max_width) * 2**refine equal panels (refine r + 1 halves refine r).
    ``max_width`` is one width, or a function of the gaps' (lo, hi) ends giving one width per gap."""
    pts = np.array(sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)}))
    gap = np.diff(pts)
    width = max_width(pts[:-1], pts[1:]) if callable(max_width) else max_width
    k = np.ceil(gap / width).astype(int) * 2**refine
    panel = np.repeat(np.arange(len(k)), k)
    j = np.arange(len(panel)) - np.repeat(np.cumsum(k) - k, k)
    return np.append(pts[panel] + j * (gap / k)[panel], b)


def panel_nodes(edges: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the rule (x, w) on [-1, 1] mapped onto every panel of ``edges``."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# the most panel halvings the doubling check compares with their predecessors
_MAX_REFINE = 4


def adaptive_gauss_legendre(estimate: Callable[[int], float | np.ndarray], tol: float, scale: float = 1.0):
    """The first settled estimate of the panel-doubling sequence.

    ``estimate(refine)`` is a float or an array of quadratures on panels
    halved ``refine`` times.  For refine = 0, 1, ... the first estimate whose
    largest absolute change from its predecessor is at most
    ``tol * max(scale, max |estimate|)`` is returned: scale = 1 makes the
    check absolute up to modulus 1, where coefficients may be all rounding,
    scale = 0 relative, for a tiny but accurate ||Delta_N||_1, and large
    estimates settle at their rounding.  NumericalError, carrying the last
    change (achieved) and its bound (requested), if none settles in
    _MAX_REFINE halvings.
    """
    current = estimate(0)
    for refine in range(1, _MAX_REFINE + 1):
        refined = estimate(refine)
        change = float(np.max(np.abs(refined - current)))
        requested = tol * max(scale, float(np.max(np.abs(refined))))
        if change <= requested:
            return refined
        current = refined
    raise NumericalError("panel quadrature did not settle", achieved=change, requested=requested)


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
