"""Compactly supported magnetic vector potentials and their flux profiles.

A potential a(x) lives on the line, vanishes identically for
|x| > support_radius and has an exactly computable antiderivative.  All
flux quantities on an interval [-L, L] derive from it:

    Phi_L(x)   = 1/2 int_{-L}^x a  -  1/2 int_x^L a        (magnetic flux)
    Phi_L(L)   = 1/2 int_{-L}^L a  =  n_L pi + delta_L,    delta_L in (-pi/2, pi/2]

Compact support makes delta_L independent of L once L >= support_radius,
which is what pins the decay exponents downstream.

Evaluation comes in a scalar and an array kind.  The antiderivative of a
Python number is a float from math alone: a clip and math.erf for the
Gaussian bump, bisect_right on the knot tuple and prefix sums for the
piecewise-linear kinds.  Building a potential (potential_from_dict,
gaussian_bump_with_flux), its total_integral, full_line_delta and
flux_profile's total flux use only that, so config checks and the energy
experiment load no numpy.  a(x), peak, weighted_abs_moment and the
antiderivative of an array (phi_at on quadrature nodes) are numpy, which
they import when called.  The two antiderivatives run the same operations
in the same order and agree bit for bit.  The array one stays because the
overlap sweeps evaluate it on many quadrature nodes at once: over the
27,648 (Gaussian bump) and 20,736 (piecewise-linear) nodes of the two
benchmark sweeps, a float loop costs 23 and 22 ms against 2.7 and 0.9 ms
for the array calls (best of 5, 2-core Xeon VM).

The potentials are validated NamedTuples.  GaussianBump and
PiecewiseLinear subclass a NamedTuple of their fields, and their __new__
checks the fields (and PiecewiseLinear converts its knots to float pairs
and lifts support_radius to the outermost knot), as does _replace.  So a
potential is an immutable, hashable value, equal to any other built from
the same spec, and building one loads no dataclasses.  The subclasses
keep a __dict__ for what is derived from the fields: the knot tuples and
prefix sums, the cached arrays, and a table's samples.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

# settling tolerance of the moment int |y a(y)| dy, relative to max(1, moment)
MOMENT_TOL = 1e-12


class _BumpFields(NamedTuple):
    center: float = 0.0
    width: float = 0.5
    amplitude: float = 1.0
    support_radius: float = 4.0


class GaussianBump(_BumpFields):
    """Truncated Gaussian bump a(x) = amplitude * exp(-(x-center)^2 / 2 width^2).

    The bump is cut to zero outside |x| > support_radius; with the default
    geometry the cut value is ~1e-14 of the peak, so the truncation is
    numerically invisible while making the support exactly compact.
    """

    kind = "gaussian_bump"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.width <= 0 or self.support_radius < 0:
            raise DomainError("width must be > 0 and support_radius >= 0")
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: validate as the constructor does
        return cls(*fields)

    def __call__(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= self.support_radius
        vals = self.amplitude * np.exp(-((x - self.center) ** 2) / (2.0 * self.width**2))
        return np.where(inside, vals, 0.0)

    def antiderivative(self, x):
        """Exact integral of a from -support_radius to x: a float for a Python number, else an array."""
        R = self.support_radius
        s = self.width * math.sqrt(2.0)
        scale = self.amplitude * self.width * math.sqrt(math.pi / 2.0)
        lo = math.erf((-R - self.center) / s)
        if isinstance(x, (int, float)):
            return scale * (math.erf((min(max(x, -R), R) - self.center) / s) - lo)
        import numpy as np

        xc = np.clip(np.asarray(x, dtype=float), -R, R)
        return scale * (np.vectorize(math.erf, otypes=[float])((xc - self.center) / s) - lo)

    @property
    def total_integral(self) -> float:
        return self.antiderivative(self.support_radius)

    def peak(self, lo, hi):
        """max |a| on each [lo, hi] inside the support (arrays of ends): |a| at the point nearest the center."""
        import numpy as np

        return np.abs(self(np.clip(self.center, lo, hi)))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """-R, R and center + k width / 2, |k| <= 16, inside (-R, R): a is smooth on the
        scale width, and 8 widths out it is below e^{-32} ~ 1.3e-14 of its peak."""
        grid = (self.center + 0.5 * self.width * k for k in range(-16, 17))
        return (-self.support_radius, *(x for x in grid if abs(x) < self.support_radius), self.support_radius)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "center": self.center,
            "width": self.width,
            "amplitude": self.amplitude,
            "support_radius": self.support_radius,
        }


class _KnotFields(NamedTuple):
    knots: tuple[tuple[float, float], ...]
    support_radius: float = 0.0


class PiecewiseLinear(_KnotFields):
    """Piecewise linear potential through ``knots`` = [(x0, v0), (x1, v1), ...].

    a(x) interpolates linearly between consecutive knots and vanishes
    outside [x0, x_last].  The trapezoid antiderivative is exact.
    """

    kind = "piecewise_linear"

    def __new__(cls, knots, support_radius=0.0):
        knots = tuple((float(x), float(v)) for x, v in knots)
        if len(knots) < 2:
            raise DomainError("need at least two knots")
        xs = tuple(x for x, _ in knots)
        if any(b <= a for a, b in zip(xs[:-1], xs[1:])):
            raise DomainError("knot abscissae must be strictly increasing")
        self = super().__new__(cls, knots, max(support_radius, abs(xs[0]), abs(xs[-1])))
        # prefix sums of the trapezoids, added one after another as np.cumsum adds them
        areas = (0.5 * (vb + va) * (xb - xa) for (xa, va), (xb, vb) in zip(knots[:-1], knots[1:]))
        self._xs, self._vs, self._cum = xs, tuple(v for _, v in knots), (0.0, *accumulate(areas))
        return self

    @classmethod
    def _make(cls, fields):  # as GaussianBump._make
        return cls(*fields)

    @cached_property
    def _arrays(self):
        """The knot abscissae, values and prefix sums as arrays, for the array methods."""
        import numpy as np

        return np.array(self._xs), np.array(self._vs), np.array(self._cum)

    def __call__(self, x):
        import numpy as np

        xs, vs, _ = self._arrays
        return np.interp(x, xs, vs, left=0.0, right=0.0)

    def antiderivative(self, x):
        """Exact integral of a from the first knot to x: a float for a Python number, else an array."""
        if isinstance(x, (int, float)):
            xs, vs, cum = self._xs, self._vs, self._cum
            xc = min(max(x, xs[0]), xs[-1])
            idx = min(max(bisect_right(xs, xc) - 1, 0), len(xs) - 2)
        else:
            import numpy as np

            xs, vs, cum = self._arrays
            xc = np.clip(np.asarray(x, dtype=float), xs[0], xs[-1])
            idx = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, len(xs) - 2)
        x0 = xs[idx]
        v0 = vs[idx]
        slope = (vs[idx + 1] - v0) / (xs[idx + 1] - x0)
        dx = xc - x0
        return cum[idx] + v0 * dx + 0.5 * slope * dx * dx

    @property
    def total_integral(self) -> float:
        return self._cum[-1]

    def peak(self, lo, hi):
        """max |a| on each [lo, hi] (arrays of ends): a is linear between knots, so the largest of |a| at the
        two ends and at the knots between them."""
        import numpy as np

        xs, vs, _ = self._arrays
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        inside = (lo[..., None] <= xs) & (xs <= hi[..., None])
        knots = np.max(np.where(inside, np.abs(vs), 0.0), axis=-1)
        return np.maximum(np.maximum(np.abs(self(lo)), np.abs(self(hi))), knots)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._xs

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "knots": [list(k) for k in self.knots],
            "support_radius": self.support_radius,
        }


def table_samples(x0: float, dx: float, values: Sequence[float], support_radius: float = 0.0) -> PiecewiseLinear:
    """Potential from samples on the uniform grid x0, x0+dx, ... .

    Samples are interpolated linearly, so a table potential is exactly a
    piecewise linear one with equidistant knots; the antiderivative stays
    exact.
    """
    if dx <= 0:
        raise DomainError("dx must be positive")
    values = list(values)
    if len(values) < 2:
        raise DomainError("need at least two samples")
    xs = [x0 + i * dx for i in range(len(values))]
    pot = PiecewiseLinear(tuple(zip(xs, values)), support_radius=support_radius)
    pot._table_meta = {"x0": x0, "dx": dx, "values": values}
    return pot


MagneticPotential = GaussianBump | PiecewiseLinear


def zero_potential(support_radius: float = 1.0) -> GaussianBump:
    """The trivial potential a = 0 (useful for exactness tests)."""
    return GaussianBump(amplitude=0.0, support_radius=support_radius)


def gaussian_bump_with_flux(
    total_flux: float,
    center: float = 0.0,
    width: float = 0.5,
    support_radius: float = 4.0,
) -> GaussianBump:
    """Gaussian bump whose half integral (= Phi_L(L) for L >= support) is ``total_flux``.

    DomainError when no finite amplitude gives it: the unit bump integrates
    to 0 (support_radius 0, or a center far outside the support) or to so
    little that the amplitude overflows.
    """
    unit = GaussianBump(center, width, 1.0, support_radius).total_integral
    amplitude = 2.0 * total_flux / unit if unit else math.inf
    if not math.isfinite(amplitude):
        raise DomainError(f"total_flux: the unit bump integrates to {unit!r} over its support")
    return GaussianBump(center, width, amplitude, support_radius)


class FluxProfile(NamedTuple):
    """The flux quantities of ``potential`` on [-L, L].

    ``phi_at`` is the vectorized callable for Phi_L and closes over both.
    The decomposition satisfies total_flux = n_L * pi + delta_L with
    delta_L in (-pi/2, pi/2].
    """

    potential: MagneticPotential
    L: float
    total_flux: float
    n_L: int
    delta_L: float
    phi_at: Callable[[np.ndarray], np.ndarray]


def flux_decomposition(total_flux: float) -> tuple[int, float]:
    """Split a flux into n*pi + delta with delta in (-pi/2, pi/2].

    The half-integer boundary resolves toward +pi/2: a flux of exactly
    (n + 1/2) pi yields (n, +pi/2).
    """
    if not math.isfinite(total_flux):
        raise DomainError("total flux must be finite")
    n = math.ceil(total_flux / math.pi - 0.5)
    return n, total_flux - n * math.pi


def full_line_delta(a: MagneticPotential) -> float:
    """delta of the full-line flux 1/2 int a = n pi + delta.

    This is delta_L for every L >= support_radius, computed without
    building a flux profile.
    """
    R = a.support_radius
    total = 0.5 * (float(a.antiderivative(R)) - float(a.antiderivative(-R)))
    return flux_decomposition(total)[1]


def flux_profile(a: MagneticPotential, L: float) -> FluxProfile:
    """Flux profile Phi_L of ``a`` on [-L, L].

    Evaluated through the exact antiderivative of ``a`` (all supported
    kinds have one), so the 1e-12 quadrature budget is never touched here.
    """
    if L <= 0:
        raise DomainError("interval half-length L must be positive")
    lo = float(a.antiderivative(-L))
    total_flux = 0.5 * (float(a.antiderivative(L)) - lo)

    def phi_at(x):
        return a.antiderivative(x) - lo - total_flux

    n_L, delta_L = flux_decomposition(total_flux)
    return FluxProfile(potential=a, L=L, total_flux=total_flux, n_L=n_L, delta_L=delta_L, phi_at=phi_at)


def weighted_abs_moment(a: MagneticPotential, lo: float, hi: float) -> float:
    """integral over [lo, hi] of |y a(y)| dy, to MOMENT_TOL * max(1, |moment|).

    One panel (width cap hi - lo) per piece between 0, a's breakpoints and
    the sign changes of a's linear interpolant between them.  On each piece
    a is linear (piecewise_linear) or of one sign and smooth (gaussian_bump),
    so |y a(y)| is a quadratic, which the 16-point rule integrates exactly,
    or analytic; the doubling check (adaptive_gauss_legendre) settles at
    refine 1 on the potentials of the tests and the benchmark.
    """
    if hi <= lo:
        return 0.0
    import numpy as np

    from .quadrature import adaptive_gauss_legendre, build_edges, gauss_legendre_rule, panel_nodes

    p = np.array(sorted(set(a.breakpoints)), dtype=float)
    v = a(p)
    s = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)
    roots = p[s] - v[s] * (p[s + 1] - p[s]) / (v[s + 1] - v[s])
    brk = (*p, 0.0, *roots)

    def estimate(refine: int) -> float:
        nodes, weights = panel_nodes(build_edges(lo, hi, brk, hi - lo, refine), *gauss_legendre_rule(16))
        return float(weights @ np.abs(nodes * a(nodes)))

    return adaptive_gauss_legendre(estimate, MOMENT_TOL)


def moment_integrals(a: MagneticPotential, L: float) -> float:
    """integral of |y a(y)| over [-L, L] to 1e-12 * max(1, moment): the
    moment in the ||Delta_N||_1 bound."""
    if L <= 0:
        raise DomainError("interval half-length L must be positive")
    return weighted_abs_moment(a, max(-L, -a.support_radius), min(L, a.support_radius))


# ---------------------------------------------------------------------------
# JSON schema of the "potential" field of a CLI config.  Every field but
# "kind" (and the "knots", "x0", "dx", "values" of their kinds) is optional,
# and every number in it must be a finite JSON number:
#   {"kind": "gaussian_bump", "center": c (0), "width": w (0.5),
#    "amplitude": A (1) | "total_flux": phi, "support_radius": R (4)}
#       total_flux sets A so that Phi_L(L) = phi for L >= R; giving both
#       amplitude and total_flux is an error
#   {"kind": "piecewise_linear", "knots": [[x, v], ...], "support_radius": R}
#       at least two knots with strictly increasing x; R defaults to, and is
#       raised to, max(|x_first|, |x_last|)
#   {"kind": "table_samples", "x0": x0, "dx": dx, "values": [...],
#    "support_radius": R}
#       samples at x0, x0 + dx, ..., interpolated linearly (dx > 0, at
#       least two values); R as for piecewise_linear
#   {"kind": "zero", "support_radius": R (1)}
# ---------------------------------------------------------------------------


def is_number(value) -> bool:
    """A finite JSON number; JSON true/false parse to bools, which are ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def potential_from_dict(spec: dict) -> MagneticPotential:
    """Build a potential from its JSON document; raises DomainError on bad fields.

    Every numeric field, knot and table value must be a finite JSON number
    (is_number): strings, booleans, NaN and infinities are rejected here,
    before any point is evaluated.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("potential spec must be an object with a 'kind' field")
    kind = spec["kind"]

    def number(key: str, default: float | None = None) -> float:
        value = spec[key] if default is None else spec.get(key, default)
        if not is_number(value):
            raise DomainError(f"{key} must be a finite number, got {value!r}")
        return float(value)

    try:
        if kind == "gaussian_bump":
            if "total_flux" in spec and "amplitude" in spec:
                raise DomainError("give either 'amplitude' or 'total_flux', not both")
            shape = {"center": number("center", 0.0), "width": number("width", 0.5),
                     "support_radius": number("support_radius", 4.0)}
            if "total_flux" in spec:
                return gaussian_bump_with_flux(number("total_flux"), **shape)
            return GaussianBump(amplitude=number("amplitude", 1.0), **shape)
        if kind == "piecewise_linear":
            knots = spec["knots"]
            if not isinstance(knots, list) or not all(
                isinstance(k, list) and len(k) == 2 and all(map(is_number, k)) for k in knots
            ):
                raise DomainError(f"knots must be a list of [x, v] pairs of finite numbers, got {knots!r}")
            pairs = tuple((float(x), float(v)) for x, v in knots)
            return PiecewiseLinear(pairs, support_radius=number("support_radius", 0.0))
        if kind == "table_samples":
            values = spec["values"]
            if not isinstance(values, list) or not all(map(is_number, values)):
                raise DomainError(f"values must be a list of finite numbers, got {values!r}")
            x0, dx = number("x0"), number("dx")
            return table_samples(x0, dx, [float(v) for v in values], support_radius=number("support_radius", 0.0))
        if kind == "zero":
            return zero_potential(number("support_radius", 1.0))
    except KeyError as exc:
        raise DomainError(f"potential spec missing field {exc}") from exc
    raise DomainError(f"unknown potential kind {kind!r}")


def potential_to_dict(a: MagneticPotential) -> dict:
    meta = getattr(a, "_table_meta", None)
    if meta is not None:
        return {"kind": "table_samples", "support_radius": a.support_radius, **meta}
    return a.to_dict()
