"""Correctness checks on the CSVs a benchmark pass writes.

Two kinds of check, both run on every pass:

* reference: every CSV is compared cell by cell with the copy stored under
  ``reference/<config>/`` using the per-column tolerances in
  ``reference/tolerances.json``;
* oracle: closed forms computed here with mpmath, sharing no code with the
  package -- the Cauchy determinant for log|D~|^2 (N <= 512), the decay
  exponent -2 delta^2 / pi^2, the Anderson integral as a weighted lattice
  sum with Hurwitz-zeta tails, the trace-norm bound (N/L) int |y a(y)| dy,
  and the periodic energy difference from exact integer sums.

Each check returns a list of human-readable misses; an empty list passes.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from pathlib import Path

import mpmath as mp

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference"

mp.mp.dps = 40

# Oracle budgets.  Dense LU on matrices of order <= 512 with entries O(1)
# loses well under 1e-11 in log|det|; the Anderson integral and the energy
# are closed forms in double precision; the moment integral is computed by
# the package with an absolute quadrature budget of 1e-12.
CAUCHY_MAX_N = 512
LOGDET_ABS = 1e-9
CLOSED_FORM_REL = 1e-12
MOMENT_REL = 1e-10
# The fit runs from N = 256, where the Fisher-Hartwig corrections to the
# slope are still visible; 1e-4 is 500 times tighter than the CLI's own
# 0.05 budget.
SLOPE_ABS = 1e-4
# Slack the package itself uses in its two inequality checks.
INEQUALITY_SLACK = 1e-8


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


@lru_cache(maxsize=None)
def tolerances() -> dict:
    return json.loads((REFERENCE / "tolerances.json").read_text())


def _within(value: float, ref: float, spec: dict) -> bool:
    return abs(value - ref) <= spec.get("abs", 0.0) + spec.get("rel", 0.0) * abs(ref)


def compare_reference(label: str, csv_name: str, out_csv: Path, ref_csv: Path) -> list[str]:
    spec = tolerances()[csv_name]
    header, rows = read_csv(out_csv)
    ref_header, ref_rows = read_csv(ref_csv)
    if header != ref_header:
        return [f"{label}: header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{label}: {len(rows)} rows, reference has {len(ref_rows)}"]
    misses = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in header:
            col_spec = spec[col]
            if "unchecked" in col_spec:
                continue
            if col_spec.get("exact"):
                ok = row[col] == ref[col]
            else:
                ok = _within(float(row[col]), float(ref[col]), col_spec)
            if not ok:
                misses.append(f"{label} row {i} {col}: {row[col]} vs reference {ref[col]}")
    return misses


# ---------------------------------------------------------------------------
# independent closed forms (mpmath)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cauchy_log_det_sq(delta: float, n: int) -> float:
    """log |det T_N|^2 for T_jk = sin(delta)/(delta - pi(j-k)) by the Cauchy formula.

    T = (sin(delta)/pi) C with C_jk = 1/(x_j - y_k), x_j = c - j, y_k = -k,
    c = delta/pi; |det C| = prod_{i<j} (j-i)^2 / prod_{j,k} |c - (j-k)|.
    """
    c = mp.mpf(delta) / mp.pi
    total = n * mp.log(abs(mp.sin(mp.mpf(delta)) / mp.pi))
    for d in range(1, n):
        total += 2 * (n - d) * mp.log(d)
    for d in range(-(n - 1), n):
        total -= (n - abs(d)) * mp.log(abs(c - d))
    return float(2 * total)


@lru_cache(maxsize=None)
def anderson_sum(delta: float, n: int) -> float:
    """sum_{j in W, k not in W} |T_jk|^2 for a window W of n indices.

    Pairs at distance d != 0 occur min(|d|, n) times; the d >= n tail is
    n * zeta(2, n -+ c) (Hurwitz).
    """
    c = mp.mpf(delta) / mp.pi
    finite = mp.fsum(d * (1 / (d - c) ** 2 + 1 / (d + c) ** 2) for d in range(1, n))
    tail = n * (mp.zeta(2, n - c) + mp.zeta(2, n + c))
    return float(mp.sin(mp.mpf(delta)) ** 2 / mp.pi**2 * (finite + tail))


def half_flux(spec: dict):
    """Phi_L(L) = (1/2) int a for L >= support radius."""
    if spec["kind"] == "gaussian_bump":
        return mp.mpf(spec["total_flux"])
    knots = [(mp.mpf(x), mp.mpf(v)) for x, v in spec["knots"]]
    return sum((x1 - x0) * (v0 + v1) / 2 for (x0, v0), (x1, v1) in zip(knots, knots[1:])) / 2


def abs_moment(spec: dict):
    """int |y a(y)| dy over the support, in closed form or exact panel quadrature."""
    if spec["kind"] == "gaussian_bump":
        if spec.get("center", 0) != 0:
            raise ValueError("oracle covers centred bumps only")
        w, R = mp.mpf(spec["width"]), mp.mpf(spec["support_radius"])
        unit = w * mp.sqrt(2 * mp.pi) * mp.erf(R / (w * mp.sqrt(2)))
        amplitude = 2 * half_flux(spec) / unit
        return 2 * amplitude * w**2 * (1 - mp.exp(-(R**2) / (2 * w**2)))
    knots = [(mp.mpf(x), mp.mpf(v)) for x, v in spec["knots"]]

    def a(y):
        for (x0, v0), (x1, v1) in zip(knots, knots[1:]):
            if x0 <= y <= x1:
                return v0 + (v1 - v0) * (y - x0) / (x1 - x0)
        return mp.mpf(0)

    edges = sorted({x for x, _ in knots} | {mp.mpf(0)})
    return mp.quad(lambda y: abs(y * a(y)), edges)


def flux_angle(phi) -> tuple[int, mp.mpf]:
    n = int(mp.ceil(phi / mp.pi - mp.mpf(1) / 2))
    return n, phi - n * mp.pi


def energy_difference_exact(phi, n: int, L) -> mp.mpf:
    """Periodic E_a - E_0 from exact integer sums over the occupied windows."""
    n_L, _ = flux_angle(phi)
    m = n // 2
    top = m if n % 2 else m - 1

    def s1(a, b):
        return (a + b) * (b - a + 1) // 2

    def squares_to(k):  # sum of j^2 for j = 0..k, valid for negative k too
        return k * (k + 1) * (2 * k + 1) // 6

    def s2(a, b):
        return squares_to(b) - squares_to(a - 1)

    pa, pb = -m - n_L, top - n_L
    d2 = s2(pa, pb) - s2(-m, top)
    return (mp.pi**2 * d2 + 2 * mp.pi * phi * s1(pa, pb) + n * phi**2) / mp.mpf(L) ** 2


def _rel_miss(label: str, value: float, exact, rel: float) -> list[str]:
    if abs(value - exact) <= rel * abs(exact):
        return []
    return [f"{label}: {value!r} vs oracle {float(exact)!r} (rel budget {rel:g})"]


def _abs_miss(label: str, value: float, exact, budget: float) -> list[str]:
    if abs(value - exact) <= budget:
        return []
    return [f"{label}: {value!r} vs oracle {float(exact)!r} (abs budget {budget:g})"]


def oracle_checks(config: dict, csv_name: str, rows: list[dict[str, str]]) -> list[str]:
    misses: list[str] = []
    if csv_name == "overlap_sweep.csv":
        n_L, delta = flux_angle(half_flux(config["potential"]))
        moment = abs_moment(config["potential"])
        for r in rows:
            n, L = int(r["N"]), float(r["L"])
            at = f"{csv_name} N={n}"
            misses += _abs_miss(f"{at} delta_L", float(r["delta_L"]), delta, 1e-12)
            if int(r["n_L"]) != n_L:
                misses.append(f"{at} n_L: {r['n_L']} vs oracle {n_L}")
            bound = mp.mpf(n) / mp.mpf(L) * moment
            misses += _rel_miss(f"{at} bound", float(r["bound"]), bound, MOMENT_REL)
            holds = float(r["trace_norm_delta"]) <= float(bound) + INEQUALITY_SLACK
            if r["bound_holds"] != "1" or not holds:
                misses.append(f"{at} bound_holds: {r['bound_holds']}, trace norm {r['trace_norm_delta']} vs {float(bound)!r}")
            if config["bc"] == "periodic" and n <= CAUCHY_MAX_N:
                exact = cauchy_log_det_sq(float(delta), n)
                misses += _abs_miss(f"{at} log_Dtilde_sq", float(r["log_Dtilde_sq"]), exact, LOGDET_ABS)
    elif csv_name == "exponent_fit_series.csv":
        delta = config["delta_override"]
        for r in rows:
            n = int(r["N"])
            if n <= CAUCHY_MAX_N:
                exact = cauchy_log_det_sq(delta, n)
                misses += _abs_miss(f"{csv_name} N={n} log_det_sq", float(r["log_det_sq"]), exact, LOGDET_ABS)
    elif csv_name == "exponent_fit.csv":
        target = -2 * mp.mpf(config["delta_override"]) ** 2 / mp.pi**2
        for r in rows:
            misses += _rel_miss(f"{csv_name} target_exponent", float(r["target_exponent"]), target, 1e-14)
            misses += _abs_miss(f"{csv_name} fitted_slope", float(r["fitted_slope"]), target, SLOPE_ABS)
    elif csv_name == "anderson.csv":
        delta = config["delta_override"]
        for r in rows:
            n = int(r["N"])
            at = f"{csv_name} N={n}"
            integral = anderson_sum(delta, n)
            misses += _rel_miss(f"{at} anderson_integral", float(r["anderson_integral"]), integral, CLOSED_FORM_REL)
            log_sq = float(r["log_Dtilde_sq"])
            if n <= CAUCHY_MAX_N:
                exact = cauchy_log_det_sq(delta, n)
                misses += _abs_miss(f"{at} log_Dtilde_sq", log_sq, exact, LOGDET_ABS)
                log_sq = exact
            if r["upper_bound_holds"] != "1" or not log_sq <= -integral + INEQUALITY_SLACK:
                misses.append(f"{at} upper_bound_holds: {r['upper_bound_holds']}, {log_sq!r} vs -I = {-integral!r}")
    elif csv_name == "energy.csv":
        phi = half_flux(config["potential"])
        _, delta = flux_angle(phi)
        rho = mp.mpf(config["rho"])
        for r in rows:
            n = int(r["N"])
            at = f"{csv_name} N={n}"
            exact = energy_difference_exact(phi, n, mp.mpf(n) / (2 * rho))
            limit = 4 * rho**2 * (delta**2 if n % 2 else delta * (delta - mp.pi))
            misses += _rel_miss(f"{at} energy_difference", float(r["energy_difference"]), exact, CLOSED_FORM_REL)
            misses += _rel_miss(f"{at} N_times_diff", float(r["N_times_diff"]), n * exact, CLOSED_FORM_REL)
            misses += _rel_miss(f"{at} limit", float(r["limit"]), limit, CLOSED_FORM_REL)
    return misses


def check_outputs(config_name: str, out_dir: Path) -> list[str]:
    """All misses of one CLI run's CSVs against reference and oracles."""
    ref_dir = REFERENCE / config_name
    refs = sorted(ref_dir.glob("*.csv"))
    if not refs:
        return [f"{config_name}: no reference CSVs in {ref_dir}"]
    config = json.loads((CONFIGS / f"{config_name}.json").read_text())
    misses = []
    for ref_csv in refs:
        out_csv = out_dir / ref_csv.name
        label = f"{config_name}/{ref_csv.name}"
        if not out_csv.is_file():
            misses.append(f"{label}: not written")
            continue
        misses += compare_reference(label, ref_csv.name, out_csv, ref_csv)
        misses += [f"{config_name}: {m}" for m in oracle_checks(config, ref_csv.name, read_csv(out_csv)[1])]
    return misses
