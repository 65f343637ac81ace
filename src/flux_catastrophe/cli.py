"""Configuration-driven experiment runner.

Usage:
    flux-catastrophe run <config.json> [--jobs K] [--out DIR]
    flux-catastrophe selftest

A config is a single JSON document (no environment variables are read):

    {
      "experiment": "exponent_fit",      # overlap_sweep | exponent_fit |
                                         # anderson | lemma_check | energy |
                                         # dirichlet_hilbert
      "potential": {...} | null,         # potential schema, see potential.py
      "bc": "periodic" | "dirichlet",    # energy: Dirichlet dE is exactly 0
      "rho": 1.0,                        # density, L = N / (2 rho)
      "n_grid": [128, 181, 256, ...],    # strictly increasing; exponent_fit
                                         # needs at least 4 points
      "delta_override": 0.7853981633,    # optional: bypass the potential
      "output_path": "results",          # directory for CSV artifacts
      "tolerances": {"slope_abs_err": 0.05}   # optional, keys below
    }

Each experiment is a row of EXPERIMENTS (grid-point worker, CSV columns,
gate, tolerance keys); run_experiment maps the worker over n_grid, writes
the CSV and applies the gate.  Tolerance keys and defaults:

    overlap_sweep      band_factor 1e4 (max C_{N,L} / min C_{N,L})
    lemma_check        shares overlap_sweep's row; writes lemma_check.csv
    exponent_fit       slope_abs_err 0.05 (|slope + 2 delta^2 / pi^2|),
                       constant_abs_err 0.05 (|intercept - 2 log G(1+c) G(1-c)|,
                       c = delta / pi, G Barnes' G-function)
    anderson           none (det <= exp(-I) at every point)
    energy             direct_rel_err 1e-10 (closed form vs direct sum)
    dirichlet_hilbert  slope_slack 0.05 (slope <= -2 sin^2(delta) / pi^2 + slack)

The exponent_fit defaults leave room for the finite-N error of a fit on
the smallest grids: at |delta| = pi/2 it reaches 1.8e-2 in the slope
(N = 1..4) and 2.6e-2 in the intercept (N = 1, 10, 11, 12).  On N >= 64
both errors are below 1e-4, so a tighter budget there checks the
theorem's exponent and constant.

Unknown or negative tolerances, a band_factor below 1 (max C / min C is
never below 1, so no run could pass it), a missing potential (overlap_sweep,
lemma_check), a missing potential and delta_override (exponent_fit,
anderson, dirichlet_hilbert), a delta_override anywhere else (overlap_sweep,
lemma_check, energy), fewer than 4 grid points (exponent_fit), an odd N
(dirichlet_hilbert) and a potential field, knot or table value that is not a
finite JSON number are config errors, reported before any output exists.

energy honours bc: the periodic rows hold the closed-form and direct-sum
differences and the limit 4 delta^2 rho^2 or 4 delta (delta - pi) rho^2 of
N dE; under Dirichlet boundary conditions the spectrum does not move, so
dE, the direct sum and the limit are all exactly 0.

Every CSV row carries the config hash, grid points are evaluated in grid
order (or by a pool of --jobs worker processes and merged in grid order),
and floats are printed with 17 significant digits, so identical configs
produce byte-identical CSV files.

--jobs defaults to 1.  Each grid point already runs multithreaded BLAS, so
extra worker processes oversubscribe the cores: on a 2-core Xeon VM
(OpenBLAS 0.3.31, 2 threads) the periodic N = 128 .. 2048 overlap sweep,
bench/configs/sweep_periodic.json, took 1.62, 1.71 and 1.64 s at --jobs 1
against 2.37, 2.48 and 5.80 s at --jobs 2 (wall clock of the command).

Exit codes: 0 success, 2 property-check failure, 1 config, numerical or
usage error (a --jobs below 1 is one, and so is an output directory that
cannot be created, which is reported before any grid point runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import asymptotics, hilbert, overlap, spectrum
from .errors import DomainError, NumericalError
from .matrixcore import fh_log_det, fh_matrix, log_det
from .potential import (
    MagneticPotential,
    flux_profile,
    full_line_delta,
    is_number,
    potential_from_dict,
    potential_to_dict,
    zero_potential,
)
from .spectrum import BoundaryCondition

EXIT_OK = 0
EXIT_CONFIG_OR_NUMERICAL = 1
EXIT_PROPERTY_FAILURE = 2


@dataclass
class ExperimentConfig:
    experiment: str
    potential: MagneticPotential | None
    bc: BoundaryCondition
    rho: float
    n_grid: list[int]
    delta_override: float | None
    output_path: str
    tolerances: dict[str, float] = field(default_factory=dict)
    config_hash: str = ""

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise DomainError(f"invalid config:\n  must be a JSON object, got {type(raw).__name__}")
        errors: list[str] = []
        experiment = raw.get("experiment")
        row = EXPERIMENTS.get(experiment) if isinstance(experiment, str) else None
        if row is None:
            errors.append(f"experiment: must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}")
        pot = None
        if raw.get("potential") is not None:
            try:
                pot = potential_from_dict(raw["potential"])
            except (DomainError, TypeError, ValueError) as exc:
                errors.append(f"potential: {exc}")
        bc = BoundaryCondition.PERIODIC
        try:
            bc = BoundaryCondition.parse(raw.get("bc", "periodic"))
        except DomainError as exc:
            errors.append(f"bc: {exc}")
        rho = raw.get("rho", 1.0)
        if not is_number(rho) or rho <= 0:
            errors.append(f"rho: must be a positive number, got {rho!r}")
        n_grid = raw.get("n_grid", list(asymptotics.DEFAULT_N_GRID))
        grid_ok = (
            isinstance(n_grid, list)
            and bool(n_grid)
            and all(type(n) is int and n >= 1 for n in n_grid)
            and all(b > a for a, b in zip(n_grid[:-1], n_grid[1:]))
        )
        if not grid_ok:
            errors.append(f"n_grid: must be a nonempty strictly increasing list of integers, got {n_grid!r}")
        delta = raw.get("delta_override")
        if delta is not None and (not is_number(delta) or abs(delta) > math.pi / 2):
            errors.append(f"delta_override: must be a number with |delta| <= pi/2, got {delta!r}")
        out = raw.get("output_path", "results")
        if not isinstance(out, str) or not out:
            errors.append(f"output_path: must be a nonempty string, got {out!r}")
        tol = raw.get("tolerances", {})
        if not isinstance(tol, dict):
            errors.append(f"tolerances: must be an object, got {tol!r}")
        if row is not None:
            has_potential = raw.get("potential") is not None
            if row.needs == "potential" and not has_potential:
                errors.append(f"potential: {experiment} requires a potential")
            if row.needs == "delta" and not has_potential and delta is None:
                errors.append(f"delta_override: {experiment} needs either a potential or delta_override")
            if row.needs != "delta" and delta is not None:
                errors.append(f"delta_override: {experiment} takes delta from its potential, not delta_override")
            if row.even_n and grid_ok and any(n % 2 for n in n_grid):
                errors.append(f"n_grid: {experiment} requires even N values (N = 2M), got {n_grid!r}")
            if grid_ok and len(n_grid) < row.min_points:
                errors.append(f"n_grid: {experiment} needs at least {row.min_points} points, got {n_grid!r}")
            for key, value in tol.items() if isinstance(tol, dict) else ():
                if key not in row.tolerances:
                    accepted = ", ".join(row.tolerances) or "none"
                    errors.append(f"tolerances: unknown key {key!r} for {experiment} (accepted: {accepted})")
                elif not is_number(value) or value < 0:
                    errors.append(f"tolerances: {key} must be a non-negative finite number, got {value!r}")
                elif key == "band_factor" and value < 1:
                    errors.append(f"tolerances: band_factor must be >= 1, since max C / min C >= 1, got {value!r}")
        if errors:
            raise DomainError("invalid config:\n  " + "\n  ".join(errors))
        config = cls(
            experiment=experiment,
            potential=pot,
            bc=bc,
            rho=float(rho),
            n_grid=list(n_grid),
            delta_override=None if delta is None else float(delta),
            output_path=out,
            tolerances={k: float(v) for k, v in tol.items()},
        )
        canonical = {
            "experiment": experiment,
            "potential": potential_to_dict(pot) if pot is not None else None,
            "bc": bc.value,
            "rho": config.rho,
            "n_grid": config.n_grid,
            "delta_override": config.delta_override,
            "output_path": out,
            "tolerances": {k: tol[k] for k in sorted(tol)},
        }
        serial = json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
        config.config_hash = hashlib.sha256(serial).hexdigest()[:12]
        return config

    def resolve_delta(self) -> float:
        """The flux angle delta: the override, or the potential's full-line value."""
        if self.delta_override is not None:
            return self.delta_override
        return full_line_delta(self.potential)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def write_rows(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# per-grid-point workers (top level for picklability): (config, N) -> CSV row
# ---------------------------------------------------------------------------


def _overlap_point(config: ExperimentConfig, n: int) -> tuple:
    L = n / (2.0 * config.rho)
    return (n, L, config.rho, *overlap.evaluate_point(config.potential, config.bc, n, L))


def _fh_point(config: ExperimentConfig, n: int) -> tuple:
    return (n, 2.0 * fh_log_det(config.resolve_delta(), n))


def _anderson_point(config: ExperimentConfig, n: int) -> tuple:
    """det(A) <= exp(-tr(1 - A)) for the jump symbol: log|D~|^2 <= -I_N, up to 1e-8."""
    delta = config.resolve_delta()
    log_sq = 2.0 * fh_log_det(delta, n)
    integral = asymptotics.anderson_integral(delta, n)
    return (n, delta, integral, log_sq, log_sq <= -integral + 1e-8)


def _energy_point(config: ExperimentConfig, n: int) -> tuple:
    pot, rho, bc = config.potential, config.rho, config.bc
    L = n / (2.0 * rho)
    diff = spectrum.energy_difference(bc, pot, n, L)
    direct = spectrum.energy_difference_direct(bc, pot, n, L)
    parity = "odd" if n % 2 else "even"
    limit = spectrum.finite_size_energy(pot, parity, rho) if bc is BoundaryCondition.PERIODIC else 0.0
    scaled = n * diff
    rel = abs(scaled - limit) / abs(limit) if limit != 0 else abs(scaled)
    delta = flux_profile(pot, L).delta_L if pot is not None else 0.0
    return (n, L, rho, delta, parity, diff, direct, scaled, limit, rel)


def _dirichlet_point(config: ExperimentConfig, n: int) -> tuple:
    delta, m = config.resolve_delta(), n // 2
    ld = hilbert.dirichlet_flux_logdet(delta, n)
    return (m, n, delta, 2.0 * ld, *hilbert.k_part_norms(m), hilbert.hilbert_section_norm(m))


def _run_pool(worker, args_list, jobs: int) -> list[tuple]:
    if jobs <= 1 or len(args_list) <= 1:
        return [worker(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, args_list))


# ---------------------------------------------------------------------------
# gates: (config, columns by name, tolerances, out_dir) -> (ok, message)
# ---------------------------------------------------------------------------


def _c_band_gate(config: ExperimentConfig, cols: dict, tol: dict, out_dir: Path) -> tuple[bool, str]:
    """The factorization lemma: 0 < C_{N,L} < inf at every point, within
    an empirical band max C / min C <= band_factor (the lemma's constants
    are unnamed), and ||Delta_N||_1 within its moment bound."""
    ratios = cols["C_ratio"]
    finite = [c for c in ratios if math.isfinite(c) and c > 0]
    degenerate = [n for n, c in zip(cols["N"], ratios) if not (math.isfinite(c) and c > 0)]
    lo, hi = (min(finite), max(finite)) if finite else (math.nan, math.nan)
    bound_ok = all(cols["bound_holds"])
    band_ok = not finite or hi / lo <= tol["band_factor"]
    message = (
        f"{config.experiment}: {len(ratios)} points, C in [{lo:.6g}, {hi:.6g}], "
        f"delta bound {'holds' if bound_ok else 'VIOLATED'}, "
        f"band {'ok' if band_ok else 'EXCEEDED'}"
    )
    if degenerate:
        message += f", degenerate C at N = {degenerate}"
    return bound_ok and band_ok and not degenerate, message


def _exponent_gate(config: ExperimentConfig, cols: dict, tol: dict, out_dir: Path) -> tuple[bool, str]:
    """Fitted decay slope within slope_abs_err of -2 delta^2 / pi^2 and intercept
    within constant_abs_err of the Fisher-Hartwig constant; writes exponent_fit.csv."""
    delta = config.resolve_delta()
    series = list(zip(cols["N"], cols["log_det_sq"]))
    fit = asymptotics.fit_decay_exponent(series)
    target = asymptotics.theorem_exponent(delta)
    constant = asymptotics.theorem_constant(delta)
    write_rows(
        out_dir / "exponent_fit.csv",
        ["config_hash", "delta", "target_exponent", "fitted_slope", "residual", "n_points"],
        [(config.config_hash, delta, target, fit.slope, fit.max_abs_residual, len(series))],
    )
    err = abs(fit.slope - target)
    budget = tol["slope_abs_err"]
    constant_err = abs(fit.intercept - constant)
    constant_budget = tol["constant_abs_err"]
    return err <= budget and constant_err <= constant_budget, (
        f"exponent_fit: delta={delta:.6g} fitted slope {fit.slope:.6f} vs target {target:.6f} "
        f"(|err| = {err:.2e}, budget {budget:g}); intercept {fit.intercept:.9f} vs "
        f"2 log G(1+c)G(1-c) = {constant:.9f} (|err| = {constant_err:.2e}, budget {constant_budget:g})"
    )


def _anderson_gate(config: ExperimentConfig, cols: dict, tol: dict, out_dir: Path) -> tuple[bool, str]:
    ok = all(cols["upper_bound_holds"])
    return ok, f"anderson: {len(cols['N'])} points, det <= exp(-I) {'holds' if ok else 'VIOLATED'}"


def _energy_gate(config: ExperimentConfig, cols: dict, tol: dict, out_dir: Path) -> tuple[bool, str]:
    worst = max(
        abs(closed - direct) / max(abs(direct), 1e-300)
        for closed, direct in zip(cols["energy_difference"], cols["direct_difference"])
    )
    return worst <= tol["direct_rel_err"], (
        f"energy: {len(cols['N'])} points, worst closed-vs-direct rel err {worst:.2e}; "
        f"N*dE = {cols['N_times_diff'][-1]:.9g} vs limit {cols['limit'][-1]:.9g} at N = {cols['N'][-1]}"
    )


def _dirichlet_gate(config: ExperimentConfig, cols: dict, tol: dict, out_dir: Path) -> tuple[bool, str]:
    delta = config.resolve_delta()
    op_ok = all(v <= math.pi**2 / 4 + 1e-8 for v in cols["opnorm_mm"])
    series = list(zip(cols["N"], cols["logdet_sq"]))
    fit = asymptotics.fit_decay_exponent(series) if len(series) >= 4 else None
    bound = asymptotics.upper_bound_exponent(delta)
    slope_ok = fit is None or fit.slope <= bound + tol["slope_slack"]
    slope_txt = "n/a (need >= 4 grid points)" if fit is None else f"{fit.slope:.6f}"
    return op_ok and slope_ok, (
        f"dirichlet_hilbert: {len(series)} points, slope {slope_txt} vs bound {bound:.6f}, "
        f"||K--|| <= pi^2/4 {'holds' if op_ok else 'VIOLATED'}"
    )


# ---------------------------------------------------------------------------
# the experiment table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A row of the experiment table.  The CSV prefixes the worker's
    ``columns`` with config_hash; ``tolerances`` holds every key the gate
    reads, with its default.  ``needs`` ("potential", "delta" for a
    potential or delta_override, the only rows that accept one, or ""),
    ``even_n`` and ``min_points`` (the shortest n_grid) are checked at load."""

    worker: Callable[[ExperimentConfig, int], tuple]
    csv: str
    columns: tuple[str, ...]
    gate: Callable[[ExperimentConfig, dict, dict, Path], tuple[bool, str]]
    tolerances: dict[str, float]
    needs: str = ""
    even_n: bool = False
    min_points: int = 1


_SWEEP = Experiment(
    _overlap_point, "overlap_sweep.csv",
    ("N", "L", "rho", "delta_L", "n_L", "log_D_sq", "log_Dtilde_sq", "C_ratio", "trace_norm_delta", "bound",
     "bound_holds"),
    _c_band_gate, {"band_factor": 1e4}, needs="potential",
)

EXPERIMENTS: dict[str, Experiment] = {
    "overlap_sweep": _SWEEP,
    "exponent_fit": Experiment(
        _fh_point, "exponent_fit_series.csv", ("N", "log_det_sq"),
        _exponent_gate, {"slope_abs_err": 0.05, "constant_abs_err": 0.05}, needs="delta", min_points=4,
    ),
    "anderson": Experiment(
        _anderson_point, "anderson.csv", ("N", "delta", "anderson_integral", "log_Dtilde_sq", "upper_bound_holds"),
        _anderson_gate, {}, needs="delta",
    ),
    "lemma_check": replace(_SWEEP, csv="lemma_check.csv"),
    "energy": Experiment(
        _energy_point, "energy.csv",
        ("N", "L", "rho", "delta", "parity", "energy_difference", "direct_difference", "N_times_diff", "limit",
         "rel_err"),
        _energy_gate, {"direct_rel_err": 1e-10},
    ),
    "dirichlet_hilbert": Experiment(
        _dirichlet_point, "dirichlet_hilbert.csv",
        ("M", "N", "delta", "logdet_sq", "trace_mm", "trace_pp", "mixed_bound", "opnorm_mm", "hilbert_section_norm"),
        _dirichlet_gate, {"slope_slack": 0.05}, needs="delta", even_n=True,
    ),
}


def run_experiment(config: ExperimentConfig, out_dir: Path, jobs: int) -> int:
    """Evaluate every grid point, write the experiment's CSV, apply its gate."""
    row = EXPERIMENTS[config.experiment]
    header = ["config_hash", *row.columns]
    rows = [(config.config_hash, *r) for r in _run_pool(partial(row.worker, config), config.n_grid, jobs)]
    write_rows(out_dir / row.csv, header, rows)
    cols = dict(zip(header, zip(*rows)))
    ok, message = row.gate(config, cols, {**row.tolerances, **config.tolerances}, out_dir)
    print(message)
    return EXIT_OK if ok else EXIT_PROPERTY_FAILURE


# ---------------------------------------------------------------------------
# selftest: compact end-to-end property run (small grids)
# ---------------------------------------------------------------------------


# each experiment's own row on a small grid
_BUMP = {"kind": "gaussian_bump", "total_flux": math.pi / 4}
_SELFTEST_CONFIGS = (
    {"experiment": "exponent_fit", "delta_override": math.pi / 4, "n_grid": [64, 91, 128, 181, 256]},
    {"experiment": "anderson", "delta_override": math.pi / 4, "n_grid": [16, 64, 256]},
    {"experiment": "lemma_check", "potential": _BUMP, "n_grid": [32, 64, 128]},
    {"experiment": "energy", "potential": _BUMP, "n_grid": [101]},
    {"experiment": "dirichlet_hilbert", "delta_override": math.pi / 4, "n_grid": [256]},
)


def selftest() -> int:
    """Fast built-in property suite; the full acceptance suite lives in pytest."""
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"selftest {label}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
        failures += 0 if ok else 1

    with tempfile.TemporaryDirectory() as scratch:
        for raw in _SELFTEST_CONFIGS:
            config = ExperimentConfig.from_dict(raw)
            check(config.experiment, run_experiment(config, Path(scratch), 1) == EXIT_OK)

    # the O(1) Cauchy sum and the Dirichlet parity reduction against dense LU of
    # the jump matrices they stand for (fh_matrix, and flux_matrix's Dirichlet
    # assembly); at delta = 0 the jump matrix is the identity
    worst = max(
        abs(fh_log_det(delta, n) - log_det(fh_matrix(delta, n))) for delta in (0.0, math.pi / 4, math.pi / 2)
        for n in (64, 181)
    )
    check("jump log-det vs LU", worst < 1e-12, f"max |diff| {worst:.1e}")
    worst = max(
        abs(log_det(overlap.flux_matrix(math.pi / 4, BoundaryCondition.DIRICHLET, n))
            - hilbert.dirichlet_flux_logdet(math.pi / 4, n))
        for n in (16, 17, 181, 256)
    )
    check("dirichlet reduction", worst < 1e-8, f"max |diff| {worst:.1e}")
    # the matrix-free, certified log det(I - alpha K) against LU of the dense K
    alpha = (4.0 / math.pi**2) * math.sin(math.pi / 4) ** 2
    worst = max(
        abs(log_det(np.eye(n // 2) - alpha * hilbert.k_matrix(n)) - hilbert.dirichlet_flux_logdet(math.pi / 4, n))
        for n in (48, 256)
    )
    check("matrix-free K log-det vs dense K", worst < 1e-12, f"max |diff| {worst:.1e}")

    # the certified matrix-free log|D|^2 against LU of the assembled overlap matrix
    bump = potential_from_dict(_BUMP)
    worst = max(
        abs(overlap.overlap_log_det_sq(overlap.overlap_coefficients(prof, bc, n), bc, n)
            - 2.0 * log_det(overlap.overlap_matrix(prof, bc, n)))
        for bc in BoundaryCondition
        for n in (64, 181)
        for prof in [flux_profile(bump, n / 2.0)]
    )
    check("matrix-free overlap log-det vs LU", worst < 1e-10, f"max |diff| {worst:.1e}")

    m = overlap.overlap_matrix(flux_profile(zero_potential(), 8.0), BoundaryCondition.PERIODIC, 16)
    check("zero potential identity", float(np.max(np.abs(m - np.eye(16)))) < 1e-10)

    print(f"selftest: {'all checks passed' if failures == 0 else f'{failures} check(s) FAILED'}")
    return EXIT_OK if failures == 0 else EXIT_PROPERTY_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="flux-catastrophe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment described by a JSON config")
    runp.add_argument("config", type=Path, help="path to the config JSON document")
    runp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default: 1; grid points already use multithreaded BLAS, "
        "so more workers oversubscribe the cores)",
    )
    runp.add_argument("--out", type=Path, default=None, help="output directory (overrides config output_path)")
    sub.add_parser("selftest", help="run the built-in property suite")
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.jobs < 1:
            runp.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, the property-failure code here
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG_OR_NUMERICAL

    if args.command == "selftest":
        return selftest()

    try:
        raw = json.loads(args.config.read_text())
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG_OR_NUMERICAL
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG_OR_NUMERICAL
    try:
        config = ExperimentConfig.from_dict(raw)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_OR_NUMERICAL

    out_dir = args.out if args.out is not None else Path(config.output_path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG_OR_NUMERICAL
    try:
        return run_experiment(config, out_dir, args.jobs)
    except (DomainError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_OR_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
