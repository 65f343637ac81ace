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
      "bc": "periodic" | "dirichlet",
      "rho": 1.0,                        # density, L = N / (2 rho)
      "n_grid": [128, 181, 256, ...],    # strictly increasing
      "delta_override": 0.7853981633,    # optional: bypass the potential
      "output_path": "results",          # directory for CSV artifacts
      "tolerances": {"slope_abs_err": 0.05}   # optional per-experiment knobs
    }

Every CSV row carries the config hash, grid points are evaluated in grid
order (or by a pool of --jobs worker processes and merged in grid order),
and floats are printed with 17 significant digits, so identical configs
produce byte-identical CSV files.

--jobs defaults to 1.  Each grid point already runs multithreaded BLAS, so
extra worker processes oversubscribe the cores: on a 2-core machine the
periodic N = 128 .. 2048 overlap sweep took 86.5 s at --jobs 2 against
10.8 s at --jobs 1 (bench/README.md).

Exit codes: 0 success, 2 property-check failure, 1 config or numerical error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import asymptotics, hilbert, overlap, spectrum
from .errors import DomainError, NumericalError
from .potential import MagneticPotential, full_line_delta, potential_from_dict, potential_to_dict
from .spectrum import BoundaryCondition

EXPERIMENTS = (
    "overlap_sweep",
    "exponent_fit",
    "anderson",
    "lemma_check",
    "energy",
    "dirichlet_hilbert",
)

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
        errors: list[str] = []
        experiment = raw.get("experiment")
        if experiment not in EXPERIMENTS:
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
        if not isinstance(rho, (int, float)) or rho <= 0:
            errors.append(f"rho: must be a positive number, got {rho!r}")
        n_grid = raw.get("n_grid", list(asymptotics.DEFAULT_N_GRID))
        if (
            not isinstance(n_grid, list)
            or not n_grid
            or not all(isinstance(n, int) and n >= 1 for n in n_grid)
            or any(b <= a for a, b in zip(n_grid[:-1], n_grid[1:]))
        ):
            errors.append(f"n_grid: must be a nonempty strictly increasing list of integers, got {n_grid!r}")
        delta = raw.get("delta_override")
        if delta is not None:
            if not isinstance(delta, (int, float)) or abs(delta) >= math.pi / 2:
                errors.append(f"delta_override: must be a number with |delta| < pi/2, got {delta!r}")
        out = raw.get("output_path", "results")
        if not isinstance(out, str) or not out:
            errors.append(f"output_path: must be a nonempty string, got {out!r}")
        tol = raw.get("tolerances", {})
        if not isinstance(tol, dict):
            errors.append(f"tolerances: must be an object, got {tol!r}")
        if errors:
            raise DomainError("invalid config:\n  " + "\n  ".join(errors))
        canonical = {
            "experiment": experiment,
            "potential": potential_to_dict(pot) if pot is not None else None,
            "bc": bc.value,
            "rho": float(rho),
            "n_grid": list(n_grid),
            "delta_override": None if delta is None else float(delta),
            "output_path": out,
            "tolerances": {k: tol[k] for k in sorted(tol)},
        }
        digest = hashlib.sha256(
            json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:12]
        return cls(
            experiment=experiment,
            potential=pot,
            bc=bc,
            rho=float(rho),
            n_grid=list(n_grid),
            delta_override=None if delta is None else float(delta),
            output_path=out,
            tolerances={k: float(v) for k, v in tol.items()},
            config_hash=digest,
        )

    def resolve_delta(self) -> float:
        """The flux angle delta: the override, or the potential's full-line value."""
        if self.delta_override is not None:
            return self.delta_override
        if self.potential is None:
            raise DomainError("experiment needs either a potential or delta_override")
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
# per-grid-point workers (top level for picklability)
# ---------------------------------------------------------------------------


def _overlap_point(args) -> tuple:
    pot_spec, bc_value, rho, n = args
    pot = potential_from_dict(pot_spec)
    L = n / (2.0 * rho)
    point = overlap.evaluate_point(pot, BoundaryCondition(bc_value), n, L)
    res, check = point.overlap, point.bound_check
    return (
        n,
        L,
        rho,
        res.delta_L,
        res.n_L,
        2.0 * res.logdet_exact.log_magnitude,
        2.0 * res.logdet_flux.log_magnitude,
        res.c_ratio,
        check.trace_norm_delta,
        check.bound,
        check.holds,
    )


def _fh_point(args) -> tuple:
    delta, n = args
    from .matrixcore import fh_matrix, log_det

    ld = log_det(fh_matrix(delta, n))
    return (n, 2.0 * ld.log_magnitude)


def _anderson_point(args) -> tuple:
    delta, n = args
    from .matrixcore import fh_matrix, log_det

    ld = log_det(fh_matrix(delta, n))
    integral = asymptotics.anderson_integral(delta, n)
    check = asymptotics.upper_bound_check(ld, integral)
    return (n, delta, integral.value, check.log_overlap_sq, check.holds)


def _energy_point(args) -> tuple:
    pot_spec, rho, n = args
    pot = potential_from_dict(pot_spec) if pot_spec is not None else None
    L = n / (2.0 * rho)
    bc = BoundaryCondition.PERIODIC
    diff = spectrum.energy_difference(bc, pot, n, L)
    direct = spectrum.energy_difference_direct(bc, pot, n, L)
    parity = "odd" if n % 2 else "even"
    limit = spectrum.finite_size_energy(pot, parity, rho)
    scaled = n * diff
    rel = abs(scaled - limit) / abs(limit) if limit != 0 else abs(scaled)
    if pot is not None:
        from .potential import flux_profile

        delta = flux_profile(pot, L).delta_L
    else:
        delta = 0.0
    return (n, L, rho, delta, parity, diff, direct, scaled, limit, rel)


def _dirichlet_point(args) -> tuple:
    delta, n = args
    if n % 2:
        raise DomainError(f"dirichlet_hilbert needs even N, got {n}")
    m = n // 2
    ld = hilbert.dirichlet_flux_logdet(delta, m)
    norms = hilbert.k_part_norms(m)
    hn = hilbert.hilbert_section_norm(m)
    return (m, n, delta, 2.0 * ld.log_magnitude, norms.t_mm, norms.t_pp, norms.t_mixed, norms.op_mm, hn)


def _run_pool(worker, args_list, jobs: int) -> list[tuple]:
    if jobs <= 1 or len(args_list) <= 1:
        return [worker(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, args_list))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, out_dir: Path, jobs: int) -> int:
    name = config.experiment
    tol = config.tolerances
    if name in ("overlap_sweep", "lemma_check"):
        if config.potential is None:
            raise DomainError(f"{name} requires a potential")
        pot_spec = potential_to_dict(config.potential)
        rows = _run_pool(
            _overlap_point,
            [(pot_spec, config.bc.value, config.rho, n) for n in config.n_grid],
            jobs,
        )
        rows = [(config.config_hash, *r) for r in rows]
        header = [
            "config_hash", "N", "L", "rho", "delta_L", "n_L",
            "log_D_sq", "log_Dtilde_sq", "C_ratio", "trace_norm_delta", "bound", "bound_holds",
        ]
        write_rows(out_dir / f"{name}.csv", header, rows)
        ratios = [r[8] for r in rows if math.isfinite(r[8]) and r[8] > 0]
        bound_ok = all(bool(r[-1]) for r in rows)
        band = tol.get("band_factor", 1e4)
        band_ok = True
        if ratios:
            band_ok = max(ratios) / min(ratios) <= band
        print(
            f"{name}: {len(rows)} points, C in [{min(ratios):.6g}, {max(ratios):.6g}], "
            f"delta bound {'holds' if bound_ok else 'VIOLATED'}, "
            f"band {'ok' if band_ok else 'EXCEEDED'}"
        )
        return EXIT_OK if bound_ok and band_ok else EXIT_PROPERTY_FAILURE

    if name == "exponent_fit":
        delta = config.resolve_delta()
        series = _run_pool(_fh_point, [(delta, n) for n in config.n_grid], jobs)
        fit = asymptotics.fit_decay_exponent(series)
        target = asymptotics.theorem_exponent(delta)
        rows = [(config.config_hash, delta, target, fit.slope, fit.max_abs_residual, len(series))]
        write_rows(
            out_dir / "exponent_fit.csv",
            ["config_hash", "delta", "target_exponent", "fitted_slope", "residual", "n_points"],
            rows,
        )
        series_rows = [(config.config_hash, n, v) for n, v in series]
        write_rows(out_dir / "exponent_fit_series.csv", ["config_hash", "N", "log_det_sq"], series_rows)
        err = abs(fit.slope - target)
        budget = tol.get("slope_abs_err", 0.05)
        print(
            f"exponent_fit: delta={delta:.6g} fitted slope {fit.slope:.6f} vs target {target:.6f} "
            f"(|err| = {err:.2e}, budget {budget:g}, prefactor estimate c = {math.exp(fit.intercept):.6g})"
        )
        return EXIT_OK if err <= budget else EXIT_PROPERTY_FAILURE

    if name == "anderson":
        delta = config.resolve_delta()
        rows = _run_pool(_anderson_point, [(delta, n) for n in config.n_grid], jobs)
        rows = [(config.config_hash, *r) for r in rows]
        write_rows(
            out_dir / "anderson.csv",
            ["config_hash", "N", "delta", "anderson_integral", "log_Dtilde_sq", "upper_bound_holds"],
            rows,
        )
        ok = all(bool(r[-1]) for r in rows)
        print(f"anderson: {len(rows)} points, det <= exp(-I) {'holds' if ok else 'VIOLATED'}")
        return EXIT_OK if ok else EXIT_PROPERTY_FAILURE

    if name == "energy":
        pot_spec = potential_to_dict(config.potential) if config.potential is not None else None
        rows = _run_pool(_energy_point, [(pot_spec, config.rho, n) for n in config.n_grid], jobs)
        rows = [(config.config_hash, *r) for r in rows]
        write_rows(
            out_dir / "energy.csv",
            [
                "config_hash", "N", "L", "rho", "delta", "parity",
                "energy_difference", "direct_difference", "N_times_diff", "limit", "rel_err",
            ],
            rows,
        )
        worst = max(abs(r[6] - r[7]) / max(abs(r[7]), 1e-300) for r in rows)
        last = rows[-1]
        print(
            f"energy: {len(rows)} points, worst closed-vs-direct rel err {worst:.2e}; "
            f"N*dE = {last[8]:.9g} vs limit {last[9]:.9g} at N = {last[1]}"
        )
        budget = tol.get("direct_rel_err", 1e-10)
        return EXIT_OK if worst <= budget else EXIT_PROPERTY_FAILURE

    if name == "dirichlet_hilbert":
        delta = config.resolve_delta()
        if any(n % 2 for n in config.n_grid):
            raise DomainError("dirichlet_hilbert requires even N values (N = 2M)")
        rows = _run_pool(_dirichlet_point, [(delta, n) for n in config.n_grid], jobs)
        rows = [(config.config_hash, *r) for r in rows]
        write_rows(
            out_dir / "dirichlet_hilbert.csv",
            [
                "config_hash", "M", "N", "delta", "logdet_sq",
                "trace_mm", "trace_pp", "mixed_bound", "opnorm_mm", "hilbert_section_norm",
            ],
            rows,
        )
        op_ok = all(r[8] <= math.pi**2 / 4 + 1e-8 for r in rows)
        fit = asymptotics.fit_decay_exponent([(r[2], r[4]) for r in rows]) if len(rows) >= 4 else None
        bound = asymptotics.upper_bound_exponent(delta)
        slope_ok = fit is None or fit.slope <= bound + config.tolerances.get("slope_slack", 0.05)
        slope_txt = "n/a (need >= 4 grid points)" if fit is None else f"{fit.slope:.6f}"
        print(
            f"dirichlet_hilbert: {len(rows)} points, slope {slope_txt} vs bound {bound:.6f}, "
            f"||K--|| <= pi^2/4 {'holds' if op_ok else 'VIOLATED'}"
        )
        return EXIT_OK if op_ok and slope_ok else EXIT_PROPERTY_FAILURE

    raise DomainError(f"unknown experiment {name!r}")


# ---------------------------------------------------------------------------
# selftest: compact end-to-end property run (small grids)
# ---------------------------------------------------------------------------


def selftest() -> int:
    """Fast built-in property suite; the full acceptance suite lives in pytest."""
    import numpy as np

    from .matrixcore import fh_matrix, log_det
    from .potential import gaussian_bump_with_flux, zero_potential

    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"selftest {label}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
        failures += 0 if ok else 1

    delta = math.pi / 4
    series = asymptotics.fh_decay_series(delta, (64, 91, 128, 181, 256))
    fit = asymptotics.fit_decay_exponent(series)
    target = asymptotics.theorem_exponent(delta)
    check("exponent", abs(fit.slope - target) <= 0.05, f"slope {fit.slope:.4f} target {target:.4f}")

    ld0 = log_det(fh_matrix(0.0, 64))
    check("delta-zero overlap", abs(2 * ld0.log_magnitude) < 1e-10)

    ok = True
    for n in (16, 64, 256):
        c = asymptotics.upper_bound_check(log_det(fh_matrix(delta, n)), asymptotics.anderson_integral(delta, n))
        ok = ok and c.holds
    check("det<=exp(-tr)", ok)

    pot = gaussian_bump_with_flux(delta)
    rep = overlap.lemma_factorization_check(pot, BoundaryCondition.PERIODIC, [32, 64, 128], rho=1.0)
    check("lemma band", not rep.flagged and not rep.degenerate, rep.summary())

    bound = overlap.delta_matrix_bound_check(pot, BoundaryCondition.PERIODIC, 64, 32.0)
    check("delta trace bound", bound.holds, f"{bound.trace_norm_delta:.4f} <= {bound.bound:.4f}")

    d = spectrum.energy_difference(BoundaryCondition.PERIODIC, pot, 101, 50.5)
    direct = spectrum.energy_difference_direct(BoundaryCondition.PERIODIC, pot, 101, 50.5)
    check("energy closed form", abs(d - direct) <= 1e-10 * abs(d))

    ldb, ldr = hilbert.block_reduction_check(delta, 8)
    check("dirichlet reduction", abs(ldb - ldr) < 1e-8, f"{ldb:.10f} vs {ldr:.10f}")

    norms = hilbert.k_part_norms(128)
    check("K-- norm", norms.op_mm <= math.pi**2 / 4 + 1e-8, f"{norms.op_mm:.6f}")

    zero = zero_potential()
    m = overlap.overlap_matrix(zero, BoundaryCondition.PERIODIC, 16, 8.0)
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
        "and --jobs 2 on 2 cores ran the periodic sweep 8x slower: 86.5 s against 10.8 s)",
    )
    runp.add_argument("--out", type=Path, default=None, help="output directory (overrides config output_path)")
    sub.add_parser("selftest", help="run the built-in property suite")
    args = parser.parse_args(argv)

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
        return run_experiment(config, out_dir, args.jobs)
    except (DomainError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_OR_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
