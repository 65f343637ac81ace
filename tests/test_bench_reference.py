"""The benchmark's configs reproduce their reference rows at small N.

bench/run.py compares every benchmark CSV with its copy in bench/reference/,
but it runs outside the unit tests.  This runs each benchmark config in
process on the small end of its grid (the sweeps also at their top N, 2048,
where rounding moves are largest) and compares every column but
config_hash (which hashes the shortened grid) with the matching reference
rows, under bench/reference/tolerances.json, so that a basis or sign slip
in the overlap layer, or a moved closed form (log-determinants, polygamma
sums, energies), fails here as well.  The exponent_fit summary row fits
the whole grid, so only its series CSV is compared.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from flux_catastrophe import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (benchmark config, CSV compared, grid points run) of the closed-form rows
CLOSED_FORMS = [
    ("closed_forms_anderson", "anderson.csv", [256, 362, 512, 724]),
    ("closed_forms_exponent_fit", "exponent_fit_series.csv", [256, 362, 512, 724]),
    ("closed_forms_dirichlet_hilbert", "dirichlet_hilbert.csv", [512, 1024]),
    ("closed_forms_energy", "energy.csv", [1001, 10001]),
]


def _rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _assert_matches_reference(tmp_path: Path, workload: str, name: str, n_grid: list[int]) -> None:
    raw = json.loads((BENCH / "configs" / f"{workload}.json").read_text())
    config = cli.ExperimentConfig.from_dict({**raw, "n_grid": n_grid})
    assert cli.run_experiment(config, tmp_path, 1) == cli.EXIT_OK
    header, rows = _rows(tmp_path / name)
    ref_header, ref_rows = _rows(BENCH / "reference" / workload / name)
    assert header == ref_header
    reference = {row["N"]: row for row in ref_rows}
    spec = json.loads((BENCH / "reference" / "tolerances.json").read_text())[name]
    assert [row["N"] for row in rows] == [str(n) for n in n_grid]
    for row in rows:
        ref = reference[row["N"]]
        for column in header:
            tol = spec[column]
            if column == "config_hash" or "unchecked" in tol:
                continue
            where = (workload, row["N"], column, row[column], ref[column])
            if tol.get("exact"):
                assert row[column] == ref[column], where
            else:
                value, expected = float(row[column]), float(ref[column])
                assert abs(value - expected) <= tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(expected), where


@pytest.mark.parametrize("sweep", ["sweep_periodic", "sweep_dirichlet"])
def test_sweep_matches_bench_reference_rows(tmp_path, sweep):
    _assert_matches_reference(tmp_path, sweep, "overlap_sweep.csv", [128, 181, 2048])


@pytest.mark.parametrize("workload, name, n_grid", CLOSED_FORMS, ids=[case[0] for case in CLOSED_FORMS])
def test_closed_forms_match_bench_reference_rows(tmp_path, workload, name, n_grid):
    _assert_matches_reference(tmp_path, workload, name, n_grid)
