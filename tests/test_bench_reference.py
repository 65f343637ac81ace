"""The benchmark's overlap sweeps reproduce their reference rows at small N.

bench/run.py compares every benchmark CSV with its copy in bench/reference/,
but it runs outside the unit tests.  This runs the two sweep configs in
process on their two smallest grid points and compares every column but
config_hash (which hashes the shortened grid) with the matching reference
rows, under bench/reference/tolerances.json, so that a basis or sign slip
in the overlap layer fails here as well.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from flux_catastrophe import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
N_GRID = [128, 181]


def _rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


@pytest.mark.parametrize("sweep", ["sweep_periodic", "sweep_dirichlet"])
def test_sweep_matches_bench_reference_rows(tmp_path, sweep):
    raw = json.loads((BENCH / "configs" / f"{sweep}.json").read_text())
    config = cli.ExperimentConfig.from_dict({**raw, "n_grid": N_GRID})
    assert cli.run_experiment(config, tmp_path, 1) == cli.EXIT_OK
    header, rows = _rows(tmp_path / "overlap_sweep.csv")
    ref_header, ref_rows = _rows(BENCH / "reference" / sweep / "overlap_sweep.csv")
    assert header == ref_header
    reference = {row["N"]: row for row in ref_rows}
    spec = json.loads((BENCH / "reference" / "tolerances.json").read_text())["overlap_sweep.csv"]
    assert [row["N"] for row in rows] == [str(n) for n in N_GRID]
    for row in rows:
        ref = reference[row["N"]]
        for column in header:
            tol = spec[column]
            if column == "config_hash" or "unchecked" in tol:
                continue
            where = (sweep, row["N"], column, row[column], ref[column])
            if tol.get("exact"):
                assert row[column] == ref[column], where
            else:
                value, expected = float(row[column]), float(ref[column])
                assert abs(value - expected) <= tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(expected), where
