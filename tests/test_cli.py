from __future__ import annotations

import json

import pytest

from flux_catastrophe import cli

# flux 2.0 gives n_L = 1; support radius 4 keeps L = N / 2 >= 4 on every grid below
POTENTIAL = {"kind": "gaussian_bump", "center": 0, "width": 0.5, "total_flux": 2.0, "support_radius": 4}


def _write_config(tmp_path, **fields) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


def _sweep(tmp_path, bc="periodic", **extra) -> str:
    return _write_config(
        tmp_path, experiment="overlap_sweep", bc=bc, rho=1.0, n_grid=[16, 24, 32], potential=POTENTIAL, **extra
    )


def test_overlap_sweep_exits_ok(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", _sweep(tmp_path), "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "overlap_sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[-3:] == ["trace_norm_delta", "bound", "bound_holds"]
    assert len(lines) == 4
    assert "delta bound holds" in capsys.readouterr().out


def test_invalid_config_exits_1_with_every_message(tmp_path, capsys):
    config = _write_config(tmp_path, experiment="nope", rho=-1.0, n_grid=[8, 4], bc="neumann")
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_OR_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config:")
    for field in ("experiment: must be one of", "bc: unknown boundary condition", "rho: must be a positive number",
                  "n_grid: must be a nonempty strictly increasing list"):
        assert field in err
    assert not (tmp_path / "out").exists()


def test_missing_and_malformed_config_exit_1(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert "config file not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert "config is not valid JSON" in capsys.readouterr().err


def test_numerical_domain_error_exits_1(tmp_path, capsys):
    # a decay-exponent fit needs at least 4 grid points
    config = _write_config(tmp_path, experiment="exponent_fit", delta_override=0.5, n_grid=[16, 32, 64])
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert "need at least 4 points" in capsys.readouterr().err


def test_tight_gate_exits_2(tmp_path, capsys):
    # C_{N,L} moves slightly along the grid, so a band of exactly 1 is exceeded
    config = _sweep(tmp_path, tolerances={"band_factor": 1.0})
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_PROPERTY_FAILURE
    assert "band EXCEEDED" in capsys.readouterr().out


def test_jobs_defaults_to_one(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda config, out_dir, jobs: seen.append(jobs) or cli.EXIT_OK)
    assert cli.main(["run", _sweep(tmp_path)]) == cli.EXIT_OK
    assert seen == [1]


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_csv_identical_for_one_and_two_jobs(tmp_path, bc):
    config = _sweep(tmp_path, bc=bc)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["run", config, "--jobs", jobs, "--out", str(out)]) == cli.EXIT_OK
        outputs.append((out / "overlap_sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
