from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flux_catastrophe import cli, hilbert, overlap
from flux_catastrophe.errors import DomainError, NumericalError
from flux_catastrophe.matrixcore import log_det
from flux_catastrophe.potential import flux_profile, potential_from_dict
from flux_catastrophe.spectrum import BoundaryCondition
from oracles import cauchy_fh_logdet_sq

# flux 2.0 gives n_L = 1; support radius 4 keeps L = N / 2 >= 4 on every grid below
POTENTIAL = {"kind": "gaussian_bump", "center": 0, "width": 0.5, "total_flux": 2.0, "support_radius": 4}
# the Dirichlet benchmark sweep's potential
DIRICHLET_SWEEP_POTENTIAL = {
    "kind": "piecewise_linear", "knots": [[-3, 0], [-1.5, 0.6], [0, 1.2], [0.5, 0.3], [2.5, 0]], "support_radius": 3
}


def _write_config(tmp_path, **fields) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


def _cli_env(openblas_threads: str | None = None) -> dict[str, str]:
    """This environment with the package on the path and OPENBLAS_NUM_THREADS as given (None: unset).

    Importing cli sets OPENBLAS_NUM_THREADS in this process too, so a child
    that should see the caller's default needs it removed."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


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


def test_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]")
    assert cli.main(["run", str(config)]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert "error: invalid config:\n  must be a JSON object, got list" in capsys.readouterr().err


def test_missing_and_malformed_config_exit_1(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert "config file not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert "config is not valid JSON" in capsys.readouterr().err


def test_config_directory_exits_1_without_a_traceback(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path)]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_binary_config_exits_1_without_a_traceback(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"experiment": "\xff\xfe"}')
    assert cli.main(["run", str(config)]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_grid_point_error_names_the_experiment_and_n(tmp_path, monkeypatch, capsys):
    evaluate = overlap.evaluate_point

    def failing(a, bc, n, L):
        if n == 24:
            raise NumericalError("log-det rounding alone exceeds the budget", achieved=2e-10, requested=1e-10)
        return evaluate(a, bc, n, L)

    monkeypatch.setattr(overlap, "evaluate_point", failing)
    out = tmp_path / "out"
    assert cli.main(["run", _sweep(tmp_path), "--out", str(out)]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert capsys.readouterr().err == (
        "error: overlap_sweep at N = 24: log-det rounding alone exceeds the budget "
        "(achieved=2e-10, requested=1e-10)\n"
    )
    assert list(out.iterdir()) == []
    # the type and the context reach in-process callers unchanged
    with pytest.raises(NumericalError) as info:
        cli.run_experiment(cli.ExperimentConfig.from_dict(json.loads(Path(_sweep(tmp_path)).read_text())), out)
    assert info.value.context == {"achieved": 2e-10, "requested": 1e-10}


def test_grid_point_error_names_the_stage_after_the_experiment_and_n(tmp_path, monkeypatch, capsys):
    # a log-det budget no rounding meets: the bound raises with its context,
    # and the message names the grid point, then the stage; both bases bound
    # their p x p Sylvester step
    monkeypatch.setattr(overlap, "_LOGDET_ABS_ERR", 1e-300)
    for bc in ("dirichlet", "periodic"):
        config = _write_config(tmp_path, experiment="overlap_sweep", bc=bc, rho=1.0, n_grid=[48, 64],
                               potential=POTENTIAL)
        assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_OR_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: overlap_sweep at N = 48: overlap log-det: "
                              "Sylvester log-det bound exceeds the budget ("), err
        for key in ("achieved=", "requested=1e-300", "s_min=", "p=48"):
            assert key in err
    monkeypatch.setattr(hilbert, "_LOGDET_ABS_ERR", 1e-300)
    config = _write_config(tmp_path, experiment="dirichlet_hilbert", delta_override=math.pi / 4, n_grid=[256])
    with pytest.raises(NumericalError) as info:
        cli.run_experiment(cli.ExperimentConfig.from_dict(json.loads(Path(config).read_text())), tmp_path / "out")
    assert info.value.args[0] == "dirichlet_hilbert at N = 256: jump log-det: log-det rounding alone exceeds the budget"
    assert info.value.context["requested"] == 1e-300 and info.value.context["k"] == 24


def test_numerical_domain_error_exits_1(tmp_path, capsys):
    # N = 4 puts L = 2 inside the potential's support radius 4, which only
    # the overlap build can tell
    config = _write_config(tmp_path, experiment="overlap_sweep", potential=POTENTIAL, n_grid=[4])
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert "smaller than the support radius" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["out", "output_path"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "through-a-file"])
def test_unwritable_output_directory_exits_1(tmp_path, capsys, where, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = str(blocker / below) if below else str(blocker)
    if where == "out":
        code = cli.main(["run", _sweep(tmp_path), "--out", out])
    else:
        code = cli.main(["run", _sweep(tmp_path, output_path=out)])
    assert code == cli.EXIT_CONFIG_OR_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs:")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_tight_gate_exits_2(tmp_path, capsys):
    # C_{N,L} moves slightly along the grid, so a band of exactly 1 is exceeded
    config = _sweep(tmp_path, tolerances={"band_factor": 1.0})
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_PROPERTY_FAILURE
    assert "band EXCEEDED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["run"], "the following arguments are required: config"),
        ([], "the following arguments are required: command"),
        (["rerun"], "invalid choice: 'rerun'"),
        (["run", "CONFIG", "--jobs", "two"], "argument --jobs: invalid int value: 'two'"),
        (["run", "CONFIG", "--jobs", "2"], "argument --jobs: invalid choice: 2"),
        (["run", "CONFIG", "--jobs", "0"], "argument --jobs: invalid choice: 0"),
    ],
    ids=["no-config", "no-command", "unknown-command", "jobs-word", "jobs-two", "jobs-zero"],
)
def test_usage_errors_exit_1_before_any_run(tmp_path, monkeypatch, capsys, args, message):
    # argparse's own usage-error code is 2, the property-failure code here
    monkeypatch.setattr(cli, "run_experiment", lambda *_: pytest.fail("a usage error reached run_experiment"))
    config = _sweep(tmp_path)
    assert cli.main([config if arg == "CONFIG" else arg for arg in args]) == cli.EXIT_CONFIG_OR_NUMERICAL
    assert message in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli.main(["run", "--help"]) == cli.EXIT_OK
    assert "--jobs" in capsys.readouterr().out


def test_jobs_one_and_no_flag_write_the_same_csv(tmp_path):
    config, outputs = _sweep(tmp_path), []
    for flag in (["--jobs", "1"], []):
        out = tmp_path / f"out{len(outputs)}"
        assert cli.main(["run", config, *flag, "--out", str(out)]) == cli.EXIT_OK
        outputs.append((out / "overlap_sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_run_experiment_called_positionally_with_jobs(tmp_path):
    # the bench's in-process trace calls run_experiment(config, out, 1)
    config = cli.ExperimentConfig.from_dict(json.loads(Path(_sweep(tmp_path)).read_text()))
    assert cli.run_experiment(config, tmp_path / "one", 1) == cli.EXIT_OK
    assert len((tmp_path / "one" / "overlap_sweep.csv").read_text().splitlines()) == 4
    with pytest.raises(DomainError, match="only 1 is accepted, got 2"):
        cli.run_experiment(config, tmp_path / "two", 2)
    assert not (tmp_path / "two").exists()


def test_importing_the_cli_starts_no_process_machinery():
    # grid points run in the CLI's own process, so no pool module is loaded
    code = ("import sys, flux_catastrophe.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env(), check=True)
    assert result.stdout.strip() == "[]"


# runs each config given in a fresh interpreter; prints the exit codes and the modules the runs
# loaded beyond what a bare `import numpy` loads (numpy 1.x loads numpy.random and numpy.ma on import)
_IMPORT_AUDIT = """
import json, sys, tempfile
import numpy
bare = set(sys.modules)
from flux_catastrophe import cli
codes = []
for config in sys.argv[1:]:
    with tempfile.TemporaryDirectory() as out:
        codes.append(cli.main(["run", config, "--out", out]))
print(json.dumps([codes, sorted(set(sys.modules) - bare)]))
"""


def test_runs_load_no_numpy_random_polynomial_or_ma(tmp_path):
    # the sketch signs come from the stdlib generator, the Gauss-Legendre rule
    # is built in the package and breakpoints are deduplicated without np.unique
    configs = []
    for bc, potential in (("periodic", POTENTIAL), ("dirichlet", DIRICHLET_SWEEP_POTENTIAL)):
        (tmp_path / bc).mkdir()
        configs.append(_write_config(tmp_path / bc, experiment="overlap_sweep", bc=bc, rho=1.0,
                                     n_grid=[128, 181], potential=potential))
    (tmp_path / "hilbert").mkdir()
    configs.append(_write_config(tmp_path / "hilbert", experiment="dirichlet_hilbert",
                                 delta_override=math.pi / 4, n_grid=[512]))
    result = subprocess.run([sys.executable, "-c", _IMPORT_AUDIT, *configs], capture_output=True, text=True,
                            env=_cli_env(), check=True)
    codes, loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert codes == [cli.EXIT_OK] * 3
    banned = ("numpy.random", "numpy.polynomial", "numpy.ma")
    assert [m for m in loaded if m in banned or m.startswith(tuple(b + "." for b in banned))] == []


# in a fresh interpreter: runs each config but the last through cli.main, validates the config documents
# of the JSON list argv[1], runs the last config; prints the exit codes and which of numpy, dataclasses and
# _hashlib (OpenSSL) were loaded before the last run and after it
_NUMPY_AUDIT = """
import json, sys, tempfile
from flux_catastrophe import cli
*closed_forms, array_run = sys.argv[2:]
codes = []
for config in closed_forms:
    with tempfile.TemporaryDirectory() as out:
        codes.append(cli.main(["run", config, "--out", out]))
for raw in json.loads(sys.argv[1]):
    cli.ExperimentConfig.from_dict(raw)
audited = ("numpy", "dataclasses", "_hashlib")
before = [name for name in audited if name in sys.modules]
with tempfile.TemporaryDirectory() as out:
    codes.append(cli.main(["run", array_run, "--out", out]))
print(json.dumps([codes, before, [name for name in audited if name in sys.modules]]))
"""


def test_closed_form_runs_and_config_checks_load_no_numpy(tmp_path):
    # exponent_fit, anderson and energy are closed forms on math, and a config check builds its
    # potential without arrays; the first overlap_sweep run is what loads numpy.  No run loads
    # dataclasses, and the config hash takes the interpreter's own SHA-256, not OpenSSL's
    runs = {"exponent_fit": {"delta_override": 0.5, "n_grid": [64, 128, 256, 512]},
            "anderson": {"delta_override": 0.5, "n_grid": [16, 64]},
            "energy": {"potential": POTENTIAL, "n_grid": [101, 1000]},
            "overlap_sweep": {"potential": POTENTIAL, "n_grid": [16, 24]}}
    configs = []
    for experiment, fields in runs.items():
        (tmp_path / experiment).mkdir()
        configs.append(_write_config(tmp_path / experiment, experiment=experiment, **fields))
    bench = Path(__file__).resolve().parents[1] / "bench" / "configs"
    documents = [json.loads(path.read_text()) for path in sorted(bench.glob("*.json"))]
    table = {"kind": "table_samples", "x0": -2.0, "dx": 0.5, "values": [0.0, 0.3, 1.0, 0.4, -0.2, 0.1, 0.0, 0.0, 0.0]}
    documents.append({"experiment": "overlap_sweep", "potential": table, "n_grid": [16, 32]})
    assert len(documents) == 7
    result = subprocess.run([sys.executable, "-c", _NUMPY_AUDIT, json.dumps(documents), *configs],
                            capture_output=True, text=True, env=_cli_env(), check=True)
    codes, before, after = json.loads(result.stdout.strip().splitlines()[-1])
    assert codes == [cli.EXIT_OK] * 4
    assert (before, after) == ([], ["numpy"])


# one run through cli.main in a fresh interpreter; prints its exit code and the threads the process then holds
_THREAD_COUNT = """
import os, sys, tempfile
from flux_catastrophe import cli
with tempfile.TemporaryDirectory() as out:
    code = cli.main(["run", sys.argv[1], "--out", out])
print(code, len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.parametrize("caller, threads", [
    pytest.param(None, 1, id="default"),
    pytest.param("2", 2, id="caller-2", marks=pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core")),
])
def test_cli_runs_blas_on_one_thread_unless_the_caller_says_otherwise(tmp_path, caller, threads):
    config = _write_config(tmp_path, experiment="overlap_sweep", rho=1.0, n_grid=[128], potential=POTENTIAL)
    result = subprocess.run([sys.executable, "-c", _THREAD_COUNT, config], capture_output=True, text=True,
                            env=_cli_env(caller), check=True)
    assert result.stdout.split()[-2:] == [str(cli.EXIT_OK), str(threads)]


@pytest.mark.parametrize("name", ["sweep_periodic", "sweep_dirichlet"])
def test_bench_sweep_csv_is_the_one_thread_csv(tmp_path, name):
    # the default run's bytes are those of an explicit OPENBLAS_NUM_THREADS=1,
    # whatever the core count (two threads move the last digits of some rows)
    config = Path(__file__).resolve().parents[1] / "bench" / "configs" / f"{name}.json"
    csvs = []
    for caller in (None, "1"):
        out = tmp_path / str(caller)
        subprocess.run([sys.executable, "-m", "flux_catastrophe", "run", str(config), "--out", str(out)],
                       capture_output=True, env=_cli_env(caller), check=True)
        csvs.append((out / "overlap_sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


# one tiny config per experiment: the CSV header and the phrase of a passing gate
EXPERIMENT_CASES = {
    "overlap_sweep": (
        {"potential": POTENTIAL, "n_grid": [16, 24, 32]},
        "config_hash,N,L,rho,delta_L,n_L,log_D_sq,log_Dtilde_sq,C_ratio,trace_norm_delta,bound,bound_holds",
        "delta bound holds, band ok",
    ),
    "lemma_check": (
        {"potential": POTENTIAL, "n_grid": [16, 24, 32]},
        "config_hash,N,L,rho,delta_L,n_L,log_D_sq,log_Dtilde_sq,C_ratio,trace_norm_delta,bound,bound_holds",
        "delta bound holds, band ok",
    ),
    "exponent_fit": (
        {"delta_override": 0.5, "n_grid": [64, 128, 256, 512]},
        "config_hash,N,log_det_sq",
        "budget 0.05",
    ),
    "anderson": (
        {"delta_override": 0.5, "n_grid": [16, 32, 64]},
        "config_hash,N,delta,anderson_integral,log_Dtilde_sq,upper_bound_holds",
        "det <= exp(-I) holds",
    ),
    "energy": (
        {"potential": POTENTIAL, "n_grid": [101, 1001]},
        "config_hash,N,L,rho,delta,parity,energy_difference,direct_difference,N_times_diff,limit,rel_err",
        "worst closed-vs-direct rel err",
    ),
    "dirichlet_hilbert": (
        {"delta_override": 0.5, "n_grid": [16, 32, 64, 128]},
        "config_hash,M,N,delta,logdet_sq,trace_mm,trace_pp,mixed_bound,opnorm_mm,hilbert_section_norm",
        "||K--|| <= pi^2/4 holds",
    ),
}
CSV_NAMES = {"exponent_fit": "exponent_fit_series"}


@pytest.mark.parametrize("experiment", list(EXPERIMENT_CASES))
def test_each_experiment_runs_and_passes_its_gate(tmp_path, capsys, experiment):
    fields, header, phrase = EXPERIMENT_CASES[experiment]
    config = _write_config(tmp_path, experiment=experiment, **fields)
    out = tmp_path / "out"
    assert cli.main(["run", config, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / f"{CSV_NAMES.get(experiment, experiment)}.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + len(fields["n_grid"])
    stdout = capsys.readouterr().out
    assert stdout.startswith(f"{experiment}: ") and phrase in stdout
    if experiment == "exponent_fit":
        summary = (out / "exponent_fit.csv").read_text().splitlines()
        assert summary[0] == "config_hash,delta,target_exponent,fitted_slope,residual,n_points"
        assert len(summary) == 2


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"experiment": "dirichlet_hilbert", "delta_override": 0.5, "n_grid": [16, 33]},
         "n_grid: dirichlet_hilbert requires even N values (N = 2M)"),
        ({"experiment": "overlap_sweep", "n_grid": [16, 32]}, "potential: overlap_sweep requires a potential"),
        ({"experiment": "lemma_check", "n_grid": [16, 32]}, "potential: lemma_check requires a potential"),
        ({"experiment": "anderson", "n_grid": [16, 32]},
         "delta_override: anderson needs either a potential or delta_override"),
        ({"experiment": "anderson", "delta_override": 0.5, "tolerances": {"slope_abs_err": 0.1}},
         "tolerances: unknown key 'slope_abs_err' for anderson (accepted: none)"),
        ({"experiment": "exponent_fit", "delta_override": 0.5, "tolerances": {"slope_abs_eror": 1e-9}},
         "tolerances: unknown key 'slope_abs_eror' for exponent_fit (accepted: slope_abs_err, constant_abs_err)"),
        ({"experiment": "exponent_fit", "delta_override": 0.5, "tolerances": {"slope_abs_err": "abc"}},
         "tolerances: slope_abs_err must be a non-negative finite number, got 'abc'"),
        ({"experiment": "energy", "potential": POTENTIAL, "tolerances": {"direct_rel_err": True}},
         "tolerances: direct_rel_err must be a non-negative finite number, got True"),
        ({"experiment": "overlap_sweep", "potential": POTENTIAL, "tolerances": {"band_factor": math.inf}},
         "tolerances: band_factor must be a non-negative finite number, got inf"),
        ({"experiment": "exponent_fit", "delta_override": 0.5, "tolerances": {"slope_abs_err": -1}},
         "tolerances: slope_abs_err must be a non-negative finite number, got -1"),
        ({"experiment": "overlap_sweep", "potential": POTENTIAL, "tolerances": {"band_factor": 0.5}},
         "tolerances: band_factor must be >= 1, since max C / min C >= 1, got 0.5"),
        ({"experiment": "anderson", "delta_override": 0.5, "n_grid": [True, 2]},
         "n_grid: must be a nonempty strictly increasing list of integers"),
        ({"experiment": "exponent_fit", "delta_override": 0.5, "n_grid": [16, 32, 64]},
         "n_grid: exponent_fit needs at least 4 points, got [16, 32, 64]"),
        ({"experiment": "anderson", "delta_override": math.nextafter(math.pi / 2, 4.0), "n_grid": [4]},
         f"delta_override: must be a number with |delta| <= pi/2, got {math.nextafter(math.pi / 2, 4.0)!r}"),
        ({"experiment": "overlap_sweep", "potential": POTENTIAL, "delta_override": 0.1, "n_grid": [16, 32]},
         "delta_override: overlap_sweep takes delta from its potential, not delta_override"),
        ({"experiment": "lemma_check", "potential": POTENTIAL, "delta_override": 0.1, "n_grid": [16, 32]},
         "delta_override: lemma_check takes delta from its potential, not delta_override"),
        ({"experiment": "energy", "potential": POTENTIAL, "delta_override": 0.1, "n_grid": [101]},
         "delta_override: energy takes delta from its potential, not delta_override"),
        ({"experiment": "overlap_sweep", "potential": {**POTENTIAL, "width": "0.5"}, "n_grid": [16, 32]},
         "potential: width must be a finite number, got '0.5'"),
        ({"experiment": "overlap_sweep", "potential": {**POTENTIAL, "width": True}, "n_grid": [16, 32]},
         "potential: width must be a finite number, got True"),
        ({"experiment": "overlap_sweep", "potential": {**POTENTIAL, "total_flux": math.nan}, "n_grid": [16, 32]},
         "potential: total_flux must be a finite number, got nan"),
        ({"experiment": "overlap_sweep", "potential": {"kind": "zero", "support_radius": -math.inf},
          "n_grid": [16, 32]},
         "potential: support_radius must be a finite number, got -inf"),
        ({"experiment": "overlap_sweep", "n_grid": [16, 32],
          "potential": {"kind": "piecewise_linear", "knots": [[-1, 0], [0, "2"], [1, 0]]}},
         "potential: knots must be a list of [x, v] pairs of finite numbers, got [[-1, 0], [0, '2'], [1, 0]]"),
        ({"experiment": "overlap_sweep", "n_grid": [16, 32],
          "potential": {"kind": "table_samples", "x0": -1, "dx": 0.5, "values": [0, math.inf, 0]}},
         "potential: values must be a list of finite numbers, got [0, inf, 0]"),
        ({"experiment": "overlap_sweep", "n_grid": [16, 32],
          "potential": {"kind": "table_samples", "x0": -1, "dx": False, "values": [0, 1, 0]}},
         "potential: dx must be a finite number, got False"),
        ({"experiment": "overlap_sweep", "potential": {**POTENTIAL, "support_radius": 0}, "n_grid": [16, 32]},
         "potential: total_flux: the unit bump integrates to 0.0 over its support"),
        ({"experiment": "overlap_sweep", "potential": {**POTENTIAL, "center": 100}, "n_grid": [16, 32]},
         "potential: total_flux: the unit bump integrates to 0.0 over its support"),
    ],
    ids=["odd-N", "sweep-no-potential", "lemma-no-potential", "no-delta", "no-tolerance-keys",
         "misspelled-key", "non-numeric", "bool", "infinite", "negative", "band-factor-below-one",
         "bool-in-grid", "short-fit-grid",
         "delta-above-pi-over-2", "sweep-delta-override", "lemma-delta-override", "energy-delta-override",
         "potential-string", "potential-bool", "potential-nan", "potential-infinite", "potential-knot",
         "potential-table-value", "potential-table-bool", "potential-bump-without-support",
         "potential-bump-outside-support"],
)
def test_experiment_preconditions_are_config_errors(tmp_path, capsys, fields, message):
    config = _write_config(tmp_path, **fields)
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_OR_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config:")
    assert message in err
    assert not (tmp_path / "out").exists()


def _exponent_fit(tmp_path, capsys, n_grid, delta=math.pi / 4, **tolerances):
    """(exit code, stdout, fitted slope) of an exponent_fit run, by default at delta = pi/4."""
    config = _write_config(tmp_path, experiment="exponent_fit", delta_override=delta, n_grid=n_grid,
                           tolerances=tolerances)
    out = tmp_path / "out"
    code = cli.main(["run", config, "--out", str(out)])
    header, row = [line.split(",") for line in (out / "exponent_fit.csv").read_text().splitlines()]
    return code, capsys.readouterr().out, float(dict(zip(header, row))["fitted_slope"])


def test_exponent_fit_out_to_ten_million(tmp_path, capsys):
    # the O(N) Cauchy sum reaches N = 10^7, where the fit is the theorem's to 1e-9
    grid = [100_000, 316_228, 1_000_000, 3_162_278, 10_000_000]
    code, stdout, slope = _exponent_fit(tmp_path, capsys, grid, slope_abs_err=1e-9, constant_abs_err=1e-9)
    assert code == cli.EXIT_OK, stdout
    assert abs(slope + 0.125) <= 1e-9
    assert "2 log G(1+c)G(1-c) = -0.202024360" in stdout


def test_exponent_fit_gate_checks_the_constant(tmp_path, capsys):
    # on N = 64 .. 181 the intercept is 1e-5 from the constant while the slope passes
    code, stdout, slope = _exponent_fit(tmp_path, capsys, [64, 91, 128, 181], constant_abs_err=1e-12)
    assert code == cli.EXIT_PROPERTY_FAILURE
    assert abs(slope + 0.125) <= 0.05 and "budget 1e-12" in stdout


@pytest.mark.parametrize("n_grid", [[1, 2, 3, 4], [1, 10, 11, 12], [16, 23, 32, 45]])
def test_exponent_fit_default_budgets_pass_on_small_grids(tmp_path, capsys, n_grid):
    # at |delta| = pi/2 the finite-N intercept error is largest: 2.4e-2 on
    # N = 1..4 and 2.6e-2 on N = 1, 10, 11, 12, inside the default 0.05
    code, stdout, _ = _exponent_fit(tmp_path, capsys, n_grid, delta=math.pi / 2)
    assert code == cli.EXIT_OK, stdout


# the canonical config dict behind every bench CSV's config_hash column
BENCH_CONFIG_HASHES = {
    "closed_forms_anderson": "38b1848a573b",
    "closed_forms_dirichlet_hilbert": "ad896e0f1f07",
    "closed_forms_energy": "8bdce56c0497",
    "closed_forms_exponent_fit": "4f4f3f7c4341",
    "sweep_dirichlet": "83a3f8055746",
    "sweep_periodic": "17d251830075",
}


@pytest.mark.parametrize("name", list(BENCH_CONFIG_HASHES))
def test_bench_config_hashes_are_pinned(name):
    path = Path(__file__).resolve().parents[1] / "bench" / "configs" / f"{name}.json"
    config = cli.ExperimentConfig.from_dict(json.loads(path.read_text()))
    assert config.config_hash == BENCH_CONFIG_HASHES[name]


def test_config_hash_of_tolerances_and_bc_is_pinned():
    # no bench config has tolerances: this pins their part of the canonical dict, the raw values in
    # sorted key order (an integer stays an integer), and a non-default bc
    raw = {"experiment": "exponent_fit", "bc": "dirichlet", "delta_override": 0.5, "n_grid": [64, 128, 256, 512],
           "tolerances": {"slope_abs_err": 0.02, "constant_abs_err": 1}}
    assert cli.ExperimentConfig.from_dict(raw).config_hash == "26921dcba782"


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_OK
    assert "selftest: all checks passed" in capsys.readouterr().out


def test_selftest_lemma_band_fails_on_a_degenerate_point(monkeypatch, capsys):
    # C = inf stands for a vanishing flux determinant at one grid point
    original = overlap.evaluate_point

    def degenerate_at_64(a, bc, N, L):
        point = original(a, bc, N, L)
        return point._replace(c_ratio=math.inf) if N == 64 else point

    monkeypatch.setattr(overlap, "evaluate_point", degenerate_at_64)
    assert cli.main(["selftest"]) == cli.EXIT_PROPERTY_FAILURE
    out = capsys.readouterr().out
    assert "selftest lemma_check: FAIL" in out and "degenerate C at N = [64]" in out


# -- degenerate corners: a flux of exactly (n + 1/2) pi gives delta_L = +pi/2,
# one of exactly n pi gives delta_L = 0; triangles of height h have flux h / 2


def _triangle(height: float) -> dict:
    return {"kind": "piecewise_linear", "knots": [[-1, 0], [0, height], [1, 0]]}


def _sweep_columns(
    tmp_path, potential: dict, n_grid: list[int], bc: str = "periodic", exit_code: int = cli.EXIT_OK
) -> dict[str, list[float]]:
    config = _write_config(tmp_path, experiment="overlap_sweep", potential=potential, bc=bc, rho=1.0, n_grid=n_grid)
    out = tmp_path / "out"
    assert cli.main(["run", config, "--out", str(out)]) == exit_code
    header, *rows = [line.split(",") for line in (out / "overlap_sweep.csv").read_text().splitlines()]
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header) if name != "config_hash"}


def test_sweep_at_delta_pi_over_2_matches_cauchy_determinant(tmp_path):
    # odd and even N: the jump matrix sin(delta) / (delta - pi (j-k)) is Cauchy at delta = pi/2
    cols = _sweep_columns(tmp_path, _triangle(math.pi), [5, 6, 7, 8])
    assert cols["delta_L"] == [math.pi / 2] * 4 and cols["n_L"] == [0] * 4
    for n, value in zip(cols["N"], cols["log_Dtilde_sq"]):
        assert abs(value - cauchy_fh_logdet_sq(math.pi / 2, int(n))) <= 1e-10, n


def test_dirichlet_sweep_at_delta_pi_over_2(tmp_path, capsys):
    # cos(Phi) = 0 empties the jump matrix's diagonal, and only opposite parities
    # couple: for odd N the two parity classes differ in size, so D~ = 0 exactly
    # D does not vanish: the Sylvester step borders the jump matrix's null vector, so log|D|^2 stays
    # finite and matches LU of the assembled overlap matrix at every N.  The band gate reports the odd N,
    # where C = inf by definition, apart from degenerate points, and the sweep passes
    cols = _sweep_columns(tmp_path, _triangle(math.pi), [4, 5, 6, 7, 8, 9, 64, 65], "dirichlet")
    assert cols["delta_L"] == [math.pi / 2] * 8
    for n, log_d, log_dtilde, c_ratio in zip(cols["N"], cols["log_D_sq"], cols["log_Dtilde_sq"], cols["C_ratio"]):
        prof = flux_profile(potential_from_dict(_triangle(math.pi)), n / 2.0)
        assert abs(log_d - 2.0 * log_det(overlap.overlap_matrix(prof, BoundaryCondition.DIRICHLET, int(n)))) <= 1e-10, n
        if n % 2:
            assert (log_dtilde, c_ratio) == (-math.inf, math.inf), n
        else:
            dense = 2.0 * log_det(overlap.flux_matrix(math.pi / 2, BoundaryCondition.DIRICHLET, int(n)))
            assert abs(log_dtilde - dense) <= 1e-10, n
            assert math.isfinite(c_ratio) and c_ratio > 0, n
    out = capsys.readouterr().out
    assert "D~ = 0 at N = [5, 7, 9, 65]" in out and "degenerate" not in out


def test_sweep_just_above_flux_pi_over_2_exits_ok(tmp_path):
    # delta_L = 1.6 - pi: the overlap matrix is near singular, sigma_min about 5e-3
    cols = _sweep_columns(tmp_path, dict(POTENTIAL, total_flux=1.6), [128, 512, 2048])
    assert cols["n_L"] == [1] * 3 and all(math.isfinite(v) for v in cols["log_D_sq"])


def test_sweep_at_delta_zero_with_even_n(tmp_path):
    # flux pi: n_L = 1 and delta_L = 0, so the jump matrix is -I and C_{N,L} = |D|^2
    cols = _sweep_columns(tmp_path, _triangle(2.0 * math.pi), [4, 6, 8])
    assert cols["delta_L"] == [0.0] * 3 and cols["n_L"] == [1] * 3
    assert cols["log_Dtilde_sq"] == [0.0] * 3
    assert cols["C_ratio"] == [math.exp(v) for v in cols["log_D_sq"]]


def test_delta_override_of_pi_over_2_is_accepted(tmp_path):
    config = _write_config(tmp_path, experiment="anderson", delta_override=math.pi / 2, n_grid=[4, 5, 16])
    out = tmp_path / "out"
    assert cli.main(["run", config, "--out", str(out)]) == cli.EXIT_OK
    header, *rows = [line.split(",") for line in (out / "anderson.csv").read_text().splitlines()]
    for row in rows:
        values = dict(zip(header, row))
        assert float(values["delta"]) == math.pi / 2
        assert abs(float(values["log_Dtilde_sq"]) - cauchy_fh_logdet_sq(math.pi / 2, int(values["N"]))) <= 1e-10


# -- energy honours bc

# the energy CSV rows of this config before bc was read, unchanged since
PERIODIC_ENERGY_ROWS = [
    "216ae66e2377,101,50.5,1,-1.1415926535897933,odd,0.051613219276443002,0.051613219276443016,"
    "5.212935146920743,5.2129351469207439,1.7037971788787129e-16",
    "216ae66e2377,1000,500,1,-1.1415926535897933,even,0.019558611522559832,0.019558611522559843,"
    "19.558611522559833,19.558611522559833,0",
]


def test_energy_periodic_rows_are_unchanged(tmp_path):
    config = _write_config(tmp_path, experiment="energy", potential=POTENTIAL, n_grid=[101, 1000])
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert (tmp_path / "out" / "energy.csv").read_text().splitlines()[1:] == PERIODIC_ENERGY_ROWS


def test_energy_dirichlet_writes_zeros(tmp_path, capsys):
    config = _write_config(tmp_path, experiment="energy", bc="dirichlet", potential=POTENTIAL, n_grid=[101, 1000])
    assert cli.main(["run", config, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    header, *rows = [line.split(",") for line in (tmp_path / "out" / "energy.csv").read_text().splitlines()]
    for row in rows:
        values = dict(zip(header, row))
        for column in ("energy_difference", "direct_difference", "N_times_diff", "limit", "rel_err"):
            assert values[column] == "0", (column, row)
    assert "N*dE = 0 vs limit 0" in capsys.readouterr().out
