"""Self-tests of the benchmark harness: ``python -m pytest bench``."""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import types
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_body(with_leaf):
        if with_leaf:
            leaf()

    inner = tracer.wrap("inner", inner_body)
    outer = tracer.wrap("outer", lambda: (inner(True), inner(False)))
    outer()
    # outer [0, 10] holds inner [1, 5] (which holds leaf [2, 4]) and inner [6, 9]
    assert tracer.self_times() == {"outer": 3.0, "inner": 5.0, "leaf": 2.0}
    assert tracer.calls() == {"inner": 2, "outer": 1, "leaf": 1}
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_install_rebinds_every_holder_and_uninstall_restores():
    def f():
        return 1

    a, b = types.ModuleType("pkg.a"), types.ModuleType("pkg.b")
    a.f, b.g = f, f
    tracer = spans.Tracer()
    patched = spans.install(tracer, [a, b], [("a.f", f, None, None)])
    assert a.f() == 1 and b.g() == 1
    assert tracer.calls() == {"a.f": 2}
    spans.uninstall(patched)
    assert a.f is f and b.g is f


def _fit_config(path: Path, slope_budget: float) -> None:
    path.write_text(json.dumps({
        "experiment": "exponent_fit",
        "potential": None,
        "delta_override": math.pi / 4,
        "n_grid": [16, 23, 32, 45],
        "tolerances": {"slope_abs_err": slope_budget},
    }))


def test_exit_code_2_counts_as_failed_run(tmp_path):
    _fit_config(tmp_path / "ok.json", 0.05)
    _fit_config(tmp_path / "tight.json", 1e-12)  # a 4-point fit cannot meet this
    result = run.run_pass(["ok", "tight"], tmp_path / "out", configs_dir=tmp_path, check=lambda name, out: [])
    assert [r.exit_code for r in result.runs] == [0, 2]
    assert run.fail_rate(result.runs) == 0.5
    line = run.result_line({"pass_rate": 1 - run.fail_rate(result.runs)}, {"pass_rate": "ratio"}, [result])
    assert (line["attempted"], line["failed"], line["correct"]) == (2, 1, True)


def _perturb(path: Path, column: str, row: int, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = change(rows[row + 1][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize(
    "config, csv_name, column, change",
    [
        ("closed_forms_anderson", "anderson.csv", "anderson_integral", lambda v: repr(float(v) * (1 + 1e-9))),
        ("closed_forms_anderson", "anderson.csv", "upper_bound_holds", lambda v: "0"),
        ("sweep_periodic", "overlap_sweep.csv", "log_Dtilde_sq", lambda v: repr(float(v) + 1e-7)),
        ("closed_forms_energy", "energy.csv", "energy_difference", lambda v: repr(float(v) * (1 + 1e-9))),
    ],
)
def test_perturbed_csv_value_is_caught(tmp_path, config, csv_name, column, change):
    shutil.copytree(checks.REFERENCE / config, tmp_path, dirs_exist_ok=True)
    assert checks.check_outputs(config, tmp_path) == []
    _perturb(tmp_path / csv_name, column, 0, change)
    misses = checks.check_outputs(config, tmp_path)
    assert misses and all(column in m for m in misses)


def test_missing_csv_is_caught(tmp_path):
    assert checks.check_outputs("closed_forms_exponent_fit", tmp_path)


def test_cauchy_oracle_matches_dense_determinant():
    delta, n = 0.7, 6
    t = mp.matrix(n, n)
    for j in range(n):
        for k in range(n):
            t[j, k] = mp.sin(delta) / (delta - mp.pi * (j - k))
    assert checks.cauchy_log_det_sq(delta, n) == pytest.approx(float(2 * mp.log(abs(mp.det(t)))), abs=1e-13)


def test_energy_oracle_matches_brute_force_sum():
    phi = mp.mpf(2)
    for n in (7, 8):
        L = mp.mpf(n) / 2
        m = n // 2
        free = range(-m, m + 1) if n % 2 else range(-m, m)
        n_L, _ = checks.flux_angle(phi)
        brute = sum(((j - n_L) * mp.pi + phi) ** 2 - (j * mp.pi) ** 2 for j in free) / L**2
        assert float(checks.energy_difference_exact(phi, n, L)) == pytest.approx(float(brute), rel=1e-15)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
