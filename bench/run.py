"""Benchmark of the flux_catastrophe CLI on fixed configs.

    python3 bench/run.py --workload sweep_periodic --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --report [--seconds 40]

``--trace 0`` times whole CLI processes (``python -m flux_catastrophe run
<config> --jobs 1``) and prints the end-to-end metrics; ``--trace 1`` runs
the same configs in-process with a span recorder around each layer and
prints the per-layer metrics.  Every pass checks its CSVs (see checks.py).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run environment.
``--report`` runs both modes on every workload and prints tables.

The workloads are fixed grids with no randomness: ``--seed`` is accepted
and recorded, and changes nothing.  Files are written only under
``.bench_out/`` in the checkout and removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS: dict[str, tuple[str, ...]] = {
    "sweep_periodic": ("sweep_periodic",),
    "sweep_dirichlet": ("sweep_dirichlet",),
    "closed_forms": (
        "closed_forms_exponent_fit",
        "closed_forms_anderson",
        "closed_forms_dirichlet_hilbert",
        "closed_forms_energy",
    ),
}

# --jobs is pinned: the CLI default starts one worker per core while each
# worker's OpenBLAS also starts one thread per core, and that oversubscribed
# run is too unsteady to time (README.md has the measurement).
JOBS = 1
SETUP_PER_PASS = 3
# The CLI's default budget for direct-sum vs closed-form energy (cli.py).
ENERGY_DIRECT_REL_ERR = 1e-10

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

PER_LAYER = {
    "overlap.overlap_matrix.self_s": "s",
    "overlap.overlap_matrix.calls_per_point": "calls/point",
    "overlap.flux_matrix.self_s": "s",
    "quadrature.builds_per_matrix": "builds/matrix",
    "quadrature.cis_integral.self_s": "s",
    "quadrature.adaptive_gauss_legendre.self_s": "s",
    "matrixcore.trace_norm.self_s": "s",
    "matrixcore.trace_norm.gflop": "GFLOP",
    "matrixcore.log_det.self_s": "s",
    "matrixcore.log_det.calls": "count",
    "matrixcore.log_det.gflop": "GFLOP",
    "matrixcore.log_det.gflops": "GFLOP/s",
    "matrixcore.fh_matrix.self_s": "s",
    "matrixcore.operator_norm.self_s": "s",
    "hilbert.k_matrix.self_s": "s",
    "hilbert.k_matrix.calls": "count",
    "hilbert.hilbert_section_norm.self_s": "s",
    "asymptotics.anderson_integral.self_s": "s",
    "asymptotics.fit_decay_exponent.self_s": "s",
    "spectrum.energy_difference_direct.self_s": "s",
    "spectrum.energy_difference_direct.failures": "count",
    "potential.flux_profile.calls_per_point": "calls/point",
    "potential.moment_integrals.self_s": "s",
    "cli.write_rows.self_s": "s",
    "cli.run_experiment.self_s": "s",
    "fail_rate": "ratio",
    "trace.overhead_s": "s",
}

SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
from flux_catastrophe.cli import ExperimentConfig
for path in sys.argv[1:]:
    with open(path) as fh:
        ExperimentConfig.from_dict(json.load(fh))
print(time.perf_counter() - t0)
"""

ENV_SNIPPET = """
import ctypes, glob, json, os, sys, numpy
info = {"python": sys.version.split()[0], "numpy": numpy.__version__}
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
info["blas"] = f"{blas.get('name')} {blas.get('version')}"
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(handle, sym):
            getattr(handle, sym).restype = ctypes.c_int
            threads = {"count": getattr(handle, sym)(), "source": sym}
if threads is None:
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    threads = {"count": None, "source": "environment", **{n: os.environ.get(n) for n in names}}
info["blas_threads"] = threads
print(json.dumps(info))
"""


@dataclass
class CliRun:
    config: str
    exit_code: int
    cpu_s: float
    rss_mb: float
    misses: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.misses)


@dataclass
class Pass:
    wall_s: float
    runs: list[CliRun]


def fail_rate(runs: Sequence[CliRun]) -> float:
    """Failed CLI runs (nonzero exit or a missed check) over runs attempted."""
    return sum(r.failed for r in runs) / len(runs)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(config_path: Path, out_dir: Path) -> tuple[int, float, float]:
    """Run one CLI process; (exit code, user+sys seconds, max RSS in MB)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-m", "flux_catastrophe", "run", str(config_path), "--jobs", str(JOBS), "--out", str(out_dir)]
    with open(out_dir / "stderr.log", "wb") as err:
        proc = subprocess.Popen(cmd, env=cli_env(), stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 2):
        tail = (out_dir / "stderr.log").read_text(errors="replace")[-400:]
        print(f"{config_path.name}: exit {proc.returncode}: {tail}", file=sys.stderr)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_pass(
    names: Sequence[str],
    out_root: Path,
    configs_dir: Path = checks.CONFIGS,
    check: Callable[[str, Path], list[str]] = checks.check_outputs,
) -> Pass:
    """One timed pass over a workload's CLI runs; CSVs are checked after the clock stops."""
    shutil.rmtree(out_root, ignore_errors=True)
    t0 = time.perf_counter()
    raw = [(name, *run_cli(configs_dir / f"{name}.json", out_root / name)) for name in names]
    wall = time.perf_counter() - t0
    return Pass(wall, [CliRun(name, code, cpu, rss, check(name, out_root / name)) for name, code, cpu, rss in raw])


def measure_setup(names: Sequence[str], repeats: int) -> list[float]:
    """Import + config validation seconds of ``repeats`` fresh interpreters."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, *(str(checks.CONFIGS / f"{n}.json") for n in names)]
    times = []
    for _ in range(repeats):
        out = subprocess.run(cmd, env=cli_env(), capture_output=True, text=True, check=True, cwd=ROOT, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(names: Sequence[str], seconds: float, out_root: Path) -> tuple[dict, list[Pass], list[float]]:
    """Passes, each followed by set-up samples, until another would overrun ``seconds``.

    Set-up is sampled right after each pass rather than in one burst at the
    start, so its samples see the machine in the same state the passes do.
    """
    start = time.perf_counter()
    measure_setup(names, 1)  # untimed: writes the bytecode caches
    passes: list[Pass] = []
    setup: list[float] = []
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(names, out_root))
        setup += measure_setup(names, SETUP_PER_PASS)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    runs = [r for p in passes for r in p.runs]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p.runs) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p.runs) for p in passes),
        "pass_rate": 1.0 - fail_rate(runs),
    }
    return metrics, passes, setup


# ---------------------------------------------------------------------------
# traced in-process run
# ---------------------------------------------------------------------------


def _package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flux_catastrophe.asymptotics as asymptotics
    import flux_catastrophe.cli as cli
    import flux_catastrophe.hilbert as hilbert
    import flux_catastrophe.matrixcore as matrixcore
    import flux_catastrophe.overlap as overlap
    import flux_catastrophe.potential as potential
    import flux_catastrophe.quadrature as quadrature
    import flux_catastrophe.spectrum as spectrum

    return {m.__name__.rsplit(".", 1)[-1]: m for m in (asymptotics, cli, hilbert, matrixcore, overlap, potential, quadrature, spectrum)}


def _flop_counter(key: str, real: float, complex_: float) -> Callable:
    """Observer adding the computed flop count of a dense n x n factorization."""

    def observe(tracer, args, kwargs, result):
        import numpy as np

        m = args[0]
        a = np.asarray(getattr(m, "entries", m))
        tracer.counters[key] += (complex_ if np.iscomplexobj(a) else real) * a.shape[0] ** 3 / 1e9

    return observe


def _trace_targets(mods: dict) -> list[tuple]:
    energy_closed_form = mods["spectrum"].energy_difference

    def energy_observe(tracer, args, kwargs, result):
        exact = energy_closed_form(*args, **kwargs)
        if abs(result - exact) > ENERGY_DIRECT_REL_ERR * abs(exact):
            tracer.counters["spectrum.energy_difference_direct.failures"] += 1

    def layer(module: str, fn: str, observe=None, sites=None):
        return (f"{module}.{fn}", getattr(mods[module], fn), observe, sites)

    return [
        layer("cli", "run_experiment"),
        layer("cli", "write_rows"),
        layer("overlap", "overlap_matrix"),
        layer("overlap", "flux_matrix"),
        # only the builds the overlap layer asks for count towards builds_per_matrix
        layer("quadrature", "gauss_legendre_rule", sites=("overlap",)),
        layer("quadrature", "cis_integral"),
        layer("quadrature", "adaptive_gauss_legendre"),
        # LU of an n x n matrix: 2n^3/3 real flops, 8n^3/3 for complex entries
        layer("matrixcore", "log_det", _flop_counter("matrixcore.log_det.gflop", 2 / 3, 8 / 3)),
        # bidiagonalization for singular values only: 8n^3/3 real, 32n^3/3 complex
        layer("matrixcore", "trace_norm", _flop_counter("matrixcore.trace_norm.gflop", 8 / 3, 32 / 3)),
        layer("matrixcore", "fh_matrix"),
        layer("matrixcore", "operator_norm"),
        layer("hilbert", "k_matrix"),
        layer("hilbert", "hilbert_section_norm"),
        layer("asymptotics", "anderson_integral"),
        layer("asymptotics", "fit_decay_exponent"),
        layer("spectrum", "energy_difference_direct", energy_observe),
        layer("potential", "flux_profile"),
        layer("potential", "moment_integrals"),
    ]


def _in_process_pass(mods: dict, names: Sequence[str], out_root: Path, tracer: spans.Tracer | None) -> Pass:
    cli = mods["cli"]
    errors = (cli.DomainError, cli.NumericalError)
    configs = [cli.ExperimentConfig.from_dict(json.loads((checks.CONFIGS / f"{n}.json").read_text())) for n in names]
    shutil.rmtree(out_root, ignore_errors=True)
    patched = spans.install(tracer, mods.values(), _trace_targets(mods)) if tracer is not None else []
    codes = []
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for name, config in zip(names, configs):
                try:
                    codes.append(cli.run_experiment(config, out_root / name, JOBS))
                except errors as exc:
                    print(f"{name}: {exc}", file=sys.stderr)
                    codes.append(1)
        wall = time.perf_counter() - t0
    finally:
        spans.uninstall(patched)
    return Pass(wall, [CliRun(n, c, 0.0, 0.0, checks.check_outputs(n, out_root / n)) for n, c in zip(names, codes)])


def per_layer(names: Sequence[str], out_root: Path) -> tuple[dict, list[Pass]]:
    """Untraced, traced, untraced in-process passes; metrics of the traced one.

    The overhead compares the traced pass with the mean of the untraced
    passes on either side, which cancels a steady drift of the machine's
    speed over the run.
    """
    mods = _package()
    before = _in_process_pass(mods, names, out_root, None)
    tracer = spans.Tracer()
    traced = _in_process_pass(mods, names, out_root, tracer)
    after = _in_process_pass(mods, names, out_root, None)
    overhead = traced.wall_s - 0.5 * (before.wall_s + after.wall_s)
    return layer_metrics(tracer, names, traced, overhead), [before, traced, after]


def layer_metrics(tracer: spans.Tracer, names: Sequence[str], traced: Pass, overhead_s: float) -> dict:
    self_s = tracer.self_times()
    calls = tracer.calls()
    points = sum(len(json.loads((checks.CONFIGS / f"{n}.json").read_text())["n_grid"]) for n in names)
    matrices = calls["overlap.overlap_matrix"]
    metrics = {name: self_s.get(name[: -len(".self_s")], 0.0) for name in PER_LAYER if name.endswith(".self_s")}
    metrics.update(
        {
            "overlap.overlap_matrix.calls_per_point": matrices / points,
            "quadrature.builds_per_matrix": calls["quadrature.gauss_legendre_rule"] / matrices if matrices else 0.0,
            "matrixcore.trace_norm.gflop": tracer.counters["matrixcore.trace_norm.gflop"],
            "matrixcore.log_det.calls": calls["matrixcore.log_det"],
            "matrixcore.log_det.gflop": tracer.counters["matrixcore.log_det.gflop"],
            "hilbert.k_matrix.calls": calls["hilbert.k_matrix"],
            "spectrum.energy_difference_direct.failures": tracer.counters["spectrum.energy_difference_direct.failures"],
            "potential.flux_profile.calls_per_point": calls["potential.flux_profile"] / points,
            "fail_rate": fail_rate(traced.runs),
            "trace.overhead_s": overhead_s,
        }
    )
    log_det_s = metrics["matrixcore.log_det.self_s"]
    metrics["matrixcore.log_det.gflops"] = metrics["matrixcore.log_det.gflop"] / log_det_s if log_det_s else 0.0
    return {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# environment, output, entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    info = json.loads(subprocess.run(
        [sys.executable, "-c", ENV_SNIPPET], env=cli_env(), capture_output=True, text=True, check=True, timeout=120
    ).stdout)
    cpu_model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **info,
        "jobs": JOBS,
        "git_commit": commit,
    }


def result_line(metrics: dict, units: dict, passes: Sequence[Pass]) -> dict:
    runs = [r for p in passes for r in p.runs]
    return {
        "correct": not any(r.misses for r in runs),
        "attempted": len(runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_workload(workload: str, seconds: float, trace: bool, seed: int) -> tuple[dict, dict]:
    """(run record, result line) of one run."""
    names = WORKLOADS[workload]
    out_root = OUT / f"{workload}-{os.getpid()}"
    try:
        if trace:
            metrics, passes = per_layer(names, out_root)
            samples = {"pass_wall_s": dict(zip(("untraced", "traced", "untraced_after"), (p.wall_s for p in passes)))}
        else:
            metrics, passes, setup = end_to_end(names, seconds, out_root)
            samples = {"passes": len(passes), "setup_samples": len(setup), "pass_wall_s": [p.wall_s for p in passes]}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    record = {
        "workload": workload,
        "seed": seed,
        "seed_used": False,
        "trace": trace,
        "samples": samples,
        "exit_codes": {r.config: r.exit_code for r in passes[-1].runs},
        "misses": [m for p in passes for r in p.runs for m in r.misses][:20],
        "environment": environment(),
    }
    return record, result_line(metrics, PER_LAYER if trace else END_TO_END, passes)


def report(seconds: float) -> None:
    """Every metric by name and unit, end-to-end and traced, for every workload."""
    for workload in WORKLOADS:
        for trace in (False, True):
            record, result = run_workload(workload, seconds, trace, 0)
            print(f"\n{workload} ({'per-layer, traced' if trace else 'end-to-end'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} samples={json.dumps(record['samples'])}")
            for name, m in result["metrics"].items():
                print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
            for miss in record["misses"]:
                print(f"  miss: {miss}")
    print("\nenvironment:", json.dumps(record["environment"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded only: the workloads are not random")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload in both modes and print tables")
    args = parser.parse_args(argv)
    if not (SRC / "flux_catastrophe" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.report:
        report(args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    record, result = run_workload(args.workload, args.seconds, bool(args.trace), args.seed)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
