"""The layers the traced benchmark run wraps must exist under their names.

bench/run.py --trace 1 rebinds each traced function at the module
attributes that hold it.  A layer deleted or renamed in the package would
only surface there as a crash, so this resolves the same target list.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    dps = mpmath.mp.dps
    try:
        run = importlib.import_module("run")
    finally:
        mpmath.mp.dps = dps  # bench/checks.py sets its own precision on import
    mods = run._package()
    targets = run._trace_targets(mods)
    assert targets
    for name, fn, _observe, sites in targets:
        module, attr = name.split(".")
        assert getattr(mods[module], attr) is fn
        # a site-limited span only counts calls made through that module's globals
        for site in sites or ():
            assert any(value is fn for value in vars(mods[site]).values()), (name, site)
