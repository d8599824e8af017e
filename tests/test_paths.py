"""Pin the path each degenerate family takes through the solver.

Runs the first round of the benchmark's degenerate50 workload (seed 1, 14
inputs at 50 digits) and checks the precision each solve ends at, its
pre-shift and its pure-radical tag.  A change that moves a vanishing test
or a precision rung changes these paths before it changes any root, so it
fails here.  ``perfbench/workloads.py`` is only read.
"""

import importlib.util
import sys
from pathlib import Path

from quintic.closedform import solve_quintic
from quintic.mpfield import PrecisionCtx
from quintic.tschirnhaus import MonicQuintic

ROOT = Path(__file__).resolve().parent.parent


def _first_round(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    return next(workloads.rounds("degenerate50", 1, ROOT / "tests" / "golden.py"))


def test_degenerate50_round_paths(monkeypatch):
    ctx = PrecisionCtx(digits=50)
    paths = []
    for inp in _first_round(monkeypatch):
        report = solve_quintic(MonicQuintic(*(ctx.mpc(re_, im_) for re_, im_ in inp.coeffs)), ctx)
        paths.append((inp.label, report.precision_used, report.reduction.shift == 0, report.reduction.pure_radical))
    assert len(paths) == 14
    for label, precision, unshifted, pure in paths:
        if label == "pure_power":
            assert (precision, pure) == (50, "quintic")
        elif label == "cluster_pair":
            assert precision == 100
        elif label == "cluster_triple":
            assert precision == 200
        else:
            assert (precision, unshifted) == (50, True), label
