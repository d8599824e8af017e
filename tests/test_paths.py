"""Pin the path each degenerate family takes through the solver.

Runs the first two rounds of the benchmark's degenerate50 workload (seed 1,
14 inputs each at 50 digits) and checks the precision each solve ends at,
its pre-shift and its pure-radical tag.  A change that moves a vanishing
test or a precision rung changes these paths before it changes any root, so
it fails here.  ``perfbench/workloads.py`` is only read.
"""

import importlib.util
import sys
from pathlib import Path

from quintic.closedform import solve_quintic
from quintic.mpfield import PrecisionCtx
from quintic.tschirnhaus import MonicQuintic

ROOT = Path(__file__).resolve().parent.parent


def _rounds(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    return workloads.rounds("degenerate50", 1, ROOT / "tests" / "golden.py")


def _assert_paths(batch):
    ctx = PrecisionCtx(digits=50)
    paths = []
    for inp in batch:
        report = solve_quintic(MonicQuintic(*(ctx.mpc(re_, im_) for re_, im_ in inp.coeffs)), ctx)
        paths.append((inp.label, report.precision_used, report.reduction.shift == 0, report.reduction.pure_radical))
    assert len(paths) == 14
    for index, (label, precision, unshifted, pure) in enumerate(paths):
        if label == "pure_power":
            assert (precision, pure) == (50, "quintic")
        elif label == "cluster_pair":
            assert precision == 100, index
        elif label == "cluster_triple":
            assert precision == 200
        else:
            assert (precision, unshifted) == (50, True), label


def test_degenerate50_round_paths(monkeypatch):
    _assert_paths(next(_rounds(monkeypatch)))


def test_degenerate50_second_round_paths(monkeypatch):
    """Round 1 pins the escalation its cluster pairs owe to the bring_A unit floor.

    At 50 digits the pairs at indices 9 and 12 reduce to |A| of 1e-29 to
    1e-26 and |B| of 1e-36 to 1e-33, so ``_finish_reduction``'s bring_A
    test, floored at 1, fires, selection fails and the solve escalates to
    100 digits, where it returns 62 to 63 correct digits.  With that test
    weighed against |B|^(4/5) alone and no bring_B short-cut, both finish
    at 50 digits with 26 to 34.
    """
    rounds = _rounds(monkeypatch)
    next(rounds)
    _assert_paths(next(rounds))
