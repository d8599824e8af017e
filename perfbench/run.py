"""Seeded, reference-checked benchmark of the quintic solver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload random200 --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one client: each operation
starts when the previous one has returned.  An operation is one call to
``solve_quintic`` (one call to ``solve_bring`` in ``bring_paths``).

--trace 0   runs about two seconds of untimed warm-up operations, then
            whole rounds of the workload until --seconds have passed
            (and at least 30 operations, so the tail percentile exists),
            then validates each answer with the oracle, checks it against an
            independent reference, and prints the end-to-end metrics.
--trace 1   runs a fixed number of operations, each once without and once
            with spans around the solver's layers, so that counts repeat
            exactly across runs of one seed; it checks that both runs return
            bit-identical roots and prints the per-layer metrics.

Every operation is classified as ok, wrong (roots miss the reference),
typed (raised a QuinticError) or untyped (raised anything else).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans of a traced run are written to
.perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from reference import NoReference, accuracy_digits, context, reference_roots
from spans import Tracer, layer_metrics
from workloads import KNOWN_DEFECTS, WORKLOADS, rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden.py"
OUT = ROOT / ".perfbench_out"

# the tail percentile needs ten samples beyond it; 30 keeps it at p67 or
# above and makes degenerate50 run at least three whole rounds
MIN_OPS = 30
SETUP_REPEATS = 11
# untimed operations before the timed loop, so that lazily built caches
# (mpmath constants at the working precision) are not charged to the first
# timed operations
WARMUP_S = 2.0
# operations in a traced run, in whole rounds: 10 to 30 s of work on 2 cores
TRACE_OPS = {"random200": 8, "digits1000": 4, "bring_paths": 32, "degenerate50": 14, "defects": 5}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from quintic import PrecisionCtx
PrecisionCtx(digits=int(sys.argv[2]))
print(time.perf_counter() - start)
"""


@dataclass
class Op:
    label: str
    seconds: float
    roots: tuple | None = None
    error: str | None = None
    untyped: bool = False
    escalated: bool = False
    outcome: str = ""
    digits: float | None = None


def measure_setup(digits: int) -> float:
    """Median, over fresh interpreters, of importing quintic and building a context."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(digits)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return median(times)


class Solver:
    """The program under test, driven through its public module attributes."""

    def __init__(self, digits: int):
        sys.path.insert(0, str(SRC))
        from quintic import bring, closedform, errors, oracle, polyring, tschirnhaus
        from quintic.mpfield import PrecisionCtx

        self.modules = {
            "closedform": closedform,
            "tschirnhaus": tschirnhaus,
            "bring": bring,
            "oracle": oracle,
            "PrecisionCtx": PrecisionCtx,
        }
        self.errors = errors
        self.polyring = polyring
        self.digits = digits
        self.ctxs = {digits: PrecisionCtx(digits=digits)}

    def ctx(self, inp):
        """The context of an input's working precision, built once."""
        digits = inp.digits or self.digits
        if digits not in self.ctxs:
            self.ctxs[digits] = self.modules["PrecisionCtx"](digits=digits)
        return self.ctxs[digits]

    def prepare(self, inp):
        ctx = self.ctx(inp)
        if inp.kind == "bring":
            return ctx.mpc(*inp.s)
        return self.modules["tschirnhaus"].MonicQuintic(*(ctx.mpc(re_, im_) for re_, im_ in inp.coeffs))

    def run(self, inp, arg) -> Op:
        closedform, bring = self.modules["closedform"], self.modules["bring"]
        ctx = self.ctx(inp)
        op = Op(inp.label, 0.0)
        start = perf_counter()
        try:
            if inp.kind == "bring":
                op.roots = (bring.solve_bring(arg, ctx).z,)
            else:
                report = closedform.solve_quintic(arg, ctx)
                op.roots = report.roots
                op.escalated = report.precision_used > ctx.digits
        except self.errors.QuinticError as exc:
            op.error = type(exc).__name__
        except Exception as exc:  # an untyped escape is an outcome to count, not a crash
            op.error = type(exc).__name__
            op.untyped = True
        op.seconds = perf_counter() - start
        return op

    def validate(self, inp, arg, op) -> float:
        """Seconds the oracle takes to cross-validate the returned roots."""
        oracle = self.modules["oracle"]
        ctx = self.ctx(inp)
        start = perf_counter()
        if inp.kind == "bring":
            poly = self.polyring.Poly([-arg, ctx.mpc(-1), 0, 0, 0, ctx.mpc(1)])
            found = oracle.aberth_solve(poly, ctx)
            nearest = min(found, key=lambda z: abs(z - op.roots[0]))
            oracle.match_rootsets(op.roots, [nearest])
        else:
            oracle.match_rootsets(op.roots, oracle.aberth_solve(arg.as_poly(ctx), ctx))
        return perf_counter() - start


def classify(ops, inputs, digits: int):
    """Set each operation's outcome against the independent reference."""
    for op, inp in zip(ops, inputs):
        if op.untyped:
            op.outcome = "untyped"
        elif op.error is not None:
            op.outcome = "typed"
        else:
            need = inp.digits or digits
            op.digits = accuracy_digits(op.roots, reference_roots(inp, need), context(need))
            op.outcome = "ok" if op.digits >= need / 2 else "wrong"


def report_ops(ops):
    for index, op in enumerate(ops):
        detail = f"{op.digits:.1f} digits" if op.digits is not None else op.error
        print(f"op {index:4d} {op.label:18s} {op.seconds * 1000:10.1f} ms  {op.outcome:8s} {detail}")


def is_correct(ops) -> bool:
    return all(op.outcome == "ok" or op.label in KNOWN_DEFECTS for op in ops)


def take_inputs(workload: str, seed: int, count: int):
    out = []
    for batch in rounds(workload, seed, GOLDEN):
        out.extend(batch)
        if len(out) >= count:
            return out


def warm_up(solver, workload: str, seed: int):
    """Run untimed operations from a separate stream of the seed for WARMUP_S."""
    start = perf_counter()
    for batch in rounds(workload, -1 - seed, GOLDEN):
        for inp in batch:
            solver.run(inp, solver.prepare(inp))
            if perf_counter() - start >= WARMUP_S:
                return


def run_untraced(solver, workload: str, seed: int, seconds: float):
    inputs, args, ops = [], [], []
    gen = rounds(workload, seed, GOLDEN)
    warm_up(solver, workload, seed)
    gc.collect()
    start = perf_counter()
    while perf_counter() - start < seconds or len(ops) < MIN_OPS:
        for inp in next(gen):
            inputs.append(inp)
            args.append(solver.prepare(inp))
            ops.append(solver.run(inp, args[-1]))
    elapsed = perf_counter() - start

    validated = [
        op.seconds + solver.validate(inp, arg, op)
        for inp, arg, op in zip(inputs, args, ops)
        if op.roots is not None
    ]
    classify(ops, inputs, solver.digits)
    report_ops(ops)

    n = len(ops)
    times = sorted(op.seconds for op in ops)
    tail_index = n - 11  # ten samples beyond it
    share = {k: sum(op.outcome == k for op in ops) / n for k in ("ok", "wrong", "typed", "untyped")}
    ok_digits = [op.digits for op in ops if op.outcome == "ok"]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_p50_ms": (median(times) * 1000, "ms"),
        "solve_tail_ms": (times[tail_index] * 1000, "ms"),
        "solves_per_s": (n / elapsed, "1/s"),
        "validated_p50_ms": (median(validated) * 1000, "ms"),
        "ok_frac": (share["ok"], "frac"),
        "accuracy_digits_min": (min(ok_digits) if ok_digits else 0.0, "digits"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    info = {
        "solve_tail_ms percentile": f"p{100.0 * (tail_index + 1) / n:.1f} of {n} samples",
        "fail_frac": f"{1.0 - share['ok']:.4f}",
        "wrong_frac": f"{share['wrong']:.4f}",
        "untyped_frac": f"{share['untyped']:.4f}",
        "typed_frac": f"{share['typed']:.4f}",
    }
    return ops, metrics, info, is_correct(ops)


def run_traced(solver, workload: str, seed: int):
    inputs = take_inputs(workload, seed, TRACE_OPS[workload])
    tracer = Tracer()
    plain, traced, solves, identical = [], [], [], True
    for index, inp in enumerate(inputs):
        arg = solver.prepare(inp)
        gc.collect()
        first = solver.run(inp, arg)
        tracer.op = index
        tracer.install(solver.modules)
        try:
            gc.collect()
            op = solver.run(inp, arg)
            if op.roots is not None:
                solver.validate(inp, arg, op)
        finally:
            tracer.remove()
            tracer.op = None
        plain.append(first)
        traced.append(op)
        if inp.kind == "quintic" and op.roots is not None:
            solves.append(op.escalated)
        same_roots = [z._mpc_ for z in first.roots or ()] == [z._mpc_ for z in op.roots or ()]
        if not same_roots or first.error != op.error:
            identical = False
            print(f"op {index}: roots differ with tracing on", file=sys.stderr)
    classify(traced, inputs, solver.digits)
    report_ops(traced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    metrics = layer_metrics(
        tracer.spans,
        len(inputs),
        solves,
        [op.seconds for op in plain],
        [op.seconds for op in traced],
    )
    return traced, metrics, {"roots identical with tracing on and off": str(identical)}, identical and is_correct(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "quintic" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: {SRC / 'quintic'} and {GOLDEN} must exist: run from a full checkout", file=sys.stderr)
        return 2

    digits = WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(digits)
    solver = Solver(digits)
    try:
        if args.trace:
            ops, metrics, info, correct = run_traced(solver, args.workload, args.seed)
        else:
            ops, metrics, info, correct = run_untraced(solver, args.workload, args.seed, args.seconds)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    except NoReference as exc:
        print(f"error: no independent reference: {exc}", file=sys.stderr)
        return 3

    failures = [op for op in ops if op.outcome != "ok"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(ops)} operations")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    for op in failures:
        known = " (known defect)" if op.label in KNOWN_DEFECTS else ""
        print(f"  failure: {op.label} {op.outcome} {op.error or ''}{known}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
