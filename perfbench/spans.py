"""In-memory span recording around calls into the solver's layers.

Wrappers are installed from here only, on the module attributes that the
solver's own callers resolve at call time, and removed after each traced
operation.  A span records its name, start and end, the span that caused it,
the operation it belongs to and the exception that ended it, if any.  Self
time is a span's duration minus the durations of its direct children (one
thread, so children never overlap).
"""

from __future__ import annotations

import json
from collections import defaultdict
from statistics import median
from time import perf_counter

# (span name, module key, attribute): the wrapped names, as the solver's
# callers resolve them; module keys index the dict passed to Tracer.install.
# solve_bring is wrapped twice: closedform's import, and the bring module
# attribute that bring_paths calls directly.
WRAPPED = (
    ("closedform.solve_quintic", "closedform", "solve_quintic"),
    ("tschirnhaus.reduce_to_bring", "closedform", "reduce_to_bring"),
    ("bring.solve_bring", "closedform", "solve_bring"),
    ("closedform.ferrari_roots", "closedform", "ferrari_roots"),
    ("closedform.cardano_roots", "closedform", "cardano_roots"),
    ("closedform.select_quintic_root", "closedform", "select_quintic_root"),
    ("closedform.deflate_quintic", "closedform", "deflate_quintic"),
    ("polyring.det5", "tschirnhaus", "det5"),
    ("tschirnhaus.transformed_poly", "tschirnhaus", "transformed_poly"),
    ("bring.solve_bring", "bring", "solve_bring"),
    ("bring.bring_root_continuation", "bring", "bring_root_continuation"),
    ("bring.hyper4f3", "bring", "hyper4f3"),
    ("mpfield.escalated", "PrecisionCtx", "escalated"),
    ("mpfield.ctx_build", "PrecisionCtx", "__post_init__"),
    ("oracle.aberth_solve", "oracle", "aberth_solve"),
    ("oracle.match_rootsets", "oracle", "match_rootsets"),
)


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, error, bring_result]
        self._stack = []
        self._installed = []
        self.op = None

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op, None, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        if name == "bring.solve_bring":
            record[6] = (result.strategy, result.terms_or_steps)
        return result

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self, targets):
        """Wrap every entry of WRAPPED; ``targets`` maps module keys to objects."""
        for name, key, attr in WRAPPED:
            self._wrap(targets[key], attr, name)

    def remove(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "error", "bring")
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")


def layer_metrics(spans, ops: int, solves: list, plain_s: list, traced_s: list):
    """Per-layer metrics from spans of ``ops`` operations.

    ``solves`` holds, per returned solve_quintic call, whether it escalated
    precision; ``plain_s`` and ``traced_s`` are the per-operation wall times
    without and with tracing.
    """
    count = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    for name, start, end, parent, *_rest in spans:
        if parent is not None:
            child_time[parent] += end - start
    for i, (name, start, end, *_rest) in enumerate(spans):
        count[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
    roots = sum(end - start for name, start, end, parent, *_ in spans if parent is None and not name.startswith("oracle."))
    bring_results = [record[6] for record in spans if record[6] is not None]

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    reduces = count["tschirnhaus.reduce_to_bring"]
    ms = 1000.0
    metrics = {
        "tschirnhaus.reduce_ms": (per_op(self_time["tschirnhaus.reduce_to_bring"]) * ms, "ms"),
        "tschirnhaus.reduce_share": (ratio(total["tschirnhaus.reduce_to_bring"], roots), "frac"),
        "tschirnhaus.reduce_calls": (per_op(reduces), "count"),
        "tschirnhaus.transformed_poly_calls": (ratio(count["tschirnhaus.transformed_poly"], reduces), "count/reduce"),
        "polyring.det5_calls": (ratio(count["polyring.det5"], reduces), "count/reduce"),
        "polyring.det5_ms": (per_op(total["polyring.det5"]) * ms, "ms"),
        "polyring.det5_us_each": (ratio(total["polyring.det5"], count["polyring.det5"]) * 1e6, "us"),
        "bring.solve_ms": (per_op(total["bring.solve_bring"]) * ms, "ms"),
        "bring.continuation_ms": (per_op(total["bring.bring_root_continuation"]) * ms, "ms"),
        "bring.series_ms": (per_op(total["bring.hyper4f3"]) * ms, "ms"),
        "bring.share": (ratio(total["bring.solve_bring"], roots), "frac"),
        "bring.taylor_steps": (per_op(sum(steps for _, steps in bring_results)), "count"),
        "bring.series_frac": (
            ratio(sum(1 for strategy, _ in bring_results if strategy == "series"), len(bring_results)),
            "frac",
        ),
        "closedform.ferrari_ms": (per_op(total["closedform.ferrari_roots"]) * ms, "ms"),
        "closedform.ferrari_calls": (per_op(count["closedform.ferrari_roots"]), "count"),
        "closedform.cardano_calls": (per_op(count["closedform.cardano_roots"]), "count"),
        "closedform.select_ms": (per_op(total["closedform.select_quintic_root"]) * ms, "ms"),
        "closedform.deflate_ms": (per_op(total["closedform.deflate_quintic"]) * ms, "ms"),
        "closedform.self_ms": (per_op(self_time["closedform.solve_quintic"]) * ms, "ms"),
        "closedform.attempt_yield": (ratio(len(solves), reduces), "frac"),
        "closedform.escalated_frac": (ratio(sum(solves), len(solves)), "frac"),
        "oracle.aberth_ms": (per_op(total["oracle.aberth_solve"]) * ms, "ms"),
        "oracle.match_ms": (per_op(total["oracle.match_rootsets"]) * ms, "ms"),
        "mpfield.escalations": (per_op(count["mpfield.escalated"]), "count"),
        "mpfield.ctx_builds": (per_op(count["mpfield.ctx_build"]), "count"),
        "trace.overhead_frac": (median(traced_s) / median(plain_s) - 1.0, "frac"),
    }
    return metrics
