"""Spans around the program's public functions, recorded from outside.

Nothing in the package is edited.  Each traced function is replaced, in
every ``rpdml`` module and class that holds a reference to it, by a wrapper
that records a span: id, parent span, op id, name, start and end.  The
modules import functions by name (``from .manifold import retract_array``),
so patching only the defining module would miss most calls.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover; the op's root
span ``cli.main`` keeps whatever no traced function claims (argument
parsing, config layering, artifact writes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

#: layer -> functions traced in it, as (module, attribute or Class.method).
TRACED = {
    "data": [
        ("rpdml.data", "read_labeled_csv"),
        ("rpdml.data", "read_panel_csv"),
        ("rpdml.data", "normalize_features"),
        ("rpdml.data", "NormalizationStats.apply"),
    ],
    "manifold": [
        ("rpdml.manifold", "eigendecompose"),
        ("rpdml.manifold", "retract_array"),
        ("rpdml.manifold", "spd_inverse"),
        ("rpdml.manifold", "rowwise_quadratic"),
    ],
    "solver": [
        ("rpdml.solver", "step_size"),
        ("rpdml.solver", "aggregate_violation"),
        ("rpdml.solver", "positive_part"),
        ("rpdml.solver", "select_best_index"),
        ("rpdml.solver", "run"),
    ],
    "metric": [
        ("rpdml.metric", "train"),
        ("rpdml.metric", "inner_solve_w"),
        ("rpdml.metric", "eval_h"),
        ("rpdml.metric", "grad_h_contraction"),
        ("rpdml.metric", "update_slack"),
        ("rpdml.metric", "update_lambda"),
        ("rpdml.metric", "update_gamma"),
        ("rpdml.metric", "build_pairs"),
        ("rpdml.metric", "PairConstraints.without_degenerate_rows"),
        ("rpdml.metric", "compute_bounds"),
    ],
    "evaluation": [
        ("rpdml.evaluation", "knn_accuracy"),
        ("rpdml.evaluation", "knn_predict"),
        ("rpdml.evaluation", "knn_classify"),
        ("rpdml.evaluation", "spearman_ic"),
        ("rpdml.evaluation", "window_predictions"),
        ("rpdml.evaluation", "backtest_from_predictions"),
        ("rpdml.evaluation", "ic_summary"),
    ],
}

ROOT = "cli.main"
WINDOW = "evaluation.window_predictions"
#: Span of a generator after its last yield (not a backtest window).
WINDOW_END = WINDOW + ".end"

#: per-layer metric -> span names whose self time it sums.
SELF_GROUPS = {
    "cli.self_s": [ROOT],
    "data.read_csv.self_s": ["data.read_labeled_csv", "data.read_panel_csv"],
    "data.normalize.self_s": ["data.normalize_features", "data.NormalizationStats.apply"],
    "manifold.eigendecompose.self_s": ["manifold.eigendecompose"],
    "manifold.retract.self_s": ["manifold.retract_array"],
    "manifold.inverse.self_s": ["manifold.spd_inverse"],
    "manifold.rowwise_quadratic.self_s": ["manifold.rowwise_quadratic"],
    "solver.bookkeeping.self_s": [
        "solver.step_size", "solver.aggregate_violation", "solver.positive_part",
        "solver.select_best_index", "solver.run",
    ],
    "metric.train.self_s": ["metric.train"],
    "metric.inner_solve.self_s": ["metric.inner_solve_w"],
    "metric.constraints.self_s": ["metric.eval_h", "metric.grad_h_contraction"],
    "metric.dual_update.self_s": ["metric.update_slack", "metric.update_lambda", "metric.update_gamma"],
    "metric.pairs.self_s": [
        "metric.build_pairs", "metric.PairConstraints.without_degenerate_rows", "metric.compute_bounds",
    ],
    "evaluation.knn.self_s": ["evaluation.knn_accuracy", "evaluation.knn_predict", "evaluation.knn_classify"],
    "evaluation.window.self_s": [WINDOW, WINDOW_END],
    "evaluation.spearman.self_s": ["evaluation.spearman_ic"],
    "evaluation.portfolio.self_s": ["evaluation.backtest_from_predictions", "evaluation.ic_summary"],
}

#: per-layer metric -> span names whose calls it counts.
CALL_GROUPS = {
    "data.normalize.calls": ["data.normalize_features"],
    "manifold.eigendecompose.calls": ["manifold.eigendecompose"],
    "manifold.retract.calls": ["manifold.retract_array"],
    "manifold.inverse.calls": ["manifold.spd_inverse"],
    "manifold.rowwise_quadratic.calls": ["manifold.rowwise_quadratic"],
    "metric.train.calls": ["metric.train"],
    "metric.inner_solve.calls": ["metric.inner_solve_w"],
    "evaluation.knn.calls": ["evaluation.knn_accuracy", "evaluation.knn_predict", "evaluation.knn_classify"],
}

#: One k-NN query is one knn_classify or knn_predict call.
QUERY_SPANS = ("evaluation.knn_classify", "evaluation.knn_predict")


def _rowwise_flops(counters, args, kwargs, result):
    # diag(X W X^T) for X of shape (n, d): X W is 2 n d^2, the row dots 2 n d.
    n, d = (args[1] if len(args) > 1 else kwargs["rows"]).shape
    counters["rowwise_quadratic_flops"] += 2 * n * d * d + 2 * n * d


def _outer_iters(counters, args, kwargs, result):
    counters["outer_iters"] += len(result.trace)


#: span name -> hook(counters, args, kwargs, result), run after the span closes.
HOOKS = {"manifold.rowwise_quadratic": _rowwise_flops, "metric.train": _outer_iters}


class Tracer:
    """Installs the wrappers and keeps the spans of the traced ops."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._op = None
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def _close(self, span, name=None):
        end = time.perf_counter()
        sid, parent, opened_name, start = span
        self._stack.pop()
        self.spans.append((sid, parent, self._op, name or opened_name, start, end))

    def begin_op(self, op_id):
        self._op = op_id
        return self._open(ROOT)

    def end_op(self, span):
        self._close(span)
        self._op = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            # Time each item between the caller's request and the yield.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._close(span, name + ".end")
                        return
                    except BaseException:
                        self._close(span)
                        raise
                    self._close(span)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
                if hook is not None:
                    hook(self.counters, args, kwargs, result)
                return result
        return wrapper

    def install(self):
        """Replace every reference to a traced function inside ``rpdml``."""
        for layer, targets in TRACED.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                *cls_path, fn_name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[fn_name]
                wrapper = self._wrap(f"{layer}.{attr}", original)
                if cls_path:
                    self._patch(owner, fn_name, original, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "rpdml" and not mod_name.startswith("rpdml."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, float]:
    covered = defaultdict(float)
    for sid, parent, op, name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, parent, op, name, start, end in spans}


def percentile(values, p):
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def op_remainders(spans, op_walls: dict) -> tuple[float, float]:
    """Smallest span self time and smallest ``wall - sum(self)`` over the ops.

    Both must be nonnegative: every span's children fit inside it, and the
    spans of an op fit inside the op's measured wall time.
    """
    selfs = self_times(spans)
    per_op = defaultdict(float)
    for sid, parent, op, *_ in spans:
        per_op[op] += selfs[sid]
    min_self = min(selfs.values()) if selfs else 0.0
    min_rem = min((op_walls[op] - total for op, total in per_op.items()), default=0.0)
    return min_self, min_rem


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer numbers, as means per traced op unless named otherwise."""
    selfs = self_times(tracer.spans)
    self_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    durations = defaultdict(list)
    for sid, parent, op, name, start, end in tracer.spans:
        self_by_name[name] += selfs[sid]
        calls_by_name[name] += 1
        durations[name].append(end - start)

    out = {}
    for metric, names in SELF_GROUPS.items():
        out[metric] = sum(self_by_name[n] for n in names) / n_ops
    for metric, names in CALL_GROUPS.items():
        out[metric] = sum(calls_by_name[n] for n in names) / n_ops

    iters = tracer.counters["outer_iters"]
    out["solver.outer_iters"] = iters / n_ops
    eig = calls_by_name["manifold.eigendecompose"]
    out["manifold.eigendecompose_per_iter"] = eig / iters if iters else 0.0
    solves = calls_by_name["metric.inner_solve_w"]
    retracts = calls_by_name["manifold.retract_array"]
    out["metric.retracts_per_inner_solve"] = retracts / solves if solves else 0.0
    rq_self = self_by_name["manifold.rowwise_quadratic"]
    flops = tracer.counters["rowwise_quadratic_flops"]
    out["manifold.rowwise_quadratic.gflops"] = flops / rq_self / 1e9 if rq_self > 0 else 0.0

    queries_ms = [d * 1e3 for n in QUERY_SPANS for d in durations[n]]
    out["evaluation.query_ms.p50"] = percentile(queries_ms, 50)
    out["evaluation.query_ms.p99"] = percentile(queries_ms, 99)
    out["evaluation.window_s.p50"] = percentile(durations[WINDOW], 50)
    return out
