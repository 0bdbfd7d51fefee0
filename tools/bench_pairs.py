#!/usr/bin/env python3
"""Benchmark a change against its parent: perfbench runs in alternating pairs.

Run from anywhere, with two source trees (a checkout of the parent commit
and one of the change):

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload backtest-panel:10 --workload train-desk:6 \\
        --workload eval-large:6 --workload backtest-panel:3:11 \\
        --traced --layers --out BENCH_<pr>.json

Each ``--workload NAME:PAIRS[:SEED]`` runs each tree's
``perfbench/run.py --trace 0`` PAIRS times, one pair at a time: the parent
first on odd pairs, the change first on even ones, so that a drift of the
shared host's speed falls on both sides alike.  For every end-to-end metric
(all lower-is-better) the output holds both sides' runs, their medians and
quartiles, the parent's interquartile range, the change/parent ratio of the
medians and the number of pairs the change wins, plus each side's failed and
attempted ops and the host record of the runs.

``--traced`` adds one ``--trace 1`` run per side and workload, with the
change-minus-parent shift of every per-layer metric and each side's spans
per op of every traced function.  ``--layers`` adds
in-process timings of the backtest's four stages on the README panel
(``gen-data --seed 3 --kind panel --dim 12 --informative-dims 3 --periods
12 --assets 40``, 10 iterations), each through a public entry point: the
set-up of the 11 windows (``train_many`` with 0 iterations: pairs, bounds,
W0 and the stacked start), the whole fit (``train_many``), the ranking
(``window_predictions`` with the fitted metrics) and the scoring
(``rolling_ic`` and ``backtest_from_predictions`` of the ranked
predictions, top 10).  Each stage is timed in its own fresh process per
side and round (``LAYER_ROUNDS`` rounds), so that no stage inherits the
allocator state that another stage left.  The ranking and the scoring need
fitted metrics: each side fits the panel once, in a process of its own, and
hands the (11, d, d) stack to those stages in a temporary ``.npy`` file, so
that no fit runs in the process of a stage that does not time it.  It also
adds a scale table: ``build_pairs`` (``max_pairs`` 200) and a whole ``train``
(10 iterations) on normalized ``gen-data`` labeled data with d=20 and 3
classes, their untraced times and tracemalloc peaks at each n of
``SCALE_ROWS``, in one fresh process per side and n.  The parent runs only up
to ``PARENT_MAX_ROWS`` rows: a tree that enumerates the upper triangle of
pairs needs about 16 GiB for it at n=32000.

The exit code is 1 when any run fails or does not report
``"correct": true`` with ``"failed": 0``, else 0.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

END_TO_END = ("setup_s", "op_s", "peak_rss_mb")
HOST_KEYS = ("nproc", "cpus_usable", "python", "numpy", "scipy", "blas", "blas_threads",
             "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SIDES = ("parent", "change")
#: Rounds of fresh processes per side and stage, and timed calls in each, of ``--layers``.
LAYER_ROUNDS, LAYER_REPS = 5, 30
#: Row counts of the ``--layers`` scale table, the largest the parent runs,
#: and the timed calls per size.
SCALE_ROWS, PARENT_MAX_ROWS, SCALE_REPS = (1000, 2000, 4000, 8000, 32000), 8000, 3

#: Times one of the backtest's stages, argv[2], in the tree on PYTHONPATH;
#: prints one JSON line of the stage's (min, median) milliseconds over
#: argv[1] timed calls.  The ranking and scoring stages read the fitted
#: metrics from the .npy file argv[3]; stage "fit" writes that file and times
#: nothing.
LAYERS_SNIPPET = r"""
import dataclasses, json, statistics, sys, time
import numpy as np
from rpdml import data, evaluation, metric
from rpdml.manifold import SpdMatrix
reps, stage, fitted_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
panel = data.generate_synthetic_panel(data.SyntheticSpec(seed=3, dim=12, informative_dims=3),
                                      periods=12, assets_per_period=40)
config = metric.RpdmlConfig(iters=10, seed=3)
windows = []
for train_p in panel.periods[:-1]:
    feats, _ = data.normalize_features(train_p.features)
    rets = train_p.next_returns
    windows.append((feats, (rets > np.median(rets)).astype(int)))
if stage == "fit":
    np.save(fitted_path, np.stack([w.mat for w in metric.train_many(windows, config)]))
    sys.exit()
set_up = dataclasses.replace(config, iters=0)
if stage in ("rank_11_windows", "score_11_windows"):
    fitted = [SpdMatrix(mat) for mat in np.load(fitted_path)]
if stage == "score_11_windows":
    preds = list(evaluation.window_predictions(panel, lambda w: fitted, k=10))
fn = {
    "set_up_11_windows": lambda: metric.train_many(windows, set_up),
    "train_many_11_windows": lambda: metric.train_many(windows, config),
    "rank_11_windows": lambda: list(evaluation.window_predictions(panel, lambda w: fitted, k=10)),
    "score_11_windows": lambda: (evaluation.rolling_ic(preds),
                                 evaluation.backtest_from_predictions(preds, 10)),
}[stage]
fn()
times = []
for _ in range(reps):
    start = time.perf_counter()
    fn()
    times.append((time.perf_counter() - start) * 1e3)
print(json.dumps([round(min(times), 4), round(statistics.median(times), 4)]))
"""
#: The stages of ``LAYERS_SNIPPET``, each timed in its own fresh process.
LAYER_STAGES = ("set_up_11_windows", "train_many_11_windows", "rank_11_windows", "score_11_windows")

#: Times ``build_pairs`` and ``train`` at argv[1] rows in the tree on PYTHONPATH;
#: prints one JSON line of (min, median) milliseconds and tracemalloc peak MiB.
SCALE_SNIPPET = r"""
import json, statistics, sys, time, tracemalloc
from rpdml import data, metric
n, reps = int(sys.argv[1]), int(sys.argv[2])
ds = data.generate_synthetic(data.SyntheticSpec(classes=3, samples=n, dim=20, seed=7))
features, labels = data.normalize_features(ds.features)[0], ds.labels
config = metric.RpdmlConfig(iters=10, seed=7)
steps = {"build_pairs": lambda: metric.build_pairs(features[None], labels[None], 200, 7),
         "train_10_iters": lambda: metric.train(features, labels, config)}
out = {"n": n}
for name, fn in steps.items():
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out[name] = {"ms": [round(min(times), 3), round(statistics.median(times), 3)],
                 "peak_mib": round(peak / 2**20, 3)}
print(json.dumps(out))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS[:SEED]",
                   help="a perfbench workload, its number of pairs and optionally its seed")
    p.add_argument("--seconds", type=float, default=24.0, help="perfbench --seconds of every run")
    p.add_argument("--traced", action="store_true", help="add one traced run per side and workload")
    p.add_argument("--layers", action="store_true", help="add in-process stage timings")
    p.add_argument("--out", type=Path, help="write the JSON here (default: stdout)")
    return p.parse_args(argv)


def perfbench(tree: Path, workload: str, seed: str | None, seconds: float, trace: int) -> dict:
    """One run.py run; its last stdout line, plus the host record it wrote."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", seed]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"run.py exited with code {proc.returncode} and no JSON line"}
    record = json.loads((tree / ".perfbench" / f"{workload}.run.json").read_text())
    result["host"] = {key: record.get(key) for key in HOST_KEYS}
    result["commit"] = record.get("commit")
    return result


def ok(result: dict) -> bool:
    return result.get("correct") is True and result.get("failed") == 0


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": sorted(round(v, 6) for v in values)}


def compare(pairs: list[dict]) -> dict:
    """Per end-to-end metric: both sides' summaries and the change's pair wins."""
    out = {}
    for name in END_TO_END:
        got = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
               for p in pairs
               if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not got:
            continue
        parent, change = summary([a for a, _ in got]), summary([b for _, b in got])
        out[name] = {
            "parent": parent,
            "change": change,
            "change_over_parent": round(change["median"] / parent["median"], 4),
            "parent_iqr": round(parent["q3"] - parent["q1"], 6),
            "change_lower_in_pairs": f"{sum(b < a for a, b in got)} of {len(got)}",
        }
    return out


def run_pairs(trees: dict, workload: str, n_pairs: int, seed: str | None, seconds: float) -> dict:
    pairs = []
    for number in range(1, n_pairs + 1):
        order = SIDES if number % 2 else SIDES[::-1]
        pair = {"pair": number, "first": order[0]}
        for side in order:
            pair[side] = perfbench(trees[side], workload, seed, seconds, trace=0)
            print(f"{workload} seed {seed or 'default'} pair {number} {side}: "
                  f"{json.dumps({k: v['value'] for k, v in pair[side]['metrics'].items()})}"
                  f"{'' if ok(pair[side]) else ' NOT CORRECT'}", file=sys.stderr)
        pairs.append(pair)
    failed = {side: f"{sum(p[side].get('failed', 0) for p in pairs)} of "
                    f"{sum(p[side].get('attempted', 0) for p in pairs)}" for side in SIDES}
    return {
        "all_correct": all(ok(p[side]) for p in pairs for side in SIDES),
        "failed_of_attempted": failed,
        "host": pairs[0]["change"].get("host"),
        "end_to_end": compare(pairs),
        "pairs": [{"pair": p["pair"], "first": p["first"],
                   **{side: {k: v["value"] for k, v in p[side]["metrics"].items()} for side in SIDES}}
                  for p in pairs],
    }


def spans_per_op(tree: Path, workload: str) -> dict:
    """Spans per traced op of each traced function, from the spans file that
    the tree's last traced run of the workload left."""
    lines = (tree / ".perfbench" / f"{workload}.spans.jsonl").read_text().splitlines()[1:]
    spans = [json.loads(line) for line in lines]  # [id, parent, op, name, start, end]
    ops = len({span[2] for span in spans})
    counts = collections.Counter(span[3] for span in spans)
    return {name: round(n / ops, 3) for name, n in sorted(counts.items())}


def traced(trees: dict, workload: str, seconds: float) -> dict:
    runs = {side: perfbench(trees[side], workload, None, seconds, trace=1) for side in SIDES}
    values = {side: {k: v["value"] for k, v in runs[side]["metrics"].items()} for side in SIDES}
    shift = {k: round(values["change"][k] - values["parent"][k], 7)
             for k in values["change"] if k in values["parent"]}
    return {"all_correct": all(ok(r) for r in runs.values()), **values, "change_minus_parent": shift,
            "spans_per_op": {side: spans_per_op(trees[side], workload) for side in SIDES}}


def layers(trees: dict) -> dict:
    per_side: dict[str, dict] = {side: {stage: [] for stage in LAYER_STAGES} for side in SIDES}
    envs = {side: dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       PYTHONPATH=str(trees[side] / "src")) for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        fitted = {side: str(Path(tmp) / f"{side}.npy") for side in SIDES}

        def stage_run(side: str, stage: str) -> str:
            argv = [sys.executable, "-c", LAYERS_SNIPPET, str(LAYER_REPS), stage, fitted[side]]
            return subprocess.run(argv, env=envs[side], stdout=subprocess.PIPE, text=True,
                                  check=True).stdout

        for side in SIDES:
            stage_run(side, "fit")
        for number in range(LAYER_ROUNDS):
            for stage in LAYER_STAGES:
                for side in (SIDES if number % 2 == 0 else SIDES[::-1]):
                    line = stage_run(side, stage).strip().splitlines()[-1]
                    per_side[side][stage].append(json.loads(line))
    out = {"what": f"{LAYER_REPS} timed calls after one warm-up, in one fresh process per side, "
                   f"stage and round (no stage runs after another in one process), "
                   f"{LAYER_ROUNDS} rounds alternating which side runs first; the ranking and "
                   "scoring stages load the metrics that one earlier process per side fitted; "
                   "[min, median] ms of each round, BLAS 1 thread"}
    for stage in LAYER_STAGES:
        medians = {side: statistics.median(r[1] for r in per_side[side][stage]) for side in SIDES}
        out[stage] = {**{side: per_side[side][stage] for side in SIDES},
                      "change_over_parent_median": round(medians["change"] / medians["parent"], 3)}
    out["scale"] = scale(trees)
    return out


def scale(trees: dict) -> dict:
    out = {"what": f"build_pairs (max_pairs 200) and train (10 iterations) on normalized gen-data labeled data, "
                   f"d=20, 3 classes: [min, median] ms of {SCALE_REPS} untraced calls and the "
                   "tracemalloc peak (MiB) of one more, one fresh process per side and n, BLAS 1 thread; "
                   f"the parent is not run above n={PARENT_MAX_ROWS} (its pair triangle needs about "
                   "16 GiB at n=32000)"}
    for side in SIDES:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(trees[side] / "src"))
        rows = [n for n in SCALE_ROWS if side == "change" or n <= PARENT_MAX_ROWS]
        out[side] = [json.loads(subprocess.run(
            [sys.executable, "-c", SCALE_SNIPPET, str(n), str(SCALE_REPS)], env=env,
            stdout=subprocess.PIPE, text=True, check=True).stdout.strip().splitlines()[-1]) for n in rows]
        for n in SCALE_ROWS[len(rows):]:
            print(f"scale: parent not run at n={n} (above {PARENT_MAX_ROWS} rows)", file=sys.stderr)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # Trees by directory name only: where they sit is the host's business.
    settings = {"parent": trees["parent"].name, "change": trees["change"].name,
                "workloads": args.workload, "seconds": args.seconds, "traced": args.traced,
                "layers": args.layers}
    report: dict = {"settings": settings,
                    "order": "pairs alternate which side runs first: odd pairs parent first, "
                             "even pairs change first",
                    "workloads": {}}
    correct = True
    for spec in args.workload:
        name, n_pairs, *seed = spec.split(":")
        label = name + (f" --seed {seed[0]}" if seed else "")
        result = run_pairs(trees, name, int(n_pairs), seed[0] if seed else None, args.seconds)
        report["workloads"][label] = result
        correct &= result["all_correct"]
    if args.traced:
        report["traced"] = {}
        for name in dict.fromkeys(spec.split(":")[0] for spec in args.workload):
            report["traced"][name] = traced(trees, name, args.seconds)
            correct &= report["traced"][name]["all_correct"]
    if args.layers:
        report["inprocess_layers"] = layers(trees)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    print(f"all runs correct with no failed op: {correct}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
