#!/usr/bin/env python3
"""Benchmark a change against its parent: perfbench runs in alternating pairs.

Run from anywhere, with two source trees (a checkout of the parent commit
and one of the change):

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload backtest-panel:10 --workload train-desk:6 \\
        --workload eval-large:6 --workload backtest-panel:3:11 \\
        --traced --out BENCH_<pr>.json

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
per op of every traced function.  Those are the BENCH file's per-layer
numbers: the self times of ``metric.pairs``, ``metric.constraints``,
``evaluation.window``, ``evaluation.spearman`` and ``evaluation.portfolio``
come from perfbench's own tracer, so this script runs nothing but each
tree's ``perfbench/run.py`` and pins no interface of the package.

The exit code is 1 when any run fails or does not report
``"correct": true`` with ``"failed": 0``, else 0.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = ("setup_s", "op_s", "peak_rss_mb")
HOST_KEYS = ("nproc", "cpus_usable", "python", "numpy", "scipy", "blas", "blas_threads",
             "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS[:SEED]",
                   help="a perfbench workload, its number of pairs and optionally its seed")
    p.add_argument("--seconds", type=float, default=24.0, help="perfbench --seconds of every run")
    p.add_argument("--traced", action="store_true", help="add one traced run per side and workload")
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


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # Trees by directory name only: where they sit is the host's business.
    settings = {"parent": trees["parent"].name, "change": trees["change"].name,
                "workloads": args.workload, "seconds": args.seconds, "traced": args.traced}
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
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    print(f"all runs correct with no failed op: {correct}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
