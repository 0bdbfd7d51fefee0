#!/usr/bin/env python3
"""rpdml benchmark: three seeded CLI workloads, per-layer numbers traced from outside.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-desk --seed 7 --seconds 24 --trace 0

Each run starts fresh Python processes with BLAS pinned to one thread:
``PROBES`` set-up probes, then the measured process, which sets up the same
way and runs ops through ``rpdml.cli.main`` for ``--seconds``, checking
every op's output.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see ``tracing.py``).
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Inputs, op outputs and the run record go under ``.perfbench/`` in the
checkout; the spans of the last traced run of a workload are kept in
``.perfbench/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload seeds of the documented shapes, used when --seed is not given.
DEFAULT_SEEDS = {"train-desk": 7, "eval-large": 11, "backtest-panel": 3}

#: Set-up runs before the measured process; set-up time is the median of
#: these and the measured process's own set-up.
PROBES = 2
#: Every process must end, and this script with it, within 180 s.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric -> unit.  Calls and self times are means per traced op.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "data.generate_s": "s",
    "data.read_csv.self_s": "s",
    "data.normalize.calls": "count",
    "data.normalize.self_s": "s",
    "manifold.eigendecompose.calls": "count",
    "manifold.eigendecompose.self_s": "s",
    "manifold.eigendecompose_per_iter": "count/iter",
    "manifold.retract.calls": "count",
    "manifold.retract.self_s": "s",
    "manifold.inverse.calls": "count",
    "manifold.inverse.self_s": "s",
    "manifold.rowwise_quadratic.calls": "count",
    "manifold.rowwise_quadratic.self_s": "s",
    "manifold.rowwise_quadratic.gflops": "GFLOP/s",
    "solver.outer_iters": "count",
    "solver.bookkeeping.self_s": "s",
    "metric.train.calls": "count",
    "metric.train.self_s": "s",
    "metric.inner_solve.calls": "count",
    "metric.inner_solve.self_s": "s",
    "metric.retracts_per_inner_solve": "count/solve",
    "metric.constraints.self_s": "s",
    "metric.dual_update.self_s": "s",
    "metric.pairs.self_s": "s",
    "evaluation.knn.calls": "count",
    "evaluation.knn.self_s": "s",
    "evaluation.query_ms.p50": "ms",
    "evaluation.query_ms.p99": "ms",
    "evaluation.window_s.p50": "s",
    "evaluation.window.self_s": "s",
    "evaluation.spearman.self_s": "s",
    "evaluation.portfolio.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    p.add_argument("--seed", type=int, help="workload seed (default: the documented one)")
    p.add_argument("--seconds", type=float, default=24.0, help="length of the measuring window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    # RPDML_OUTPUT_DIR overrides --outdir: every op would write one directory
    # and the byte-identity check would compare a file with itself.
    env.pop("RPDML_OUTPUT_DIR", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(args, workdir: Path, deadline: float, probe: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if probe:
        cmd.append("--probe")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=deadline - spawned_at)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        # Without this, git would report the commit of an enclosing repository.
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_bases(layers: dict, untraced_wall_s: float) -> dict:
    """The base printed beside each ratio."""
    iters = layers["solver.outer_iters"]
    return {
        "manifold.eigendecompose_per_iter":
            f"{layers['manifold.eigendecompose.calls']:.6g} calls / {iters:.6g} outer iterations per op",
        "metric.retracts_per_inner_solve":
            f"{layers['manifold.retract.calls']:.6g} retractions / {layers['metric.inner_solve.calls']:.6g} "
            "inner solves per op",
        "manifold.rowwise_quadratic.gflops":
            "computed: (2nd^2 + 2nd) flops per call on n rows of dim d, over its self time",
        "trace.overhead":
            f"traced op wall {layers['trace.op_s']:.6g} s / untraced op wall {untraced_wall_s:.6g} s, "
            "both unscaled",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rpdml" / "cli.py").is_file():
        print(f"error: no rpdml sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".perfbench"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = [spawn(args, workdir, deadline, probe=True)["setup"] for _ in range(PROBES)]
        result = spawn(args, workdir, deadline, probe=False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup"])

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    attempted, failed = result["attempted"], result["failed"]
    trace_ok = True
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        **result["env"],
        "ops": {"attempted": attempted, "failed": failed, "untraced": result["ops_untraced"],
                "per_spec": dict(zip(result["specs"], result["ops_per_spec"]))},
        "setups": setups,
        "records": result["records"],
    }
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops over "
          f"{len(result['specs'])} specs, {failed} failed")
    for key in ("commit", "nproc", "cpus_usable", "python", "numpy", "scipy", "blas", "blas_threads",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        print(f"  {key}: {record[key]}")
    for label, rec in result["records"].items():
        print(f"  record {label}: " + ", ".join(
            f"{k}={v:.4g}" if isinstance(v, (int, float)) else f"{k}={v}" for k, v in rec.items()))
    for line in result["failures"]:
        print(f"  FAILED {line}")

    if args.trace:
        layers = dict(result["per_layer"])
        layers["cli.import_s"] = setup_median("cli.import_s")
        layers["data.generate_s"] = setup_median("data.generate_s")
        check = result["trace_check"]
        trace_ok = check["min_self_s"] >= 0 and check["min_remainder_s"] >= 0
        print(f"per-layer (calls and self times are means per traced op over {check['ops']} ops, "
              f"{check['spans']} spans):")
        bases = per_layer_bases(layers, result["wall_s"])
        for name, unit in PER_LAYER.items():
            note = f"  ({bases[name]})" if name in bases else ""
            print(f"  {name} = {layers[name]:.6g} {unit}{note}")
        print(f"  span check: smallest self time {check['min_self_s']:.3g} s, smallest op wall minus "
              f"summed self times {check['min_remainder_s']:.3g} s ({'ok' if trace_ok else 'NEGATIVE'})")
        metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": setup_median("setup_s"), "op_s": result["op_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        notes = {
            "setup_s": "median of {} set-ups: {}".format(
                len(setups), ", ".join(f"{s['setup_s']:.3f}" for s in setups)),
            "op_s": f"wall {result['wall_s']:.6g} s (mean over {len(result['specs'])} specs of each spec's "
                    f"median op, {result['ops_untraced']} ops) x {result['kernel_nominal_s']} s / "
                    f"{result['kernel_s']:.6g} s (mean of {result['kernel_runs']} reference kernel runs)",
            "peak_rss_mb": "peak RSS of the measured process",
        }
        print("end-to-end:")
        for name, unit in END_TO_END.items():
            print(f"  {name} = {values[name]:.6g} {unit}  ({notes[name]})")
        print(f"  fail_ratio = {failed / attempted:.6g} ratio  ({failed} failed / {attempted} attempted)")
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}

    record["metrics"] = metrics
    (base / f"{args.workload}.run.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0 and trace_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
