"""One workload process: set up, run the ops for the measuring window, check.

``run.py`` starts this script once per set-up probe (``--probe``: set up,
report, exit) and once for the measured run.  It passes the monotonic time
at which it spawned the process, so set-up time covers interpreter start
and ``import rpdml.cli``.  The last line of stdout is one JSON object.

One op is one ``rpdml.cli.main(argv)`` call with stdout captured.  Ops
cycle through the workload's op specs until ``--seconds`` have passed and
every spec has run, one of them twice.  With ``--trace 1`` every op runs
untraced and then traced, for at least ``TRACED_MIN_ROUNDS`` pairs.

After each op the reference kernel (``reference.py``) runs once per
``KERNEL_EVERY_S`` of op time, at least once, so its mean time over the
run weighs the run's moments as the ops' wall times do.  ``op_s`` is the
ops' wall time at the host speed where the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

#: Start no new op after this long, so the process ends well within 180 s.
HARD_STOP_S = 120.0
#: Fewest (untraced, traced) op pairs in a traced run.
TRACED_MIN_ROUNDS = 3
#: The reference kernel runs once per this much op wall time.
KERNEL_EVERY_S = 1.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--probe", action="store_true", help="set up, report set-up time, exit")
    return p.parse_args(argv)


def set_up(args):
    t0 = time.perf_counter()
    import rpdml.cli  # noqa: F401  (timed: every CLI command pays this import)
    import_s = time.perf_counter() - t0
    import workloads

    inputs = args.workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    t1 = time.perf_counter()
    specs = workloads.WORKLOADS[args.workload](args.seed, inputs)
    generate_s = time.perf_counter() - t1
    setup_s = time.monotonic() - args.spawned_at
    return specs, {"setup_s": setup_s, "cli.import_s": import_s, "data.generate_s": generate_s}


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def digests(spec, outdir: Path) -> dict:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in spec.artifacts if (outdir / name).is_file()}


class OpRunner:
    """Runs ops, checks each one, and keeps their wall times."""

    def __init__(self, specs, workdir: Path, tracer=None):
        from rpdml import cli
        import reference
        import workloads

        self._main = cli.main
        self._time_kernel = reference.time_kernel
        self._check_artifacts = workloads.check_artifacts
        self.specs = specs
        self.workdir = workdir
        self.tracer = tracer
        self.ops: list[dict] = []
        self.kernel_s: list[float] = []  # reference kernel times, after each op
        self.failures: list[str] = []
        self.records: dict[str, dict] = {}
        self._first: dict[int, dict] = {}  # spec index -> artifact digests
        self._spec_ok: dict[int, bool] = {}

    def run(self, idx: int, traced: bool = False) -> None:
        spec = self.specs[idx]
        op_id = len(self.ops)
        outdir = self.workdir / "ops" / str(op_id)
        argv = spec.argv + ["--outdir", str(outdir)]
        buf = io.StringIO()
        problems = []
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                span = self.tracer.begin_op(op_id) if traced else None
                try:
                    rc = self._main(argv)
                finally:
                    if traced:
                        self.tracer.end_op(span)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            problems.append(f"raised {type(exc).__name__}: {exc}")
        else:
            if rc != 0:
                problems.append(f"exit code {rc}")
        wall = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        self.kernel_s.extend(self._time_kernel() for _ in range(max(1, round(wall / KERNEL_EVERY_S))))

        if not problems:
            problems = self._check(idx, outdir, buf.getvalue())
        shutil.rmtree(outdir, ignore_errors=True)
        self.ops.append({"spec": idx, "wall": wall, "traced": traced, "failed": bool(problems)})
        if problems:
            self.failures.append(f"op {op_id} ({spec.label}): {'; '.join(problems)}")

    def _check(self, idx, outdir, stdout) -> list[str]:
        spec = self.specs[idx]
        problems = self._check_artifacts(spec, outdir)
        if problems:
            return problems
        got = digests(spec, outdir)
        if idx not in self._first:
            # Later ops of this spec must reproduce these bytes, so the
            # output checks run once per spec.
            self._first[idx] = got
            spec_problems, record = spec.check(outdir, stdout)
            self._spec_ok[idx] = not spec_problems
            self.records[spec.label] = record
            return spec_problems
        if got != self._first[idx]:
            changed = sorted(k for k in got if got[k] != self._first[idx].get(k))
            return [f"artifacts {changed} differ from the first op with the same flags"]
        if not self._spec_ok[idx]:
            return ["reproduces the output of an op that failed its checks"]
        return []

    def wall_s(self, traced: bool) -> float:
        """Mean over specs of each spec's median op wall time."""
        walls: dict[int, list[float]] = {}
        for op in self.ops:
            if op["traced"] == traced:
                walls.setdefault(op["spec"], []).append(op["wall"])
        return statistics.fmean(statistics.median(w) for w in walls.values())


def measure(args, specs, runner: OpRunner, spawned_at: float) -> None:
    n = len(specs)
    # Untraced: every spec once and one of them twice.  Traced: each round
    # is an untraced and a traced op of one spec, and per-layer numbers need
    # only a few specs.
    min_rounds = min(n, TRACED_MIN_ROUNDS) if args.trace else n + 1
    start = time.perf_counter()
    i = 0
    while True:
        runner.run(i % n)
        if args.trace:
            runner.run(i % n, traced=True)
        i += 1
        if i >= min_rounds and time.perf_counter() - start >= args.seconds:
            break
        if time.monotonic() - spawned_at >= HARD_STOP_S:
            break


def main(argv=None) -> int:
    args = parse_args(argv)
    specs, setup = set_up(args)
    if args.probe:
        print(json.dumps({"setup": setup}))
        return 0

    import reference
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    runner = OpRunner(specs, args.workdir, tracer)
    measure(args, specs, runner, args.spawned_at)
    run_check = workloads.RUN_CHECKS.get(args.workload)
    run_problems = run_check(runner.records) if run_check else []
    if run_problems:
        for op in runner.ops:
            op["failed"] = True
        runner.failures.extend(f"all ops: {p}" for p in run_problems)

    untraced = [op for op in runner.ops if not op["traced"]]
    wall_s = runner.wall_s(traced=False)
    kernel_s = statistics.fmean(runner.kernel_s)
    result = {
        "setup": setup,
        "attempted": len(runner.ops),
        "failed": sum(op["failed"] for op in runner.ops),
        "failures": runner.failures,
        "op_s": wall_s * reference.NOMINAL_S / kernel_s,
        "wall_s": wall_s,
        "kernel_s": kernel_s,
        "kernel_runs": len(runner.kernel_s),
        "kernel_nominal_s": reference.NOMINAL_S,
        "ops_untraced": len(untraced),
        "specs": [s.label for s in specs],
        "ops_per_spec": [sum(op["spec"] == i for op in untraced) for i in range(len(specs))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": runner.records,
        "env": environment(),
    }
    if tracer is not None:
        traced = [op for op in runner.ops if op["traced"]]
        walls = {op_id: op["wall"] for op_id, op in enumerate(runner.ops) if op["traced"]}
        min_self, min_remainder = tracing.op_remainders(tracer.spans, walls)
        layers = tracing.layer_metrics(tracer, len(traced))
        layers["trace.op_s"] = runner.wall_s(traced=True)
        layers["trace.overhead"] = layers["trace.op_s"] / wall_s
        result["per_layer"] = layers
        result["trace_check"] = {
            "ops": len(traced),
            "spans": len(tracer.spans),
            "min_self_s": min_self,
            "min_remainder_s": min_remainder,
        }
        tracer.write(args.workdir.parent / f"{args.workload}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
