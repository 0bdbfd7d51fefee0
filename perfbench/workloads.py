"""The three workloads: inputs made from the seed, their ops, and the checks.

A workload function writes its inputs with ``rpdml.data`` and returns one
``OpSpec`` per distinct CLI command.  The program only ever sees the
written files.  Workloads that train draw several datasets from the seed,
because train time varies by up to 3x between datasets of one shape: a
single dataset per run would make ``op_s`` a property of the seed.

Import this module only after ``rpdml.cli``, so that set-up timing sees
the program's own import first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rpdml import cli, data
from rpdml.manifold import SpdMatrix
from rpdml.metric import MetricModel
from rpdml.solver import RunTrace

MODEL_KEYS = {"dim", "w", "w0", "u", "l"}
TRACE_KEYS = {"t", "eta", "f", "h_violation", "dual_norm",
              "slack_norm", "gamma_norm", "slack_min", "gamma_min"}
EVAL_METRICS_KEYS = {"metric", "k", "n_train", "n_test", "knn_accuracy", "spearman_ic"}
RESULT_KEYS = {"periods", "period_returns", "cumulative", "rolling_mdd", "annual_returns",
               "skipped_periods", "final_return", "max_drawdown"}
BACKTEST_METRICS_KEYS = {"metric", "k", "top_n", "final_return", "max_drawdown",
                         "n_periods", "ic_mean", "ic_std"}

#: Criterion 7's gate: final violation at most half the initial one.
MAX_VIOLATION_RATIO = 0.5
MIN_BACKTEST_WINDOWS = 8


@dataclass(frozen=True)
class OpSpec:
    """One distinct CLI command of a workload and how to check its output."""

    label: str
    argv: list[str]  # without --outdir
    #: artifact file -> keys of its JSON object (of every line, for .jsonl);
    #: None only requires the file.
    artifacts: dict[str, set | None]
    #: (outdir, stdout) -> (problems, values for the record)
    check: Callable[[Path, str], tuple[list[str], dict]]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``rpdml.cli.main`` in process, returning exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def check_artifacts(spec: OpSpec, outdir: Path) -> list[str]:
    problems = []
    for name, keys in spec.artifacts.items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"missing artifact {name}")
            continue
        if keys is None:
            continue
        lines = path.read_text().splitlines() if name.endswith(".jsonl") else [path.read_text()]
        for line in lines:
            got = set(json.loads(line))
            if got != keys:
                problems.append(f"{name} keys {sorted(got)} != {sorted(keys)}")
                break
    return problems


def input_seeds(seed: int, count: int) -> list[int]:
    """Dataset seeds of one run; the first is the workload seed itself."""
    return [seed + 1000 * i for i in range(count)]


def _labeled(seed: int, path: Path, **shape) -> Path:
    data.write_labeled_csv(data.generate_synthetic(data.SyntheticSpec(seed=seed, **shape)), path)
    return path


def _violation_ratio(stdout: str) -> float:
    m = re.search(r"violation: initial (\S+) -> final (\S+)", stdout)
    if m is None:
        return math.inf
    return float(m[2]) / float(m[1])


def _train_check(outdir: Path, stdout: str, iters: int) -> tuple[list[str], dict]:
    problems = []
    ratio = _violation_ratio(stdout)
    if not ratio <= MAX_VIOLATION_RATIO:
        problems.append(f"final/initial violation {ratio:.4g} > {MAX_VIOLATION_RATIO}")
    n_lines = len((outdir / "trace.jsonl").read_text().splitlines())
    if n_lines != iters:
        problems.append(f"trace.jsonl has {n_lines} records, expected {iters}")
    return problems, {"violation_ratio": ratio}


TRAIN_ARTIFACTS = {"config.txt": None, "model.json": MODEL_KEYS, "trace.jsonl": TRACE_KEYS}


# ---------------------------------------------------------------------------
# train-desk: the README train, on several desk-scale datasets.

DESK_SHAPE = dict(samples=200, dim=20, informative_dims=4, noise_scale=3.0)
DESK_INPUTS = 48
DESK_ITERS = 10


def train_desk(seed: int, inputs: Path) -> list[OpSpec]:
    specs = []
    for s in input_seeds(seed, DESK_INPUTS):
        path = _labeled(s, inputs / f"desk-{s}.csv", **DESK_SHAPE)

        def check(outdir, stdout, s=s, path=path):
            problems, record = _train_check(outdir, stdout, DESK_ITERS)
            for metric in ("euclidean", "learned"):
                acc = _heldout_accuracy(s, path, outdir, metric)
                if acc is None:
                    problems.append(f"eval --metric {metric} of the trained model failed")
                record[f"acc_{metric}"] = acc
            return problems, record

        specs.append(OpSpec(
            label=f"data seed {s}",
            argv=["train", "--seed", str(s), "--data", str(path), "--train-frac", "0.5",
                  "--iters", str(DESK_ITERS)],
            artifacts=TRAIN_ARTIFACTS,
            check=check,
        ))
    return specs


def _heldout_accuracy(seed: int, path: Path, train_dir: Path, metric: str) -> float | None:
    """10-NN accuracy on the half that train did not see (eval's split)."""
    outdir = train_dir / f"check-{metric}"
    rc, _ = call_cli(["eval", "--seed", str(seed), "--data", str(path), "--outdir", str(outdir),
                      "--metric", metric, "--model", str(train_dir / "model.json"), "--k", "10"])
    return json.loads((outdir / "metrics.json").read_text())["knn_accuracy"] if rc == 0 else None


def pooled_accuracy_check(records: dict) -> list[str]:
    """Learned 10-NN accuracy at least Euclidean over all held-out halves.

    Pooled over the run's datasets, each with 100 held-out queries.  On a
    single dataset the learned metric can lose by the sampling noise of 100
    queries: by 0.06 at 10 iterations (dataset seed 17010), by up to 0.03
    at the README's 200 (seeds 10 and 24).  A broken metric loses on the
    pool.
    """
    pairs = [(r["acc_learned"], r["acc_euclidean"]) for r in records.values()
             if r["acc_learned"] is not None and r["acc_euclidean"] is not None]
    learned = [l for l, _ in pairs]
    euclidean = [e for _, e in pairs]
    if not learned:
        return []
    mean_l, mean_e = sum(learned) / len(learned), sum(euclidean) / len(euclidean)
    if mean_l >= mean_e:
        return []
    return [f"pooled held-out 10-NN accuracy: learned {mean_l:.4f} < Euclidean {mean_e:.4f} "
            f"over {len(learned)} datasets"]


# ---------------------------------------------------------------------------
# eval-large: 2000 x 2000 k-NN, cycling the three metrics.

EVAL_SHAPE = dict(samples=4000, dim=20, informative_dims=4, noise_scale=3.0)


def eval_large(seed: int, inputs: Path) -> list[OpSpec]:
    path = _labeled(seed, inputs / f"eval-{seed}.csv", **EVAL_SHAPE)
    model = inputs / "model.json"
    dim = EVAL_SHAPE["dim"]
    a = np.random.default_rng(seed).normal(size=(dim, dim)) / math.sqrt(dim)
    gram = a @ a.T
    w = SpdMatrix(0.5 * (gram + gram.T) + 0.1 * np.eye(dim))
    MetricModel(w=w, w0=SpdMatrix.identity(dim), u=1.0, l=2.0,
                trace=RunTrace([], w, 0, 0.0, 0.0)).save(model)

    def check(outdir, stdout, metric):
        m = json.loads((outdir / "metrics.json").read_text())
        problems = []
        if m["metric"] != metric:
            problems.append(f"metrics.json names metric {m['metric']!r}")
        if not 0.0 <= m["knn_accuracy"] <= 1.0:
            problems.append(f"accuracy {m['knn_accuracy']} outside [0, 1]")
        if not math.isfinite(m["spearman_ic"]):
            problems.append(f"IC {m['spearman_ic']} is not finite")
        return problems, {"accuracy": m["knn_accuracy"], "ic": m["spearman_ic"]}

    return [
        OpSpec(
            label=f"metric {metric}",
            argv=["eval", "--seed", str(seed), "--data", str(path), "--train-frac", "0.5",
                  "--k", "10", "--metric", metric]
            + (["--model", str(model)] if metric == "learned" else []),
            artifacts={"config.txt": None, "metrics.json": EVAL_METRICS_KEYS},
            check=lambda outdir, stdout, metric=metric: check(outdir, stdout, metric),
        )
        for metric in ("euclidean", "mahalanobis", "learned")
    ]


# ---------------------------------------------------------------------------
# backtest-panel: 11 short trains and 11 small k-NN windows per op.

PANEL_SHAPE = dict(dim=12, informative_dims=3, noise_scale=3.0)
PANEL_PERIODS, PANEL_ASSETS = 12, 40
PANEL_INPUTS = 8
PANEL_ITERS = 10


def backtest_panel(seed: int, inputs: Path) -> list[OpSpec]:
    specs = []
    for s in input_seeds(seed, PANEL_INPUTS):
        path = inputs / f"panel-{s}.csv"
        panel = data.generate_synthetic_panel(
            data.SyntheticSpec(seed=s, **PANEL_SHAPE),
            periods=PANEL_PERIODS, assets_per_period=PANEL_ASSETS,
        )
        data.write_panel_csv(panel, path)
        specs.append(OpSpec(
            label=f"data seed {s}",
            argv=["backtest", "--seed", str(s), "--data", str(path), "--metric", "rpdml",
                  "--k", "10", "--top-n", "10", "--iters", str(PANEL_ITERS)],
            artifacts={"config.txt": None, "result.json": RESULT_KEYS,
                       "metrics.json": BACKTEST_METRICS_KEYS},
            check=_backtest_check,
        ))
    return specs


def _backtest_check(outdir: Path, stdout: str) -> tuple[list[str], dict]:
    m = json.loads((outdir / "metrics.json").read_text())
    problems = []
    # spearman_ic raises rather than return NaN, so a finite mean means
    # every one of the n_periods ICs is finite.
    if m["n_periods"] < MIN_BACKTEST_WINDOWS or not math.isfinite(m["ic_mean"]):
        problems.append(f"{m['n_periods']} windows, IC mean {m['ic_mean']}: "
                        f"need >= {MIN_BACKTEST_WINDOWS} windows with a finite IC")
    return problems, {"windows": m["n_periods"], "ic_mean": m["ic_mean"]}


WORKLOADS = {
    "train-desk": train_desk,
    "eval-large": eval_large,
    "backtest-panel": backtest_panel,
}

#: Checks over the records of all specs of a run; a problem fails every op.
RUN_CHECKS = {"train-desk": pooled_accuracy_check}
