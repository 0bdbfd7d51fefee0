"""Command-line front end.

Subcommands: ``gen-data`` (synthetic datasets), ``train`` (metric learning),
``eval`` (k-NN accuracy and rank-correlation against baselines),
``backtest`` (rolling-window top-N portfolio), ``bench-convergence`` (scalar
benchmark with per-iteration bound checks), ``export-plots`` (CSV series
from run artifacts).

Every command is a pure function of its inputs, flags, and seed: re-running
reproduces byte-identical outputs.  Options may also come from a config file
of ``key = value`` lines (``--config``); explicit flags win.  The
``RPDML_OUTPUT_DIR`` environment variable, when set, overrides the output
directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import benchmarks
from .data import (
    SyntheticSpec,
    generate_synthetic,
    generate_synthetic_panel,
    normalize_features,
    read_labeled_csv,
    read_panel_csv,
    write_labeled_csv,
    write_panel_csv,
)
from .errors import ConfigError, DivergedError, NumericError, RpdmlError, require_keys
from .evaluation import (
    backtest_from_predictions,
    euclidean_metric,
    ic_summary,
    knn_accuracy,
    knn_neighbors,
    knn_predict,
    mahalanobis_metric,
    rolling_ic,
    spearman_ic,
    window_predictions,
)
from .metric import W0_MODES, MetricModel, RpdmlConfig, train, train_many
from .solver import step_sum_bounds

logger = logging.getLogger(__name__)

_USAGE_EXIT = 1
_NUMERIC_EXIT = 2

#: Lines of a run's config.txt snapshot that are not options, accepted so a
#: snapshot can be fed back through --config.
_SNAPSHOT_ONLY_KEYS = {"command", "seed"}


class _Parser(argparse.ArgumentParser):
    """argparse with usage-error exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def read_config_file(path: str | Path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {raw!r}")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


# argparse names the type in its message: "invalid finite float value: 'nan'".
_finite_float.__name__ = "finite float"


def _option_type(default):
    """Type of an option, from its default: bools parse strictly, floats must
    be finite, None takes a string."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, float):
        return _finite_float
    return str if default is None else type(default)


def _layer_options(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags (flags win).

    A file value is cast by its option's type and checked against the
    choices the command's parser holds (``args.choices``), as a flag is.
    """
    file_cfg = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - set(defaults) - _SNAPSHOT_ONLY_KEYS)
    if unknown:
        raise ConfigError(f"unknown key(s) in config file {args.config}: {', '.join(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            try:
                value = _option_type(default)(file_cfg[key])
                if key in args.choices and value not in args.choices[key]:
                    raise ValueError(f"{value!r} is not one of {', '.join(args.choices[key])}")
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key} in config file {args.config}: {exc}") from exc
            resolved[key] = value
        else:
            resolved[key] = default
    return resolved


def _check_inputs(*paths) -> None:
    for p in paths:
        if not Path(p).exists():
            raise ConfigError(f"input path does not exist: {p}")


def _resolve_outdir(args: argparse.Namespace, default: Path | None = None) -> Path:
    """The run's output directory; it is created only when a file is written."""
    outdir = os.environ.get("RPDML_OUTPUT_DIR") or args.outdir or default
    if outdir is None:
        raise ConfigError("--outdir is required (or set RPDML_OUTPUT_DIR)")
    return Path(outdir)


def _write_snapshot(outdir: Path, command: str, seed: int | None, opts: dict) -> None:
    """Create the output directory and write config.txt, the resolved options."""
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [f"command = {command}"] + ([] if seed is None else [f"seed = {seed}"])
    lines += [f"{key} = {opts[key]}" for key in sorted(opts)]
    (outdir / "config.txt").write_text("\n".join(lines) + "\n")


def _check_ranges(opts: dict, counts=()) -> None:
    """--train-frac in (0, 1] if the command has it; each of ``counts`` at least 1."""
    if not 0.0 < opts.get("train_frac", 1.0) <= 1.0:
        raise ConfigError(f"--train-frac must be in (0, 1], got {opts['train_frac']}")
    for key in counts:
        if opts[key] < 1:
            raise ConfigError(f"--{key.replace('_', '-')} must be at least 1, got {opts[key]}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


# ---------------------------------------------------------------------------
# gen-data

#: Dataset-shape options of gen-data: SyntheticSpec's fields but the seed and
#: the target noise, with its defaults.
_SPEC_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SyntheticSpec)
                  if f.name not in ("seed", "target_noise")}

_GEN_DEFAULTS = dict(kind="labeled", **_SPEC_DEFAULTS, periods=12, assets=40)


def cmd_gen_data(args) -> int:
    opts = _layer_options(args, _GEN_DEFAULTS)
    spec = SyntheticSpec(seed=args.seed, **{k: opts[k] for k in _SPEC_DEFAULTS})
    if opts["kind"] == "labeled":
        dataset, write = generate_synthetic(spec), write_labeled_csv
    else:
        dataset = generate_synthetic_panel(
            spec, periods=opts["periods"], assets_per_period=opts["assets"])
        write = write_panel_csv
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write(dataset, out)
    print(f"wrote {opts['kind']} dataset to {out}")
    return 0


# ---------------------------------------------------------------------------
# train

#: Metric-learning options of train and backtest: RpdmlConfig's init fields
#: but the seed, with its defaults.
_RPDML_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RpdmlConfig)
                   if f.init and f.name != "seed"}

_TRAIN_DEFAULTS = dict(_RPDML_DEFAULTS, normalize=True, train_frac=1.0)


def _rpdml_config(opts: dict, seed: int) -> RpdmlConfig:
    return RpdmlConfig(seed=seed, **{k: opts[k] for k in _RPDML_DEFAULTS})


def _split_dataset(ds, train_frac: float, seed: int):
    n = ds.features.shape[0]
    order = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED))).permutation(n)
    n_train = max(2, int(round(train_frac * n)))
    tr, te = order[:n_train], order[n_train:]
    return (ds.features[tr], ds.labels[tr], ds.targets[tr],
            ds.features[te], ds.labels[te], ds.targets[te])


def cmd_train(args) -> int:
    opts = _layer_options(args, _TRAIN_DEFAULTS)
    _check_ranges(opts)
    config = _rpdml_config(opts, args.seed)
    _check_inputs(args.data)
    outdir = _resolve_outdir(args)
    ds = read_labeled_csv(args.data)
    feats = ds.features
    if opts["train_frac"] < 1.0:
        feats, labels, _, _, _, _ = _split_dataset(ds, opts["train_frac"], args.seed)
    else:
        labels = ds.labels
    if opts["normalize"]:
        feats, _ = normalize_features(feats)
    try:
        model = train(feats, labels, config)
    except DivergedError as exc:
        # A failed run still records what ran and how far it got.
        _write_snapshot(outdir, "train", args.seed, opts)
        _write_jsonl(outdir / "trace.jsonl", (r.to_dict() for r in exc.trace.records))
        raise
    _write_snapshot(outdir, "train", args.seed, opts)
    model.save(outdir / "model.json")
    _write_jsonl(outdir / "trace.jsonl", (r.to_dict() for r in model.trace.records))
    last = model.trace.records[-1] if model.trace.records else None
    print(f"trained metric dim={model.w.dim} iters={len(model.trace)}")
    if last is not None:
        print(
            f"violation: initial {model.trace.initial_violation:.4g} -> final {last.violation:.4g}"
        )
    print(f"artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# eval

_EVAL_DEFAULTS = dict(
    metric="learned", k=10, train_frac=0.5, normalize=True, model=None,
)


def cmd_eval(args) -> int:
    opts = _layer_options(args, _EVAL_DEFAULTS)
    if opts["metric"] == "learned" and not opts["model"]:
        raise ConfigError("--model is required for --metric learned")
    _check_ranges(opts, ("k",))
    _check_inputs(args.data, *([opts["model"]] if opts["metric"] == "learned" else []))
    provider = make_metric_provider(opts["metric"], opts, args.seed)
    outdir = _resolve_outdir(args)
    xtr, ytr, ttr, xte, yte, tte = _split_dataset(
        read_labeled_csv(args.data), opts["train_frac"], args.seed)
    if len(yte) < 2:
        raise ConfigError("test split too small; lower --train-frac")
    if opts["normalize"]:
        xtr, stats = normalize_features(xtr)
        xte = stats.apply(xte)
    w, = provider([(xtr, ttr)])
    k = opts["k"]
    # One ranking serves both the accuracy and the IC.
    neighbors = knn_neighbors(w, xtr, xte, k)
    acc = knn_accuracy(ytr, neighbors, yte)
    ic = spearman_ic(knn_predict(ttr, neighbors), tte)
    metrics = {
        "metric": opts["metric"],
        "k": k,
        "n_train": int(len(ytr)),
        "n_test": int(len(yte)),
        "knn_accuracy": acc,
        "spearman_ic": ic,
    }
    _write_snapshot(outdir, "eval", args.seed, opts)
    _write_json(outdir / "metrics.json", metrics)
    print(f"metric={opts['metric']} k={k}: accuracy={acc:.4f} IC={ic:.4f}")
    print(f"artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# backtest

#: A backtest trains one metric per window, so its runs are shorter.
_BACKTEST_DEFAULTS = dict(
    _RPDML_DEFAULTS, iters=60, metric="rpdml", k=10, top_n=10, mdd_window=4, normalize=True,
)


def make_metric_provider(name: str, opts: dict, seed: int):
    """Metric factory of eval and of the backtest's windows: ``euclidean``,
    ``mahalanobis``, ``learned`` (the model file ``opts["model"]``), or (any
    other name) ``rpdml``, trained on the features it is given with one
    ``RpdmlConfig``, built and checked here, before any window runs.  The
    provider maps a list of (features, targets) windows to their metrics."""
    if name == "euclidean":
        return lambda windows: [euclidean_metric(feats) for feats, _ in windows]
    if name == "mahalanobis":
        return lambda windows: [mahalanobis_metric(feats) for feats, _ in windows]
    if name == "learned":
        w = MetricModel.load(opts["model"]).w

        def learned(windows):
            for feats, _ in windows:
                if w.dim != feats.shape[1]:
                    raise ConfigError(f"model dim {w.dim} != data dim {feats.shape[1]}")
            return [w] * len(windows)
        return learned

    config = _rpdml_config(opts, seed)

    def provider(windows):
        # Two groups per window: assets above / below its median return, np.median's value (the
        # mean of the one or two middle sorted returns) from the window's own sort.
        return train_many([(f, (r > np.sort(r)[(len(r) - 1) // 2:len(r) // 2 + 1].mean()).astype(int))
                           for f, r in windows], config)
    return provider


def cmd_backtest(args) -> int:
    opts = _layer_options(args, _BACKTEST_DEFAULTS)
    _check_ranges(opts, ("k", "top_n", "mdd_window"))
    provider = make_metric_provider(opts["metric"], opts, args.seed)
    _check_inputs(args.data)
    outdir = _resolve_outdir(args)
    panel = read_panel_csv(args.data)
    k, top_n = opts["k"], opts["top_n"]
    # One pass fits each window's metric once; the portfolio and the IC
    # series both come from the same predictions.
    preds = window_predictions(panel, provider, k=k, normalize=opts["normalize"])
    result = backtest_from_predictions(preds, top_n, mdd_window=opts["mdd_window"])
    ics = rolling_ic(preds)
    summary = ic_summary(ics)
    undefined = [label for label, ic in ics if ic is None]
    if undefined:
        print(f"IC undefined (constant predictions or returns), left out: {', '.join(undefined)}")
    res = result.to_json_dict()
    _write_snapshot(outdir, "backtest", args.seed, opts)
    (outdir / "result.json").write_text(json.dumps(res) + "\n")
    _write_json(outdir / "metrics.json", {
        "metric": opts["metric"],
        "k": k,
        "top_n": top_n,
        "final_return": res["final_return"],
        "max_drawdown": res["max_drawdown"],
        **summary,
    })
    ic = ("undefined" if summary["ic_mean"] is None
          else f"{summary['ic_mean']:.4f}±{summary['ic_std']:.4f}")
    print(
        f"backtest metric={opts['metric']}: periods={len(result.period_labels)} "
        f"final_return={res['final_return']:.4f} IC={ic}"
    )
    print(f"artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# bench-convergence

_BENCH_DEFAULTS = dict(
    T=500, alpha=benchmarks.TOY_ALPHA, eta0=benchmarks.TOY_ETA0, x0=benchmarks.TOY_X0,
)


def cmd_bench_convergence(args) -> int:
    opts = _layer_options(args, _BENCH_DEFAULTS)
    if not opts["x0"] > 0:
        raise ConfigError(f"--x0 must be positive, got {opts['x0']} (the toy lives on x > 0)")
    outdir = _resolve_outdir(args)
    T = opts["T"]
    lower, upper = step_sum_bounds(T)  # rejects T < 1 before anything is written
    trace, d0_sq = benchmarks.run_toy(T, alpha=opts["alpha"], eta0=opts["eta0"], x0=opts["x0"])
    f_star = benchmarks.TOY_OPTIMUM
    rows = benchmarks.convergence_rows(trace, d0_sq, f_star, opts["alpha"])
    _write_snapshot(outdir, "bench-convergence", None, opts)
    _write_jsonl(outdir / "trace.jsonl", rows)
    # The envelope is for the unit schedule 1/sqrt(t+1); check the run's own steps.
    etas = np.array([r.eta for r in trace.records]) / opts["eta0"]
    sums_ok = bool(etas.sum() >= lower and (etas ** 2).sum() <= upper)
    best = trace.records[trace.best_index]
    all_ok = all(r["bound_ok"] for r in rows)
    print(f"benchmark T={T}: oracle f*={f_star:.6f} best f={best.objective:.6f} "
          f"(gap {best.objective - f_star:+.2e})")
    print(f"bound holds on every prefix: {all_ok}; step-sum envelope holds: {sums_ok}")
    print(f"artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# export-plots

def cmd_export_plots(args) -> int:
    run_dir = Path(args.run)
    _check_inputs(run_dir)
    outdir = _resolve_outdir(args, run_dir / "plots")
    # (file name, header, (x, y) rows) of every series the run's artifacts hold.
    series = []
    trace_path = run_dir / "trace.jsonl"
    if trace_path.exists():
        keys = ("f", "h_violation", "dual_norm")
        rows = [require_keys(json.loads(line), ("t",) + keys, f"{trace_path} line {i}")
                for i, line in enumerate(trace_path.read_text().splitlines(), 1) if line]
        series += [(f"{key}.csv", f"t,{key}", [(r[0], r[j]) for r in rows])
                   for j, key in enumerate(keys, 1)]
    result_path = run_dir / "result.json"
    if result_path.exists():
        periods, cumulative, mdd, annual = require_keys(
            json.loads(result_path.read_text()),
            ("periods", "cumulative", "rolling_mdd", "annual_returns"), str(result_path))
        series += [
            ("cumulative.csv", "period,cumulative", zip(periods, cumulative)),
            ("rolling_mdd.csv", "period,rolling_mdd", zip(periods, mdd)),
            ("annual_returns.csv", "year,annual_return", sorted(annual.items())),
        ]
    if not series:
        raise ConfigError(f"nothing to export in {run_dir} (no trace.jsonl or result.json)")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, header, pairs in series:
        # Quoted as CSV needs: a period label may hold a comma or a quote.
        with open(outdir / name, "w", newline="") as fh:
            fh.write(header + "\n")
            csv.writer(fh, lineterminator="\n").writerows((a, repr(b)) for a, b in pairs)
    print(f"wrote {', '.join(name for name, _, _ in series)} to {outdir}")
    return 0


# ---------------------------------------------------------------------------

def _add_options(parser: argparse.ArgumentParser, defaults: dict, choices: dict) -> None:
    """One ``--<key-with-dashes>`` flag per defaults-table key.

    Every flag defaults to None, so ``_layer_options`` can tell an explicit
    flag from an unset one and fall back to the config file.
    """
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            parser.add_argument(flag, type=_option_type(default), choices=choices.get(key))


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by later ones.

    It holds no per-call state: ``parse_args`` makes a fresh namespace, every
    option defaults to None, and the ``func`` and ``choices`` it sets on each
    namespace are only read, so repeated ``main`` calls in one process cannot
    see each other.  Callers must not change it.
    """
    parser = _Parser(prog="rpdml", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    rpdml_choices = {"w0": W0_MODES}

    def add_command(name, help, func, defaults, choices, seed_required=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value config file; flags override it")
        if seed_required:
            p.add_argument("--seed", type=int, required=True, help="PRNG seed (required)")
        _add_options(p, defaults, choices)
        p.set_defaults(func=func, choices=choices)
        return p

    p = add_command("gen-data", "generate a synthetic labeled or panel dataset", cmd_gen_data,
                    _GEN_DEFAULTS, {"kind": ["labeled", "panel"]})
    p.add_argument("--out", required=True, help="output CSV path")

    p = add_command("train", "learn a metric from a labeled dataset", cmd_train,
                    _TRAIN_DEFAULTS, rpdml_choices)
    p.add_argument("--data", required=True)
    p.add_argument("--outdir")

    p = add_command("eval", "k-NN accuracy and IC for a metric", cmd_eval, _EVAL_DEFAULTS,
                    {"metric": ["euclidean", "mahalanobis", "learned"]})
    p.add_argument("--data", required=True)
    p.add_argument("--outdir")

    p = add_command("backtest", "rolling-window top-N portfolio backtest", cmd_backtest,
                    _BACKTEST_DEFAULTS,
                    dict(rpdml_choices, metric=["euclidean", "mahalanobis", "rpdml"]))
    p.add_argument("--data", required=True, help="panel CSV")
    p.add_argument("--outdir")

    p = add_command("bench-convergence", "scalar benchmark with bound checks",
                    cmd_bench_convergence, _BENCH_DEFAULTS, {}, seed_required=False)
    p.add_argument("--outdir")

    p = add_command("export-plots", "emit CSV series from run artifacts", cmd_export_plots,
                    {}, {}, seed_required=False)
    p.add_argument("--run", required=True, help="run directory (train/backtest/bench output)")
    p.add_argument("--outdir")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself (usage errors, --help); surface the code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except (RpdmlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
