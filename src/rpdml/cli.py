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
import json
import logging
import os
import sys
from dataclasses import dataclass, field
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
from .errors import ConfigError, NumericError, RpdmlError
from .evaluation import (
    backtest_from_predictions,
    euclidean_metric,
    ic_summary,
    knn_accuracy,
    knn_predict,
    mahalanobis_metric,
    rolling_ic,
    spearman_ic,
    window_predictions,
)
from .metric import MetricModel, RpdmlConfig, train
from .solver import step_sum_bounds

logger = logging.getLogger(__name__)

_USAGE_EXIT = 1
_NUMERIC_EXIT = 2

#: Commands that consume randomness and therefore require --seed.
_STOCHASTIC_COMMANDS = {"gen-data", "train", "eval", "backtest"}

#: Lines of a run's config.txt snapshot that are not options, accepted so a
#: snapshot can be fed back through --config.
_SNAPSHOT_ONLY_KEYS = {"command", "seed"}


@dataclass
class ExperimentConfig:
    """Resolved parameters of one CLI invocation."""

    command: str
    params: dict
    seed: int | None
    input_paths: list[Path] = field(default_factory=list)
    output_dir: Path | None = None

    def validate(self) -> None:
        for p in self.input_paths:
            if not p.exists():
                raise ConfigError(f"input path does not exist: {p}")
        if self.command in _STOCHASTIC_COMMANDS and self.seed is None:
            raise ConfigError(f"--seed is required for {self.command}")

    def snapshot_lines(self) -> list[str]:
        lines = [f"command = {self.command}"]
        if self.seed is not None:
            lines.append(f"seed = {self.seed}")
        for key in sorted(self.params):
            lines.append(f"{key} = {self.params[key]}")
        return lines

    def write_snapshot(self, outdir: Path) -> None:
        (outdir / "config.txt").write_text("\n".join(self.snapshot_lines()) + "\n")


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


def _layer_options(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags (flags win)."""
    file_cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_cfg) - set(defaults) - _SNAPSHOT_ONLY_KEYS)
    if unknown:
        raise ConfigError(f"unknown key(s) in config file {args.config}: {', '.join(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            raw = file_cfg[key]
            caster = type(default) if default is not None else str
            resolved[key] = raw if caster is str else (
                caster(raw) if caster is not bool else raw.lower() in ("1", "true", "yes")
            )
        else:
            resolved[key] = default
    return resolved


def _resolve_outdir(args: argparse.Namespace) -> Path:
    outdir = os.environ.get("RPDML_OUTPUT_DIR") or getattr(args, "outdir", None)
    if outdir is None:
        raise ConfigError("--outdir is required (or set RPDML_OUTPUT_DIR)")
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# gen-data

_GEN_DEFAULTS = dict(
    kind="labeled", classes=2, samples=200, dim=20, informative_dims=4,
    noise_scale=3.0, cluster_sep=2.0, periods=12, assets=40,
)


def cmd_gen_data(args) -> int:
    opts = _layer_options(args, _GEN_DEFAULTS)
    cfg = ExperimentConfig("gen-data", opts, args.seed)
    cfg.validate()
    spec = SyntheticSpec(
        classes=opts["classes"], samples=opts["samples"], dim=opts["dim"],
        informative_dims=opts["informative_dims"], noise_scale=opts["noise_scale"],
        cluster_sep=opts["cluster_sep"], seed=args.seed,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if opts["kind"] == "labeled":
        write_labeled_csv(generate_synthetic(spec), out)
    elif opts["kind"] == "panel":
        write_panel_csv(
            generate_synthetic_panel(spec, periods=opts["periods"], assets_per_period=opts["assets"]),
            out,
        )
    else:
        raise ConfigError(f"unknown dataset kind {opts['kind']!r}")
    print(f"wrote {opts['kind']} dataset to {out}")
    return 0


# ---------------------------------------------------------------------------
# train

_TRAIN_DEFAULTS = dict(
    c1=2.0, c2=1.0, eta0=0.003, iters=200,
    prox_mode="include", w0="identity", max_pairs=200,
    percentile_lo=5.0, percentile_hi=95.0, normalize=True, train_frac=1.0,
)


def _rpdml_config(opts: dict, seed: int, iters: int | None = None) -> RpdmlConfig:
    return RpdmlConfig(
        c1=opts["c1"], c2=opts["c2"], eta0=opts["eta0"],
        outer_iters=int(iters if iters is not None else opts["iters"]),
        percentile_lo=opts["percentile_lo"], percentile_hi=opts["percentile_hi"],
        prox_term_mode=opts["prox_mode"], w0_mode=opts["w0"],
        max_pairs_per_side=int(opts["max_pairs"]), seed=seed,
    )


def _split_dataset(ds, train_frac: float, seed: int):
    n = ds.features.shape[0]
    order = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED))).permutation(n)
    n_train = max(2, int(round(train_frac * n)))
    tr, te = order[:n_train], order[n_train:]
    return (ds.features[tr], ds.labels[tr], ds.targets[tr],
            ds.features[te], ds.labels[te], ds.targets[te])


def cmd_train(args) -> int:
    opts = _layer_options(args, _TRAIN_DEFAULTS)
    cfg = ExperimentConfig("train", opts, args.seed, [Path(args.data)])
    cfg.validate()
    outdir = _resolve_outdir(args)
    cfg.output_dir = outdir
    ds = read_labeled_csv(args.data)
    feats = ds.features
    if opts["train_frac"] < 1.0:
        feats, labels, _, _, _, _ = _split_dataset(ds, opts["train_frac"], args.seed)
    else:
        labels = ds.labels
    if opts["normalize"]:
        feats, _ = normalize_features(feats)
    model = train(feats, labels, _rpdml_config(opts, args.seed))
    cfg.write_snapshot(outdir)
    model.save(outdir / "model.json")
    model.trace.write_jsonl(outdir / "trace.jsonl")
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
    inputs = [Path(args.data)]
    if opts["metric"] == "learned":
        if not opts["model"]:
            raise ConfigError("--model is required for --metric learned")
        inputs.append(Path(opts["model"]))
    cfg = ExperimentConfig("eval", opts, args.seed, inputs)
    cfg.validate()
    outdir = _resolve_outdir(args)
    cfg.output_dir = outdir
    ds = read_labeled_csv(args.data)
    xtr, ytr, ttr, xte, yte, tte = _split_dataset(ds, opts["train_frac"], args.seed)
    if len(yte) < 2:
        raise ConfigError("test split too small; lower --train-frac")
    if opts["normalize"]:
        xtr, stats = normalize_features(xtr)
        xte = stats.apply(xte)
    if opts["metric"] == "euclidean":
        w = euclidean_metric(xtr)
    elif opts["metric"] == "mahalanobis":
        w = mahalanobis_metric(xtr)
    elif opts["metric"] == "learned":
        w = MetricModel.load(opts["model"]).w
        if w.dim != xtr.shape[1]:
            raise ConfigError(f"model dim {w.dim} != data dim {xtr.shape[1]}")
    else:
        raise ConfigError(f"unknown metric {opts['metric']!r}")
    k = int(opts["k"])
    acc = knn_accuracy(w, xtr, ytr, xte, yte, k)
    preds = np.array([knn_predict(w, xtr, ttr, q, k) for q in xte])
    ic = spearman_ic(preds, tte)
    metrics = {
        "metric": opts["metric"],
        "k": k,
        "n_train": int(len(ytr)),
        "n_test": int(len(yte)),
        "knn_accuracy": acc,
        "spearman_ic": ic,
    }
    cfg.write_snapshot(outdir)
    _write_json(outdir / "metrics.json", metrics)
    print(f"metric={opts['metric']} k={k}: accuracy={acc:.4f} IC={ic:.4f}")
    print(f"artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# backtest

_BACKTEST_DEFAULTS = dict(
    metric="rpdml", k=10, top_n=10, mdd_window=4, normalize=True,
    c1=2.0, c2=1.0, eta0=0.003, iters=60,
    prox_mode="include", w0="identity", max_pairs=200,
    percentile_lo=5.0, percentile_hi=95.0,
)


def make_metric_provider(name: str, opts: dict, seed: int):
    """Window-level metric factory for the backtest."""
    if name == "euclidean":
        return lambda feats, rets: euclidean_metric(feats)
    if name == "mahalanobis":
        return lambda feats, rets: mahalanobis_metric(feats)
    if name == "rpdml":
        def provider(feats, rets):
            # Two groups: assets above / below the window's median return.
            labels = (rets > np.median(rets)).astype(int)
            return train(feats, labels, _rpdml_config(opts, seed)).w
        return provider
    raise ConfigError(f"unknown metric {name!r}")


def cmd_backtest(args) -> int:
    opts = _layer_options(args, _BACKTEST_DEFAULTS)
    cfg = ExperimentConfig("backtest", opts, args.seed, [Path(args.data)])
    cfg.validate()
    outdir = _resolve_outdir(args)
    cfg.output_dir = outdir
    panel = read_panel_csv(args.data)
    provider = make_metric_provider(opts["metric"], opts, args.seed)
    k, top_n = int(opts["k"]), int(opts["top_n"])
    # One pass fits each window's metric once; the portfolio and the IC
    # series both come from the same predictions.
    preds = list(window_predictions(panel, provider, k=k, normalize=opts["normalize"]))
    result = backtest_from_predictions(panel, preds, top_n, mdd_window=int(opts["mdd_window"]))
    summary = ic_summary(rolling_ic(preds))
    cfg.write_snapshot(outdir)
    result.save(outdir / "result.json")
    _write_json(outdir / "metrics.json", {
        "metric": opts["metric"],
        "k": k,
        "top_n": top_n,
        "final_return": result.to_json_dict()["final_return"],
        "max_drawdown": result.to_json_dict()["max_drawdown"],
        **summary,
    })
    print(
        f"backtest metric={opts['metric']}: periods={len(result.period_labels)} "
        f"final_return={result.to_json_dict()['final_return']:.4f} "
        f"IC={summary['ic_mean']:.4f}±{summary['ic_std']:.4f}"
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
    cfg = ExperimentConfig("bench-convergence", opts, None)
    cfg.validate()
    outdir = _resolve_outdir(args)
    cfg.output_dir = outdir
    T = int(opts["T"])
    trace = benchmarks.run_toy(T, alpha=opts["alpha"], eta0=opts["eta0"], x0=opts["x0"])
    f_star = benchmarks.grid_search_optimum()
    rows = benchmarks.convergence_rows(trace, f_star, opts["alpha"], x0=opts["x0"])
    cfg.write_snapshot(outdir)
    trace.write_jsonl(outdir / "trace.jsonl", rows=rows)
    lower, upper = step_sum_bounds(T)
    etas = np.array([1.0 / np.sqrt(t + 1) for t in range(T)])
    sums_ok = bool(etas.sum() >= lower and (etas ** 2).sum() <= upper)
    best = trace.best_record
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
    cfg = ExperimentConfig("export-plots", {"run": str(run_dir)}, None, [run_dir])
    cfg.validate()
    outdir = Path(os.environ.get("RPDML_OUTPUT_DIR") or args.outdir or (run_dir / "plots"))
    outdir.mkdir(parents=True, exist_ok=True)
    wrote = []
    trace_path = run_dir / "trace.jsonl"
    if trace_path.exists():
        rows = [json.loads(line) for line in trace_path.read_text().splitlines() if line]
        for key in ("f", "h_violation", "dual_norm"):
            path = outdir / f"{key}.csv"
            with open(path, "w") as fh:
                fh.write(f"t,{key}\n")
                for r in rows:
                    fh.write(f"{r['t']},{r[key]!r}\n")
            wrote.append(path.name)
    result_path = run_dir / "result.json"
    if result_path.exists():
        res = json.loads(result_path.read_text())
        series = [
            ("cumulative.csv", "period,cumulative", zip(res["periods"], res["cumulative"])),
            ("rolling_mdd.csv", "period,rolling_mdd", zip(res["periods"], res["rolling_mdd"])),
            ("annual_returns.csv", "year,annual_return", sorted(res["annual_returns"].items())),
        ]
        for name, header, rows_ in series:
            path = outdir / name
            with open(path, "w") as fh:
                fh.write(header + "\n")
                for a, b in rows_:
                    fh.write(f"{a},{b!r}\n")
            wrote.append(path.name)
    if not wrote:
        raise ConfigError(f"nothing to export in {run_dir} (no trace.jsonl or result.json)")
    print(f"wrote {', '.join(wrote)} to {outdir}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="rpdml", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_required=True):
        p.add_argument("--config", help="key=value config file; flags override it")
        if seed_required:
            p.add_argument("--seed", type=int, required=True, help="PRNG seed (required)")

    p = sub.add_parser("gen-data", help="generate a synthetic labeled or panel dataset")
    add_common(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--kind", choices=["labeled", "panel"])
    for name in ("classes", "samples", "dim", "informative-dims", "periods", "assets"):
        p.add_argument(f"--{name}", type=int, dest=name.replace("-", "_"))
    p.add_argument("--noise-scale", type=float, dest="noise_scale")
    p.add_argument("--cluster-sep", type=float, dest="cluster_sep")
    p.set_defaults(func=cmd_gen_data)

    def add_rpdml_flags(p):
        p.add_argument("--c1", type=float)
        p.add_argument("--c2", type=float)
        p.add_argument("--eta0", type=float)
        p.add_argument("--iters", type=int)
        p.add_argument("--prox-mode", choices=["include", "omit"], dest="prox_mode")
        p.add_argument("--w0", choices=["identity", "inverse_covariance"])
        p.add_argument("--max-pairs", type=int, dest="max_pairs")
        p.add_argument("--percentile-lo", type=float, dest="percentile_lo")
        p.add_argument("--percentile-hi", type=float, dest="percentile_hi")

    p = sub.add_parser("train", help="learn a metric from a labeled dataset")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--outdir")
    p.add_argument("--train-frac", type=float, dest="train_frac")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=None)
    add_rpdml_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="k-NN accuracy and IC for a metric")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--outdir")
    p.add_argument("--metric", choices=["euclidean", "mahalanobis", "learned"])
    p.add_argument("--model", help="model.json for --metric learned")
    p.add_argument("--k", type=int)
    p.add_argument("--train-frac", type=float, dest="train_frac")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("backtest", help="rolling-window top-N portfolio backtest")
    add_common(p)
    p.add_argument("--data", required=True, help="panel CSV")
    p.add_argument("--outdir")
    p.add_argument("--metric", choices=["euclidean", "mahalanobis", "rpdml"])
    p.add_argument("--k", type=int)
    p.add_argument("--top-n", type=int, dest="top_n")
    p.add_argument("--mdd-window", type=int, dest="mdd_window")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=None)
    add_rpdml_flags(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("bench-convergence", help="scalar benchmark with bound checks")
    add_common(p, seed_required=False)
    p.add_argument("--outdir")
    p.add_argument("--T", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--eta0", type=float)
    p.add_argument("--x0", type=float)
    p.set_defaults(func=cmd_bench_convergence)

    p = sub.add_parser("export-plots", help="emit CSV series from run artifacts")
    add_common(p, seed_required=False)
    p.add_argument("--run", required=True, help="run directory (train/backtest/bench output)")
    p.add_argument("--outdir")
    p.set_defaults(func=cmd_export_plots)

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
