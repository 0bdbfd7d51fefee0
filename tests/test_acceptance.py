"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Heavy artifacts (benchmark traces, trained models) are built
once in module-scoped fixtures and shared across criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from rpdml.benchmarks import TOY_ALPHA, run_toy, scalar_toy_problem
from rpdml.cli import main as cli_main
from rpdml.data import (
    PanelDataset,
    PanelPeriod,
    SyntheticSpec,
    generate_synthetic,
    generate_synthetic_panel,
    normalize_features,
)
from rpdml.evaluation import (
    accumulated_return,
    backtest_from_predictions,
    euclidean_metric,
    ic_summary,
    knn_accuracy,
    max_drawdown,
    rolling_ic,
    window_predictions,
)
from rpdml.manifold import EPS_PD, SpdMatrix, logdet_divergence, retract
from rpdml.metric import (
    PairConstraints,
    RpdmlConfig,
    inner_gradient,
    inner_objective,
    train,
)
from rpdml.solver import (
    estimate_bound_params,
    select_best_index,
    suboptimality_bound,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def rand_spd(n, rng, lo=0.3, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return SpdMatrix(q @ np.diag(rng.uniform(lo, hi, n)) @ q.T)


# Brute-force optimum of the toy problem, computed independently here.
# Integer-indexed grid (x = k / 10^4) so the boundary point 1.0 is exact.
def grid_search_f_star(steps_per_unit=10 ** 4, hi=3.0):
    best = math.inf
    for k in range(1, int(hi * steps_per_unit) + 1):
        x = k / steps_per_unit
        if x <= 1.0:
            best = min(best, (x - 2.0) ** 2)
    return best


F_STAR = 1.0  # frozen from grid_search_f_star(); re-verified in criterion 3


@pytest.fixture(scope="module")
def toy_trace_500():
    t0 = time.perf_counter()
    trace = run_toy(500)
    return trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def toy_trace_2000():
    t0 = time.perf_counter()
    trace = run_toy(2000)
    return trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def efficacy_artifacts():
    """Criterion 7 workload: seeded dataset, split, normalized, trained."""
    t0 = time.perf_counter()
    spec = SyntheticSpec(classes=2, samples=200, dim=20, informative_dims=4,
                         noise_scale=3.0, seed=7)
    ds = generate_synthetic(spec)
    xtr_raw, ytr = ds.features[:100], ds.labels[:100]
    xte_raw, yte = ds.features[100:], ds.labels[100:]
    xtr, stats = normalize_features(xtr_raw)
    xte = stats.apply(xte_raw)
    model = train(xtr, ytr, RpdmlConfig(outer_iters=200, seed=7))
    return dict(xtr=xtr, ytr=ytr, xte=xte, yte=yte, model=model,
                elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def panel_ic_artifacts():
    """Criterion 8 workload: synthetic panel, per-window metrics, ICs."""
    t0 = time.perf_counter()
    spec = SyntheticSpec(dim=12, informative_dims=3, noise_scale=3.0, seed=3)
    panel = generate_synthetic_panel(spec, periods=12, assets_per_period=40)
    traces = []

    def rpdml_provider(feats, rets):
        labels = (rets > np.median(rets)).astype(int)
        model = train(feats, labels, RpdmlConfig(outer_iters=60, seed=3))
        traces.append(model.trace)
        return model.w

    ic_rpdml = rolling_ic(window_predictions(panel, rpdml_provider, k=10))
    ic_eucl = rolling_ic(window_predictions(panel, lambda f, r: euclidean_metric(f), k=10))
    return dict(ic_rpdml=ic_rpdml, ic_eucl=ic_eucl, traces=traces,
                elapsed=time.perf_counter() - t0)


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    h = 1e-5
    for idx in range(20):
        n = 3 if idx < 10 else 5
        mode = "include" if idx % 2 == 0 else "omit"
        w, w0, w_t = rand_spd(n, rng), rand_spd(n, rng), rand_spd(n, rng)
        pc = PairConstraints(rng.normal(size=(4, n)), rng.normal(size=(5, n)), u=1.0, l=3.0)
        lam = rng.uniform(0.0, 2.0, 9)
        grad = inner_gradient(w.mat, w_t, lam, w0, 0.3, pc, mode)
        fd = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = h
                fd[i, j] = (
                    inner_objective(w.mat + e, w_t, lam, w0, 0.3, pc, mode)
                    - inner_objective(w.mat - e, w_t, lam, w0, 0.3, pc, mode)
                ) / (2 * h)
        rel = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    _report(1, "gradient oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_manifold_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    min_eig = math.inf
    max_asym = 0.0
    for _ in range(1000):
        w = rand_spd(5, rng)
        step = rng.normal(scale=2.0, size=(5, 5))
        out = retract(w, 0.5 * (step + step.T))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(out.mat))))
        scale = max(1.0, float(np.max(np.abs(out.mat))))
        max_asym = max(max_asym, float(np.max(np.abs(out.mat - out.mat.T))) / scale)
    min_div = math.inf
    max_scale_dev = 0.0
    for _ in range(1000):
        w, w0 = rand_spd(4, rng), rand_spd(4, rng)
        d = logdet_divergence(w, w0)
        min_div = min(min_div, d)
        for c in (0.1, 1.0, 10.0):
            dev = abs(logdet_divergence(w.scaled(c), w0.scaled(c)) - d)
            max_scale_dev = max(max_scale_dev, dev)
    elapsed = time.perf_counter() - t0
    ok = (min_eig >= EPS_PD and max_asym <= 1e-10 and min_div >= 0.0
          and max_scale_dev <= 1e-10 and elapsed < 10.0)
    _report(2, "manifold invariants", ok,
            f"min eig {min_eig:.3e}, sym {max_asym:.1e}, min div {min_div:.1e}, "
            f"scale dev {max_scale_dev:.1e}, {elapsed:.1f}s")


def test_criterion_3_toy_saddle_point_oracle(toy_trace_500):
    trace, fixture_elapsed = toy_trace_500
    t0 = time.perf_counter()
    f_star = grid_search_f_star()
    assert f_star == F_STAR
    best = trace.best_record.objective
    gap = abs(best - f_star)
    elapsed = fixture_elapsed + time.perf_counter() - t0
    ok = gap <= 1e-2 and elapsed < 30.0
    _report(3, "toy saddle-point oracle", ok,
            f"best f {best:.6f} vs oracle {f_star:.6f} (|gap| {gap:.2e}), {elapsed:.1f}s")


def test_criterion_4_suboptimality_bound_holds(toy_trace_500):
    trace, fixture_elapsed = toy_trace_500
    t0 = time.perf_counter()
    problem = scalar_toy_problem()
    x0 = 2.0
    results = []
    for T in (10, 50, 100, 500):
        prefix = trace.records[:T]
        sub = type(trace)(
            records=prefix,
            final_point=prefix[-1].point,
            best_index=select_best_index(prefix),
            initial_objective=trace.initial_objective,
            initial_violation=trace.initial_violation,
        )
        params = estimate_bound_params(sub, problem, x0, TOY_ALPHA)
        bound = suboptimality_bound(params, sub.etas())
        min_gap = min(r.objective for r in prefix) - F_STAR
        results.append((T, min_gap, bound, min_gap <= bound))
    elapsed = fixture_elapsed + time.perf_counter() - t0
    ok = all(r[3] for r in results) and elapsed < 60.0
    detail = "; ".join(f"T={T}: gap {g:+.3f} <= bound {b:.3f}" for T, g, b, _ in results)
    _report(4, "suboptimality bound", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_5_rate_envelope_and_sum_bounds(toy_trace_2000):
    trace_2000, fixture_elapsed = toy_trace_2000
    t0 = time.perf_counter()
    # Envelope of the reported-solution gap: the best objective among
    # feasible (or least-violating) iterates up to T, relative to the
    # oracle optimum.  Scaled by (sqrt(T)-1)/log(T) this must stay flat.
    best_feasible = None
    least_violating = None
    g_series = {}
    for t, rec in enumerate(trace_2000.records):
        if rec.violation <= 1e-8:
            cand = (rec.objective, rec.violation, t)
            if best_feasible is None or cand < best_feasible:
                best_feasible = cand
        cand = (rec.violation, rec.objective, t)
        if least_violating is None or cand < least_violating:
            least_violating = cand
        T = t + 1
        if 10 <= T <= 2000:
            best_obj = (best_feasible or (least_violating[1], least_violating[0]))[0]
            gap = abs(best_obj - F_STAR)
            g_series[T] = gap * (math.sqrt(T) - 1.0) / math.log(T)
    g_max = max(g_series.values())
    g_100 = g_series[100]
    envelope_ok = g_max <= 3.0 * g_100

    # Step-size sum envelope, exact over T = 1 .. 1e6.
    t_range = np.arange(1, 10 ** 6 + 1, dtype=float)
    sum_eta = np.cumsum(1.0 / np.sqrt(t_range))
    sum_eta_sq = np.cumsum(1.0 / t_range)
    sums_ok = bool(
        np.all(sum_eta >= 2.0 * (np.sqrt(t_range) - 1.0))
        and np.all(sum_eta_sq <= 1.0 + np.log(t_range))
    )
    elapsed = fixture_elapsed + time.perf_counter() - t0
    ok = envelope_ok and sums_ok and elapsed < 120.0
    _report(5, "rate envelope + sum bounds", ok,
            f"max g_T {g_max:.4f} <= 3*g_100 {3 * g_100:.4f}; sums exact to 1e6: {sums_ok}, "
            f"{elapsed:.1f}s")


def test_criterion_6_dual_and_slack_feasibility(
    toy_trace_500, toy_trace_2000, efficacy_artifacts, panel_ic_artifacts
):
    violations = 0
    checked = 0
    for trace in (toy_trace_500[0], toy_trace_2000[0]):
        for rec in trace.records:
            checked += 1
            if rec.dual_min < 0.0:
                violations += 1
    train_traces = [efficacy_artifacts["model"].trace] + panel_ic_artifacts["traces"]
    for trace in train_traces:
        for rec in trace.records:
            checked += 1
            if (rec.dual_min < 0.0 or rec.extras["slack_min"] < 0.0
                    or rec.extras["gamma_min"] < 0.0):
                violations += 1
    ok = violations == 0
    _report(6, "dual/slack feasibility", ok,
            f"{checked} recorded iterations across {2 + len(train_traces)} runs, "
            f"{violations} negative entries (zero tolerance)")


def test_criterion_7_metric_learning_efficacy(efficacy_artifacts):
    t0 = time.perf_counter()
    art = efficacy_artifacts
    acc_eucl = knn_accuracy(SpdMatrix.identity(20), art["xtr"], art["ytr"],
                            art["xte"], art["yte"], 10)
    acc_learned = knn_accuracy(art["model"].w, art["xtr"], art["ytr"],
                               art["xte"], art["yte"], 10)
    trace = art["model"].trace
    viol_ratio = trace.records[-1].violation / trace.initial_violation
    elapsed = art["elapsed"] + time.perf_counter() - t0
    ok = (acc_learned >= acc_eucl + 0.10) and (viol_ratio <= 0.5) and elapsed < 120.0
    _report(7, "metric-learning efficacy", ok,
            f"accuracy {acc_eucl:.3f} -> {acc_learned:.3f} "
            f"(+{(acc_learned - acc_eucl) * 100:.1f}pp, need >= 10), "
            f"violation ratio {viol_ratio:.4f} (need <= 0.5), {elapsed:.1f}s")


def test_criterion_8_baseline_ic_ordering(panel_ic_artifacts):
    t0 = time.perf_counter()
    s_rpdml = ic_summary(panel_ic_artifacts["ic_rpdml"])
    s_eucl = ic_summary(panel_ic_artifacts["ic_eucl"])
    elapsed = panel_ic_artifacts["elapsed"] + time.perf_counter() - t0
    ok = (s_rpdml["n_periods"] >= 8
          and s_rpdml["ic_mean"] >= s_eucl["ic_mean"]
          and elapsed < 180.0)
    _report(8, "baseline IC ordering", ok,
            f"mean IC: learned {s_rpdml['ic_mean']:.3f}±{s_rpdml['ic_std']:.3f} vs "
            f"euclidean {s_eucl['ic_mean']:.3f}±{s_eucl['ic_std']:.3f} over "
            f"{s_rpdml['n_periods']} windows, {elapsed:.1f}s")


def test_criterion_9_backtest_arithmetic():
    # Hand-computed fixtures, exact to 1e-12.
    acc = accumulated_return(np.array([0.1, 0.1]))
    acc_ok = abs(acc[0] - 0.1) <= 1e-12 and abs(acc[1] - 0.21) <= 1e-12
    mdd = max_drawdown(np.array([1.0, 1.2, 0.9, 1.1]))
    mdd_ok = abs(mdd - 0.25) <= 1e-12

    periods = [
        PanelPeriod("p0", ["a", "b", "c"], np.zeros((3, 1)), np.array([0.1, 0.2, 0.3])),
        PanelPeriod("p1", ["a", "b", "c"], np.zeros((3, 1)), np.array([0.30, -0.10, 0.05])),
        PanelPeriod("p2", ["a", "b", "c"], np.zeros((3, 1)), np.array([0.02, 0.08, -0.04])),
    ]
    panel = PanelDataset(periods)
    preds = [(p, np.array([2.0, 2.0, 1.0]), False) for p in periods[1:]]
    result = backtest_from_predictions(panel, preds, top_n=2)
    # prediction tie between a and b resolves by asset id: select a, b
    exp0, exp1 = (0.30 - 0.10) / 2.0, (0.02 + 0.08) / 2.0
    select_ok = (abs(result.period_returns[0] - exp0) <= 1e-12
                 and abs(result.period_returns[1] - exp1) <= 1e-12)
    cum_expected = np.cumprod(1.0 + result.period_returns) - 1.0
    cum_ok = np.max(np.abs(result.cumulative - cum_expected)) <= 1e-12

    oracle = [(p, p.next_returns.copy(), False) for p in periods[1:]]
    constant = [(p, np.zeros(3), False) for p in periods[1:]]
    r_oracle = backtest_from_predictions(panel, oracle, top_n=1)
    r_const = backtest_from_predictions(panel, constant, top_n=1)
    dominance_ok = r_oracle.cumulative[-1] >= r_const.cumulative[-1]

    ok = acc_ok and mdd_ok and select_ok and cum_ok and dominance_ok
    _report(9, "backtest arithmetic", ok,
            f"compounding {acc_ok}, drawdown {mdd_ok}, selection {select_ok}, "
            f"cumulative {cum_ok}, oracle>=constant {dominance_ok}")


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "data.csv"
    assert cli_main(["gen-data", "--seed", "7", "--out", str(data),
                     "--samples", "80", "--dim", "8", "--informative-dims", "3"]) == 0
    run_dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in run_dirs:
        assert cli_main(["train", "--seed", "7", "--data", str(data),
                         "--outdir", str(d), "--iters", "25"]) == 0
    model_same = (run_dirs[0] / "model.json").read_bytes() == (run_dirs[1] / "model.json").read_bytes()
    trace_same = (run_dirs[0] / "trace.jsonl").read_bytes() == (run_dirs[1] / "trace.jsonl").read_bytes()

    bench_dirs = [tmp_path / "b1", tmp_path / "b2"]
    for d in bench_dirs:
        assert cli_main(["bench-convergence", "--T", "500", "--outdir", str(d)]) == 0
    bench_same = (bench_dirs[0] / "trace.jsonl").read_bytes() == (bench_dirs[1] / "trace.jsonl").read_bytes()
    bench_rows = [json.loads(l) for l in (bench_dirs[0] / "trace.jsonl").read_text().splitlines()]
    bench_bounds_ok = len(bench_rows) == 500 and all(r["bound_ok"] for r in bench_rows)

    ok = model_same and trace_same and bench_same and bench_bounds_ok
    _report(10, "determinism", ok,
            f"train model/trace identical: {model_same}/{trace_same}; "
            f"benchmark trace identical: {bench_same}; bound_ok on all 500 records: {bench_bounds_ok}")
