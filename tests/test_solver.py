import dataclasses
import math

import numpy as np
import pytest

from rpdml.benchmarks import (
    TOY_ALPHA,
    TOY_ETA0,
    TOY_X0,
    run_toy,
    scalar_distance_sq,
    scalar_toy_problem,
)
from rpdml.data import SyntheticSpec, generate_synthetic, normalize_features
from rpdml.errors import (
    ConfigError,
    DimensionMismatchError,
    DivergedError,
    InnerSolveError,
    InvariantViolationError,
)
from rpdml.manifold import logdet_divergence
from rpdml.metric import RpdmlConfig, build_pairs, eval_h, train
from rpdml.solver import (
    IterationRecord,
    SaddleProblem,
    SolverConfig,
    dual_ascent_step,
    positive_part,
    prefix_bounds,
    run,
    select_best_index,
    step_size,
    step_sum_bounds,
)

from oracles import bounded_window


def grid_oracle(resolution=1e-4, hi=3.0):
    # Brute-force minimum of (x-2)^2 over the feasible grid x <= 1.
    xs = np.arange(resolution, hi + resolution / 2, resolution)
    return float(np.min((xs[xs <= 1.0] - 2.0) ** 2))


class TestStepSize:
    def test_examples(self):
        assert step_size(0, 1.0) == 1.0
        assert step_size(3, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert step_size(99, 2.0) == pytest.approx(0.2, abs=1e-15)

    def test_strictly_decreasing(self):
        vals = [step_size(t, 1.3) for t in range(50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            step_size(-1, 1.0)
        with pytest.raises(ConfigError):
            step_size(0, 0.0)
        with pytest.raises(ConfigError):
            step_size(0, math.nan)


class TestPositivePart:
    def test_examples(self):
        assert np.array_equal(positive_part(np.array([-1.0, 2.0, 0.0])), [0.0, 2.0, 0.0])
        v = np.array([0.5, 1.0, 3.0])
        assert np.array_equal(positive_part(v), v)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(size=7)
            once = positive_part(v)
            assert np.array_equal(positive_part(once), once)


class TestDualAscentStep:
    def test_inactive_constraint_stays_zero(self):
        out = dual_ascent_step(np.array([0.0]), np.array([-1.0]), 0.5, 0.1)
        assert np.array_equal(out, [0.0])

    def test_hand_value(self):
        out = dual_ascent_step(np.array([1.0]), np.array([0.2]), 0.5, 0.1)
        assert out[0] == pytest.approx(1.05, abs=1e-12)  # 1 + 0.5*(0.2 - 0.1)

    def test_clips_at_zero(self):
        out = dual_ascent_step(np.array([0.1]), np.array([-5.0]), 0.5, 0.1)
        assert np.array_equal(out, [0.0])  # 0.095 - 2.5 < 0

    def test_rejects_alpha_eta_above_one(self):
        with pytest.raises(ConfigError):
            dual_ascent_step(np.array([1.0]), np.array([0.0]), 2.0, 0.6)

    @pytest.mark.parametrize("eta, alpha", [(math.nan, 0.1), (0.5, math.nan), (math.nan, math.nan)])
    def test_rejects_nan(self, eta, alpha):
        with pytest.raises(ConfigError):
            dual_ascent_step(np.zeros(1), np.ones(1), eta, alpha)

    def test_rejects_negative_dual(self):
        with pytest.raises(InvariantViolationError):
            dual_ascent_step(np.array([-0.1]), np.array([0.0]), 0.5, 0.1)


class TestSolverConfig:
    def test_validates_alpha_eta(self):
        with pytest.raises(ConfigError):
            SolverConfig(alpha=0.6, eta0=2.0)
        SolverConfig(alpha=0.5, eta0=2.0)  # boundary is fine

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(alpha=0.1, eta0=-1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=math.nan), dict(alpha=0.1, eta0=math.nan), dict(alpha=math.nan, eta0=math.nan),
    ])
    def test_rejects_nan(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)


class TestRun:
    def test_toy_problem_reaches_oracle_optimum(self):
        trace, _ = run_toy(500)
        f_star = grid_oracle()
        assert abs(trace.records[trace.best_index].objective - f_star) <= 1e-2

    def test_unconstrained_reduces_to_proximal_point(self):
        # h == -1 never activates the dual, so the run is a pure proximal
        # point method converging to the unconstrained minimizer x = 2.
        problem = scalar_toy_problem()
        inactive = SaddleProblem(
            objective=problem.objective,
            constraints=lambda x: np.array([-1.0]),
            inner_minimizer=problem.inner_minimizer,
        )
        trace = run(inactive, 0.5, SolverConfig(alpha=TOY_ALPHA, eta0=1.0, iters=300))
        assert all(r.dual_norm == 0.0 for r in trace.records)
        assert all(r.h_max == 1.0 for r in trace.records)  # max |h| of h = -1
        assert trace.records[trace.best_index].objective <= 1e-3

    def test_trace_shape_and_dual_feasibility(self):
        trace, _ = run_toy(80)
        assert len(trace) == 80
        assert all(np.isfinite(r.dual_norm) for r in trace.records)
        assert all(r.dual_min >= 0.0 for r in trace.records)
        assert [r.t for r in trace.records] == list(range(80))

    def test_deterministic(self):
        (t1, d1), (t2, d2) = run_toy(120), run_toy(120)
        assert [r.objective for r in t1.records] == [r.objective for r in t2.records]
        assert [r.violation for r in t1.records] == [r.violation for r in t2.records]
        assert t1.best_index == t2.best_index
        assert t1.final_point == t2.final_point
        assert d1 == d2

    def test_negative_constant_constraints_keep_dual_zero(self):
        lam = np.zeros(3)
        for t in range(50):
            lam = dual_ascent_step(lam, np.full(3, -0.7), step_size(t, 1.0), 0.2)
            assert np.array_equal(lam, np.zeros(3))

    def test_inner_minimizer_matches_scipy_oracle(self):
        # The closed-form prox step must agree with a numerical minimizer of
        # the same subproblem.
        from scipy.optimize import minimize_scalar

        problem = scalar_toy_problem()
        rng = np.random.default_rng(13)
        for _ in range(50):
            x_t = rng.uniform(0.2, 3.0)
            lam = np.array([rng.uniform(0.0, 3.0)])
            eta = rng.uniform(0.05, 2.0)

            def subproblem(x):
                return ((x - 2.0) ** 2 + lam[0] * (x - 1.0)
                        + scalar_distance_sq(x, x_t) / (2.0 * eta))

            closed = problem.inner_minimizer(x_t, lam, eta)
            oracle = minimize_scalar(subproblem, bounds=(1e-6, 50.0), method="bounded",
                                     options={"xatol": 1e-12}).x
            assert closed == pytest.approx(oracle, abs=1e-7)

    def test_zero_iterations_returns_empty_trace(self):
        trace = run(scalar_toy_problem(), 0.5,
                    SolverConfig(alpha=0.01, eta0=1.0, iters=0))
        assert len(trace) == 0
        assert trace.final_point == 0.5

    def test_random_small_instances_trace_properties(self):
        # Randomized scalar problems: trace length, finite duals, dual
        # nonnegativity at every iteration.
        rng = np.random.default_rng(99)
        for _ in range(10):
            target = rng.uniform(1.2, 3.0)
            bound = rng.uniform(0.5, target - 0.1)
            problem = scalar_toy_problem(target=target, bound=bound)
            x0 = rng.uniform(0.2, 3.0)
            T = int(rng.integers(20, 60))
            cfg = SolverConfig(alpha=rng.uniform(0.001, 0.05),
                               eta0=rng.uniform(0.5, 2.0), iters=T)
            trace = run(problem, x0, cfg)
            assert len(trace) == T
            assert all(np.isfinite(r.dual_norm) for r in trace.records)
            assert all(r.dual_min >= 0.0 for r in trace.records)

    def test_diverged_error_carries_partial_trace(self):
        problem = scalar_toy_problem()

        def failing_inner(x, lam, eta, **kw):
            if x < 0.1:
                raise InnerSolveError("stuck")
            return x / 2.0

        bad = SaddleProblem(
            objective=problem.objective,
            constraints=problem.constraints,
            inner_minimizer=failing_inner,
        )
        with pytest.raises(DivergedError) as exc_info:
            run(bad, 0.5, SolverConfig(alpha=0.01, eta0=1.0, iters=50))
        partial = exc_info.value.trace
        assert partial is not None and 0 < len(partial) < 50

    @pytest.mark.parametrize("poisoned, fails_at, value", [
        ("objective", 2, math.nan),
        ("constraints", 1, math.inf),
    ])
    def test_non_finite_iterate_raises_with_the_finite_prefix(self, poisoned, fails_at, value):
        # Each function is called at x0 first, then once per iterate: x0 and
        # the iterates of steps 0 .. fails_at - 1 keep their finite values.
        problem = scalar_toy_problem()
        calls = []

        def poison(x):
            calls.append(x)
            good = getattr(problem, poisoned)(x)
            return good if len(calls) <= fails_at + 1 else good * value

        cfg = SolverConfig(alpha=0.01, eta0=1.0, iters=10)
        with pytest.raises(DivergedError,
                           match=f"^non-finite objective/constraints at t={fails_at}$") as exc_info:
            run(dataclasses.replace(problem, **{poisoned: poison}), 0.5, cfg)
        partial = exc_info.value.trace
        finite = run(problem, 0.5, dataclasses.replace(cfg, iters=fails_at))
        assert [r.t for r in partial.records] == list(range(fails_at))
        assert partial.records == finite.records
        assert partial.final_point == finite.final_point

    def test_constraints_that_change_length_are_rejected(self):
        # The dual is sized from h(x0); a later h of another length is a bug
        # of the problem, not a point to record.
        problem = scalar_toy_problem()
        growing = SaddleProblem(
            objective=problem.objective,
            constraints=lambda x: np.full(1 if x == 0.5 else 2, x - 1.0),
            inner_minimizer=problem.inner_minimizer,
        )
        with pytest.raises(DimensionMismatchError, match=r"\(2,\) at t=0, \(1,\) at x0"):
            run(growing, 0.5, SolverConfig(alpha=0.01, eta0=1.0, iters=5))


class TestBestIndexSelection:
    def test_prefers_feasible_minimum(self):
        trace, _ = run_toy(300)
        best = trace.records[trace.best_index]
        feasible = [r for r in trace.records if r.violation <= 1e-8]
        assert feasible, "toy run should visit the feasible side"
        assert best.violation <= 1e-8
        assert best.objective == min(r.objective for r in feasible)

    def test_empty_trace_has_no_best_index(self):
        with pytest.raises(ConfigError, match="empty trace"):
            select_best_index([])

    def test_falls_back_to_least_violating(self):
        trace, _ = run_toy(2)  # both early iterates sit on the infeasible side
        recs = trace.records
        if all(r.violation > 1e-8 for r in recs):
            i = select_best_index(recs)
            assert recs[i].violation == min(r.violation for r in recs)


def hand_records(etas, h, dual_norm=0.0):
    """Records with the given steps and one constraint vector h throughout."""
    h = np.asarray(h, dtype=float)
    return [IterationRecord(t=t, eta=eta, objective=0.0, h_max=float(np.max(np.abs(h))),
                            violation=float(np.sum(positive_part(h))),
                            dual_norm=dual_norm, dual_min=0.0)
            for t, eta in enumerate(etas)]


class TestSuboptimalityBound:
    def test_zero_numerator(self):
        # Best point equals x0 (d0 = 0) and h = 0 with a zero dual (g = 0).
        records = hand_records([1.0, 0.5], [0.0, 0.0])
        bounds = prefix_bounds(records, [scalar_distance_sq(1.7, 1.7)] * 2, 2, 0.1)
        assert [b for _, b in bounds] == [0.0, 0.0]

    def test_hand_value(self):
        # d0^2 = 1, g = max|h| = 1, m = 2.
        etas = [1.0, 1.0 / math.sqrt(2.0)]
        records = hand_records(etas, [1.0, -1.0])
        expected = (0.5 * 1.0 + 2 * 2 * 1.0 * 1.5) / (1.0 + 1.0 / math.sqrt(2.0))
        got = prefix_bounds(records, [1.0, 1.0], 2, 0.1)[-1][1]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(3.8076, abs=1e-4)

    def test_decreasing_in_horizon(self):
        etas = [1.0 / math.sqrt(t + 1) for t in range(1000)]
        bounds = prefix_bounds(hand_records(etas, [1.0]), [1.0] * 1000, 1, 0.1)
        assert bounds[999][1] < bounds[99][1]

    def test_empty_records_give_no_bounds(self):
        assert prefix_bounds([], [], 1, 0.1) == []


class TestStepSumBounds:
    def test_single_term(self):
        lower, upper = step_sum_bounds(1)
        assert (lower, upper) == (0.0, 1.0)
        assert 1.0 >= lower and 1.0 <= upper  # actual sums at T=1

    def test_t_100(self):
        lower, upper = step_sum_bounds(100)
        assert lower == pytest.approx(18.0, abs=1e-12)
        assert upper == pytest.approx(1.0 + math.log(100.0), abs=1e-12)
        etas = 1.0 / np.sqrt(np.arange(1, 101))
        assert etas.sum() == pytest.approx(18.5896, abs=1e-4)
        assert etas.sum() >= lower
        assert (etas ** 2).sum() == pytest.approx(5.1874, abs=1e-4)
        assert (etas ** 2).sum() <= upper

    def test_exhaustive_to_1e6(self):
        t = np.arange(1, 10 ** 6 + 1, dtype=float)
        sum_eta = np.cumsum(1.0 / np.sqrt(t))
        sum_eta_sq = np.cumsum(1.0 / t)
        lower = 2.0 * (np.sqrt(t) - 1.0)
        upper = 1.0 + np.log(t)
        assert np.all(sum_eta >= lower)
        assert np.all(sum_eta_sq <= upper)

    def test_rejects_t_below_one(self):
        with pytest.raises(ConfigError):
            step_sum_bounds(0)


def recording(problem):
    """The problem with an inner minimizer that also appends each iterate to a list."""
    points = []

    def inner_minimizer(x, lam, eta):
        points.append(problem.inner_minimizer(x, lam, eta))
        return points[-1]

    return dataclasses.replace(problem, inner_minimizer=inner_minimizer), points


def reference_bound(prefix, points, x0, distance_sq, constraints, alpha):
    """Bound of one prefix, computed from scratch over the prefix's iterates."""
    etas = np.array([r.eta for r in prefix])
    best = select_best_index(prefix)
    d0_sq = float(distance_sq(points[best], x0))
    hs = [np.atleast_1d(constraints(x)) for x in points[:len(prefix)]]
    g = max(float(np.max(np.abs(h))) for h in hs) + alpha * max(r.dual_norm for r in prefix)
    m = hs[0].size
    return best, (0.5 * d0_sq + 2.0 * m * g ** 2 * float(np.sum(etas ** 2))) / float(np.sum(etas))


class TestPrefixBounds:
    def test_matches_reference_on_toy_run(self):
        trace, d0_sq = run_toy(500)
        bounds = prefix_bounds(trace.records, d0_sq, 1, TOY_ALPHA)
        assert len(bounds) == 500
        # The same run, its iterates kept by the test.
        problem, points = recording(scalar_toy_problem())
        replay = run(problem, TOY_X0, SolverConfig(alpha=TOY_ALPHA, eta0=TOY_ETA0, iters=500))
        assert [r.to_dict() for r in replay.records] == [r.to_dict() for r in trace.records]
        assert d0_sq == [scalar_distance_sq(x, TOY_X0) for x in points]
        for T in [*range(1, 101), *range(110, 501, 10)]:
            best, bound = reference_bound(trace.records[:T], points, TOY_X0, scalar_distance_sq,
                                          problem.constraints, TOY_ALPHA)
            assert bounds[T - 1][0] == best
            assert bounds[T - 1][1] == pytest.approx(bound, rel=1e-12, abs=0.0)

    def test_matches_reference_on_desk_train(self, train_iterates):
        ds = generate_synthetic(SyntheticSpec(samples=80, dim=6, informative_dims=3, seed=7))
        feats, _ = normalize_features(ds.features)
        cfg = RpdmlConfig(iters=20, seed=7)
        model = train(feats, ds.labels, cfg)
        records, points = model.trace.records, train_iterates
        x0 = (model.w0, np.zeros(points[0][1].size))
        pc = build_pairs(feats[None], ds.labels[None], cfg.max_pairs, cfg.seed)[0]
        pc = bounded_window(pc.without_degenerate_rows(), model.u, model.l)

        def distance_sq(a, b):
            # LogDet divergence of W plus the squared slack distance.
            return logdet_divergence(a[0], b[0]) + float(np.sum((a[1] - b[1]) ** 2))

        bounds = prefix_bounds(records, [distance_sq(x, x0) for x in points], pc.signs.size, cfg.c2)
        assert bounds[-1][0] == model.trace.best_index
        for T in range(1, len(records) + 1):
            best, bound = reference_bound(records[:T], points, x0, distance_sq,
                                          lambda x: eval_h(*x, pc), cfg.c2)
            assert bounds[T - 1][0] == best
            assert bounds[T - 1][1] == pytest.approx(bound, rel=1e-12, abs=0.0)


class TestEmpiricalBound:
    def test_best_iterate_gap_within_bound_on_every_prefix(self):
        # The certificate is about the best iterate, not the smallest
        # objective: infeasible iterates near x = 2 have f ~ 0 < f*, which
        # would make a min-objective gap negative and the check vacuous.
        trace, d0_sq = run_toy(2000)
        f_star = grid_oracle()
        bounds = prefix_bounds(trace.records, d0_sq, 1, TOY_ALPHA)
        assert len(bounds) == 2000
        for best, bound in bounds:
            assert trace.records[best].objective - f_star <= bound


class TestProblemConsistency:
    def test_self_distance_zero(self):
        assert scalar_distance_sq(1.7, 1.7) == 0.0
