import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpdml import metric as metric_module
from rpdml.data import SyntheticSpec, generate_synthetic, normalize_features
from rpdml.errors import (
    BoundsError,
    ConfigError,
    ConstraintBuildError,
    DimensionMismatchError,
    DivergedError,
    InnerSolveError,
)
from rpdml.manifold import EPS_PD, SpdMatrix, spd_inverse
from rpdml.metric import (
    MetricModel,
    PairConstraints,
    RpdmlConfig,
    build_pairs,
    compute_bounds,
    eval_h,
    grad_h_contraction,
    inner_gradient,
    inner_objective,
    inner_solve_w,
    inverse_covariance_metric,
    train,
    update_gamma,
    update_lambda,
    update_slack,
)
from rpdml.solver import dual_ascent_step


def rand_spd(n, rng, lo=0.3, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return SpdMatrix(q @ np.diag(rng.uniform(lo, hi, n)) @ q.T)


def blob_data(rng, n=60, dim=6, sep=3.0):
    labels = rng.integers(0, 2, size=n)
    feats = rng.normal(size=(n, dim))
    feats[labels == 1, 0] += sep
    feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    return feats, labels


class TestBuildPairs:
    def test_exhaustive_enumeration(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        pc = build_pairs(feats, np.array(["a", "a", "b"]), max_pairs_per_side=100, seed=0)
        assert pc.n_similar == 1 and pc.n_dissimilar == 2
        assert np.array_equal(pc.similar_diffs, [[-1.0, 0.0]])  # x0 - x1
        assert np.array_equal(pc.dissimilar_diffs, [[0.0, -2.0], [1.0, -2.0]])

    def test_duplicate_rows_give_zero_row(self):
        feats = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 3.0]])
        pc = build_pairs(feats, np.array([0, 0, 1]), max_pairs_per_side=10, seed=0)
        assert np.array_equal(pc.similar_diffs, [[0.0, 0.0]])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        feats, labels = blob_data(rng, n=40)
        a = build_pairs(feats, labels, max_pairs_per_side=50, seed=123)
        b = build_pairs(feats, labels, max_pairs_per_side=50, seed=123)
        assert np.array_equal(a.similar_diffs, b.similar_diffs)
        assert np.array_equal(a.dissimilar_diffs, b.dissimilar_diffs)
        c = build_pairs(feats, labels, max_pairs_per_side=50, seed=124)
        assert not np.array_equal(a.similar_diffs, c.similar_diffs)

    def test_cap_is_respected(self):
        rng = np.random.default_rng(12)
        feats, labels = blob_data(rng, n=40)
        pc = build_pairs(feats, labels, max_pairs_per_side=25, seed=0)
        assert pc.n_similar == 25 and pc.n_dissimilar == 25

    def test_errors(self):
        with pytest.raises(ConstraintBuildError):
            build_pairs(np.ones((1, 2)), np.array([0]), 10, 0)
        with pytest.raises(ConstraintBuildError):
            build_pairs(np.ones((3, 2)), np.array([0, 0, 0]), 10, 0)  # one label
        with pytest.raises(ConstraintBuildError):
            # all classes singletons: no similar pair
            build_pairs(np.ones((2, 2)), np.array([0, 1]), 10, 0)

    def test_degenerate_row_dropping(self):
        pc = PairConstraints(
            np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 2.0]]), u=1.0, l=2.0
        )
        cleaned = pc.without_degenerate_rows()
        assert cleaned.n_similar == 1
        assert np.array_equal(cleaned.similar_diffs, [[1.0, 0.0]])


class TestComputeBounds:
    def test_nearest_rank_on_1_to_100(self):
        assert compute_bounds(np.arange(1.0, 101.0), 5, 95) == (5.0, 95.0)

    def test_constant_distances_error(self):
        with pytest.raises(BoundsError):
            compute_bounds(np.full(50, 2.5), 5, 95)

    def test_single_value_error(self):
        with pytest.raises(BoundsError):
            compute_bounds(np.array([3.0]), 5, 95)

    def test_bad_percentiles(self):
        with pytest.raises(ConfigError):
            compute_bounds(np.arange(10.0), 95, 5)


class TestPairConstraints:
    def test_bound_validation(self):
        with pytest.raises(ConfigError):
            PairConstraints(np.ones((1, 2)), np.ones((1, 2)), u=2.0, l=1.0)
        with pytest.raises(ConfigError):
            PairConstraints(np.ones((1, 2)), np.ones((1, 2)), u=-1.0, l=1.0)

    def test_bound_vector_layout(self):
        pc = PairConstraints(np.ones((2, 3)), np.ones((3, 3)), u=1.0, l=4.0)
        assert np.array_equal(pc.bound_vector(), [1.0, 1.0, 4.0, 4.0, 4.0])


class TestEvalH:
    def test_similar_boundary_case(self):
        pc = PairConstraints([[1.0, 0.0]], [[9.0, 9.0]], u=1.0, l=200.0)
        h = eval_h(SpdMatrix.identity(2), np.zeros(2), pc)
        assert h[0] == pytest.approx(0.0, abs=1e-12)  # 1 - 1

    def test_dissimilar_hand_value(self):
        pc = PairConstraints([[0.1, 0.0]], [[2.0, 0.0]], u=0.5, l=1.0)
        h = eval_h(SpdMatrix.identity(2), np.zeros(2), pc)
        assert h[1] == pytest.approx(-3.0, abs=1e-12)  # -4 + 1

    def test_slack_decreases_similar_entry(self):
        pc = PairConstraints([[1.0, 0.0]], [[2.0, 0.0]], u=1.0, l=3.0)
        h0 = eval_h(SpdMatrix.identity(2), np.array([0.0, 0.0]), pc)
        h1 = eval_h(SpdMatrix.identity(2), np.array([0.5, 0.0]), pc)
        assert h1[0] < h0[0]

    def test_dimension_mismatch(self):
        pc = PairConstraints([[1.0, 0.0]], [[2.0, 0.0]], u=1.0, l=3.0)
        with pytest.raises(DimensionMismatchError):
            eval_h(SpdMatrix.identity(3), np.zeros(2), pc)


class TestGradHContraction:
    def test_zero_dual(self):
        pc = PairConstraints([[1.0, 0.0]], [[0.0, 1.0]], u=1.0, l=2.0)
        assert np.array_equal(grad_h_contraction(np.zeros(2), pc), np.zeros((2, 2)))

    def test_single_similar_pair(self):
        pc = PairConstraints([[1.0, 0.0]], [[5.0, 5.0]], u=1.0, l=200.0)
        out = grad_h_contraction(np.array([2.0, 0.0]), pc)
        assert np.array_equal(out, [[2.0, 0.0], [0.0, 0.0]])

    def test_single_dissimilar_pair(self):
        pc = PairConstraints([[5.0, 5.0]], [[0.0, 1.0]], u=1.0, l=200.0)
        out = grad_h_contraction(np.array([0.0, 3.0]), pc)
        assert np.array_equal(out, [[0.0, 0.0], [0.0, -3.0]])


def per_side_reference(w_mat, xi, lam, sd, dd, u, l):
    """h and <lam, dh/dW> side by side, with the 3-operand row-wise einsum."""
    n_s = sd.shape[0]
    q_p = np.einsum("ij,jk,ik->i", sd, w_mat, sd)
    q_n = np.einsum("ij,jk,ik->i", dd, w_mat, dd)
    h = np.concatenate([q_p - u * (1.0 + xi[:n_s]), -q_n + l * (1.0 - xi[n_s:])])
    lam_p, lam_n = lam[:n_s], lam[n_s:]
    g = (sd * lam_p[:, None]).T @ sd - (dd * lam_n[:, None]).T @ dd
    # Magnitudes of the summed terms, the scale of the round-off.
    h_scale = np.concatenate([q_p + u * (1.0 + xi[:n_s]), q_n + l * (1.0 + xi[n_s:])])
    g_scale = float(lam_p @ (sd**2).sum(axis=1) + lam_n @ (dd**2).sum(axis=1))
    return h, 0.5 * (g + g.T), h_scale, g_scale


class TestStackedConstraintLayer:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 12),
        n_s=st.integers(1, 40),
        n_d=st.integers(1, 40),
        u=st.floats(1e-3, 1e3),
        gap=st.floats(1.001, 100.0),
        row_scale=st.floats(1e-2, 1e2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_side_reference(self, n, n_s, n_d, u, gap, row_scale, seed):
        rng = np.random.default_rng(seed)
        sd = row_scale * rng.normal(size=(n_s, n))
        dd = row_scale * rng.normal(size=(n_d, n))
        l = u * gap
        pc = PairConstraints(sd, dd, u=u, l=l)
        w = rand_spd(n, rng, lo=0.05, hi=20.0)
        m = n_s + n_d
        xi = rng.uniform(0.0, 2.0, m) * rng.integers(0, 2, m)
        lam = rng.uniform(0.0, 5.0, m) * rng.integers(0, 2, m)
        h_ref, g_ref, h_scale, g_scale = per_side_reference(w.mat, xi, lam, sd, dd, u, l)
        h = eval_h(w, xi, pc)
        assert h.shape == (m,)
        assert np.all(np.abs(h - h_ref) <= 1e-12 * h_scale)
        g = grad_h_contraction(lam, pc)
        assert np.array_equal(g, g.T)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * g_scale

    @pytest.mark.parametrize("bounds_first", [False, True])
    def test_dropping_rows_keeps_rows_signs_bounds_aligned(self, bounds_first):
        sd = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 1.0]]
        dd = [[3.0, 0.0], [0.0, 0.0], [0.0, 4.0]]
        if bounds_first:
            pc = PairConstraints(sd, dd, u=1.0, l=5.0).without_degenerate_rows()
        else:
            pc = PairConstraints(sd, dd).without_degenerate_rows().with_bounds(1.0, 5.0)
        assert (pc.n_similar, pc.n_dissimilar, pc.n_constraints) == (2, 2, 4)
        assert np.array_equal(pc.diffs, [[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(pc.signs, [1.0, 1.0, -1.0, -1.0])
        assert np.array_equal(pc.bound_vector(), [1.0, 1.0, 5.0, 5.0])
        assert np.array_equal(pc.similar_diffs, pc.diffs[:2])
        assert np.array_equal(pc.dissimilar_diffs, pc.diffs[2:])
        assert np.shares_memory(pc.similar_diffs, pc.diffs)
        assert np.shares_memory(pc.dissimilar_diffs, pc.diffs)
        # h at W = I: [1 - 1, 5 - 1, -9 + 5, -16 + 5].
        h = eval_h(SpdMatrix.identity(2), np.zeros(4), pc)
        assert np.array_equal(h, [0.0, 4.0, -4.0, -11.0])

    def test_arrays_are_read_only_and_bounds_cached(self):
        pc = PairConstraints(np.ones((2, 3)), np.ones((1, 3)), u=1.0, l=2.0)
        assert pc.bound_vector() is pc.bound_vector()
        for arr in (pc.diffs, pc.signs, pc.bound_vector(), pc.similar_diffs, pc.dissimilar_diffs):
            with pytest.raises(ValueError):
                arr[0] = 7.0


class TestInnerGradient:
    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(n * 10)
        w, w0, w_t = rand_spd(n, rng), rand_spd(n, rng), rand_spd(n, rng)
        pc = PairConstraints(
            rng.normal(size=(4, n)), rng.normal(size=(5, n)), u=1.0, l=3.0
        )
        lam = rng.uniform(0.0, 2.0, 9)
        grad = inner_gradient(w.mat, w_t, lam, w0, 0.3, pc)
        h = 1e-5
        fd = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = h
                fd[i, j] = (
                    inner_objective(w.mat + e, w_t, lam, w0, 0.3, pc)
                    - inner_objective(w.mat - e, w_t, lam, w0, 0.3, pc)
                ) / (2 * h)
        rel = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
        assert rel <= 1e-5


class TestInnerSolveW:
    def test_stationary_at_reference(self):
        rng = np.random.default_rng(20)
        w0 = rand_spd(3, rng)
        pc = PairConstraints(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), u=1.0, l=2.0)
        w0_inv = spd_inverse(w0).mat
        out, _ = inner_solve_w(w0_inv, np.zeros(4), w0_inv, 0.5, pc)
        assert np.allclose(out.mat, w0.mat, atol=1e-12)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            w0, w_t = rand_spd(3, rng), rand_spd(3, rng)
            pc = PairConstraints(
                rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), u=1.0, l=3.0
            )
            lam = rng.uniform(0.0, 0.1, 6)
            eta = 0.2
            out, _ = inner_solve_w(spd_inverse(w_t).mat, lam, spd_inverse(w0).mat, eta, pc)
            j_start = inner_objective(w_t.mat, w_t, lam, w0, eta, pc)
            j_end = inner_objective(out.mat, w_t, lam, w0, eta, pc)
            assert j_end <= j_start + 1e-12

    def test_output_is_spd(self):
        rng = np.random.default_rng(23)
        w0, w_t = rand_spd(3, rng), rand_spd(3, rng)
        pc = PairConstraints(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), u=1.0, l=3.0)
        out, _ = inner_solve_w(spd_inverse(w_t).mat, rng.uniform(0, 0.05, 6),
                               spd_inverse(w0).mat, 0.3, pc)
        assert np.min(np.linalg.eigvalsh(out.mat)) >= EPS_PD - 1e-12
        SpdMatrix(out.mat)

    def test_matches_analytic_subproblem_minimizer(self):
        # The subproblem objective collapses to tr(W M) - c logdet(W), whose
        # stationary point is W* = c inv(M); the closed-form solve must land
        # there to round-off.
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(5):
            w0, w_t = rand_spd(4, rng), rand_spd(4, rng)
            pc = PairConstraints(
                rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), u=1.0, l=3.0
            )
            lam = rng.uniform(0.0, 0.05, 6)
            eta = 0.4
            m_lin = (0.5 * np.linalg.inv(w0.mat)
                     + grad_h_contraction(lam, pc)
                     + np.linalg.inv(w_t.mat) / (2.0 * eta))
            if np.min(np.linalg.eigvalsh(0.5 * (m_lin + m_lin.T))) <= 0:
                continue
            c = 0.5 + 1.0 / (2.0 * eta)
            w_star = c * np.linalg.inv(0.5 * (m_lin + m_lin.T))
            out, _ = inner_solve_w(spd_inverse(w_t).mat, lam, spd_inverse(w0).mat, eta, pc)
            assert np.linalg.norm(out.mat - w_star) <= 1e-10 * max(1.0, np.linalg.norm(w_star))
            checked += 1
        assert checked >= 3

    def test_non_pd_subproblem_raises(self):
        # A heavily weighted dissimilar pair pulls M = I/2 + I/(2 eta) - 10 e2 e2.T
        # below zero along e2: J decreases without bound along that ray.
        eye = np.eye(2)
        pc = PairConstraints([[1.0, 0.0]], [[0.0, 1.0]], u=1.0, l=2.0)
        with pytest.raises(InnerSolveError, match="unbounded below"):
            inner_solve_w(eye, np.array([0.0, 10.0]), eye, 0.5, pc)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        lam_scale=st.floats(0.0, 2.0),
        eta=st.floats(0.01, 2.0),
    )
    def test_closed_form_is_stationary_or_raises(self, n, seed, lam_scale, eta):
        rng = np.random.default_rng(seed)
        w0, w_t = rand_spd(n, rng), rand_spd(n, rng)
        pc = PairConstraints(rng.normal(size=(3, n)), rng.normal(size=(3, n)), u=1.0, l=3.0)
        lam = rng.uniform(0.0, lam_scale, 6)
        m_lin = (0.5 * np.linalg.inv(w0.mat) + grad_h_contraction(lam, pc)
                 + np.linalg.inv(w_t.mat) / (2.0 * eta))
        w_t_inv, w0_inv = spd_inverse(w_t).mat, spd_inverse(w0).mat
        if np.min(np.linalg.eigvalsh(0.5 * (m_lin + m_lin.T))) <= 0:
            with pytest.raises(InnerSolveError):
                inner_solve_w(w_t_inv, lam, w0_inv, eta, pc)
            return
        out, out_inv = inner_solve_w(w_t_inv, lam, w0_inv, eta, pc)
        # The returned inverse comes from the same factorization as W*.
        assert np.linalg.norm(out_inv @ out.mat - np.eye(n)) <= 1e-10 * np.sqrt(n)
        grad = inner_gradient(out.mat, w_t, lam, w0, eta, pc)
        assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(m_lin))
        j_out = inner_objective(out.mat, w_t, lam, w0, eta, pc)
        j_start = inner_objective(w_t.mat, w_t, lam, w0, eta, pc)
        assert j_out <= j_start + 1e-12 * max(1.0, abs(j_start))


class TestUpdateSlack:
    def _pc(self):
        return PairConstraints([[1.0, 0.0]], [[2.0, 0.0]], u=1.0, l=3.0)

    def test_all_zero_fixed_point(self):
        out = update_slack(np.zeros(2), np.zeros(2), np.zeros(2), 0.5, 1.0, self._pc())
        assert np.array_equal(out, np.zeros(2))

    def test_hand_value_similar_entry(self):
        # (eta*xi + gamma + lam*u) / (c1 + eta) = (0 + 0.1 + 0.2*1) / 1.5 = 0.2
        out = update_slack(
            np.array([0.0, 0.0]), np.array([0.2, 0.0]), np.array([0.1, 0.0]),
            0.5, 1.0, self._pc(),
        )
        assert out[0] == pytest.approx(0.2, abs=1e-12)

    def test_nondecreasing_in_gamma(self):
        pc = self._pc()
        lo = update_slack(np.array([0.1, 0.1]), np.zeros(2), np.array([0.0, 0.0]), 0.5, 1.0, pc)
        hi = update_slack(np.array([0.1, 0.1]), np.zeros(2), np.array([0.3, 0.3]), 0.5, 1.0, pc)
        assert np.all(hi >= lo)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(30)
        pc = self._pc()
        for _ in range(50):
            out = update_slack(
                rng.uniform(0, 1, 2), rng.uniform(0, 1, 2), rng.uniform(0, 1, 2),
                0.5, 1.0, pc,
            )
            assert np.all(out >= 0.0)


class TestUpdateLambda:
    def test_hand_value(self):
        out = update_lambda(np.array([0.5]), np.array([-0.3]), 0.5, 0.2)
        assert out[0] == pytest.approx(0.3, abs=1e-12)  # 0.9*0.5 - 0.15

    def test_satisfied_constraints_keep_zero(self):
        out = update_lambda(np.zeros(3), np.array([-1.0, -0.5, 0.0]), 0.5, 0.2)
        assert np.array_equal(out, np.zeros(3))

    def test_clips_negative(self):
        out = update_lambda(np.array([0.1]), np.array([-10.0]), 0.5, 0.2)
        assert np.array_equal(out, [0.0])

    def test_rejects_large_step(self):
        with pytest.raises(ConfigError):
            update_lambda(np.array([0.1]), np.array([0.0]), 2.0, 0.6)


class TestUpdateGamma:
    def test_hand_value(self):
        out = update_gamma(np.array([0.4]), np.array([0.1]), 0.5, 0.2)
        assert out[0] == pytest.approx(0.31, abs=1e-12)  # 0.9*0.4 - 0.05

    def test_zero_stays_zero_for_nonnegative_slack(self):
        out = update_gamma(np.zeros(2), np.array([0.5, 0.0]), 0.5, 0.2)
        assert np.array_equal(out, np.zeros(2))

    def test_geometric_shrink_with_zero_slack(self):
        gamma = np.array([1.0])
        for t in range(5):
            new = update_gamma(gamma, np.zeros(1), 0.5, 0.2)
            assert new[0] == pytest.approx(0.9 * gamma[0], abs=1e-15)
            gamma = new


class TestTrain:
    def test_zero_iterations_returns_reference(self):
        rng = np.random.default_rng(40)
        feats, labels = blob_data(rng)
        model = train(feats, labels, RpdmlConfig(outer_iters=0, seed=0))
        assert np.array_equal(model.w.mat, model.w0.mat)
        assert np.array_equal(model.w0.mat, np.eye(feats.shape[1]))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(41)
        feats, labels = blob_data(rng, n=40)
        cfg = RpdmlConfig(outer_iters=15, seed=5)
        m1 = train(feats, labels, cfg)
        m2 = train(feats, labels, cfg)
        assert np.array_equal(m1.w.mat, m2.w.mat)
        assert m1.u == m2.u and m1.l == m2.l

    def test_violation_shrinks_on_separated_blobs(self):
        rng = np.random.default_rng(42)
        feats, labels = blob_data(rng, n=60, sep=4.0)
        model = train(feats, labels, RpdmlConfig(outer_iters=60, seed=3))
        final = model.trace.records[-1].violation
        assert final <= 0.5 * model.trace.initial_violation

    def test_duals_and_slacks_stay_nonnegative(self):
        rng = np.random.default_rng(43)
        feats, labels = blob_data(rng, n=30)
        model = train(feats, labels, RpdmlConfig(outer_iters=25, seed=2))
        for rec in model.trace.records:
            assert rec.dual_min >= 0.0
            assert rec.extras["slack_min"] >= 0.0
            assert rec.extras["gamma_min"] >= 0.0

    def test_every_iterate_is_spd(self):
        rng = np.random.default_rng(44)
        feats, labels = blob_data(rng, n=30)
        model = train(feats, labels, RpdmlConfig(outer_iters=20, seed=2))
        for rec in model.trace.records:
            SpdMatrix(rec.point[0].mat)  # full invariant validation

    def test_divergence_raises_with_partial_trace(self):
        # The CLI's exit-2 case: the labeled fixture of tests/test_cli.py,
        # normalized, with an aggressive step size.
        ds = generate_synthetic(SyntheticSpec(samples=80, dim=6, informative_dims=3, seed=7))
        feats, _ = normalize_features(ds.features)
        cfg = RpdmlConfig(eta0=0.9, c2=1.0, outer_iters=30, seed=7)
        with pytest.raises(DivergedError, match="at t=1") as exc_info:
            train(feats, ds.labels, cfg)
        trace = exc_info.value.trace
        assert len(trace) == 1
        SpdMatrix(trace.records[0].point[0].mat)  # full invariant validation

    def test_initial_violation_positive_on_continuous_data(self):
        rng = np.random.default_rng(45)
        feats, labels = blob_data(rng, n=50)
        pc = build_pairs(feats, labels, 200, 0)
        assert pc.n_similar >= 20 and pc.n_dissimilar >= 20
        model = train(feats, labels, RpdmlConfig(outer_iters=1, seed=0))
        assert model.trace.initial_violation > 0.0

    def test_carried_inverse_matches_fresh_inverse_replay(self):
        # train passes each solve's returned W^-1 into the next solve.
        # Replaying the run with a freshly inverted W_t and the duals rebuilt
        # from the trace must land on the same iterates.
        rng = np.random.default_rng(48)
        feats, labels = blob_data(rng, n=40)
        cfg = RpdmlConfig(outer_iters=20, seed=4)
        model = train(feats, labels, cfg)
        assert len(model.trace) == 20
        pc = build_pairs(feats, labels, cfg.max_pairs_per_side, cfg.seed)
        pc = pc.without_degenerate_rows().with_bounds(model.u, model.l)
        m = pc.n_constraints
        w0_inv = spd_inverse(model.w0).mat
        w_t, lam = model.w0, np.zeros(2 * m)
        for rec in model.trace.records:
            w, _ = inner_solve_w(spd_inverse(w_t).mat, lam[:m], w0_inv, rec.eta, pc)
            ref = rec.point[0].mat
            assert np.linalg.norm(w.mat - ref) <= 1e-10 * np.linalg.norm(ref)
            lam = dual_ascent_step(lam, rec.h, rec.eta, cfg.c2)
            w_t = rec.point[0]

    def test_inverse_covariance_reference(self):
        rng = np.random.default_rng(46)
        feats, labels = blob_data(rng, n=40)
        cfg = RpdmlConfig(outer_iters=0, seed=0, w0_mode="inverse_covariance")
        model = train(feats, labels, cfg)
        expected = np.linalg.inv(np.cov(feats, rowvar=False) + 1e-6 * np.eye(feats.shape[1]))
        assert np.allclose(model.w0.mat, expected, atol=1e-8)

    @pytest.mark.parametrize("w0_mode", ["identity", "inverse_covariance"])
    def test_one_spd_inverse_per_train(self, w0_mode, monkeypatch):
        # W0^-1 is carried from W0's construction and W*^-1 from each solve.
        calls = []

        def counting(a):
            calls.append(a)
            return spd_inverse(a)

        monkeypatch.setattr(metric_module, "spd_inverse", counting)
        rng = np.random.default_rng(47)
        feats, labels = blob_data(rng, n=40)
        train(feats, labels, RpdmlConfig(outer_iters=10, seed=0, w0_mode=w0_mode))
        assert len(calls) == 1


class TestModelSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(50)
        feats, labels = blob_data(rng, n=30)
        model = train(feats, labels, RpdmlConfig(outer_iters=5, seed=1))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = MetricModel.load(path)
        assert np.array_equal(loaded.w.mat, model.w.mat)
        assert np.array_equal(loaded.w0.mat, model.w0.mat)
        assert loaded.u == model.u and loaded.l == model.l


class TestConfigValidation:
    def test_rejects_bad_dual_step(self):
        with pytest.raises(ConfigError):
            RpdmlConfig(c2=3.0, eta0=0.5)

    def test_rejects_bad_percentiles(self):
        with pytest.raises(ConfigError):
            RpdmlConfig(percentile_lo=95, percentile_hi=5)

    def test_rejects_unknown_modes(self):
        with pytest.raises(ConfigError):
            RpdmlConfig(w0_mode="zeros")


class TestInverseCovarianceMetric:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(51)
        feats = rng.normal(size=(30, 4))
        got = inverse_covariance_metric(feats)
        expected = np.linalg.inv(np.cov(feats, rowvar=False) + 1e-6 * np.eye(4))
        assert np.allclose(got.mat, expected, atol=1e-8)
