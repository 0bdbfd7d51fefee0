import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpdml import metric as metric_module
from rpdml.data import (
    PanelDataset,
    PanelPeriod,
    SyntheticSpec,
    generate_synthetic,
    normalize_features,
)
from rpdml.errors import (
    BoundsError,
    ConfigError,
    ConstraintBuildError,
    DimensionMismatchError,
    DivergedError,
    InnerSolveError,
    RpdmlError,
)
from rpdml.evaluation import window_predictions
from rpdml.manifold import EPS_PD, SpdMatrix, rowwise_quadratic, spd_inverse
from rpdml.metric import (
    W0_MODES,
    BoundedPairs,
    MetricModel,
    RpdmlConfig,
    build_pairs,
    compute_bounds,
    eval_h,
    grad_h_contraction,
    inner_solve_w,
    inverse_covariance_metric,
    train,
    train_many,
    update_gamma,
    update_lambda,
    update_slack,
)
from rpdml.solver import SaddleProblem, SolverConfig, dual_ascent_step, positive_part, run

from oracles import build_pairs as enumerated_pairs
from oracles import bounded_window, inner_gradient, inner_objective, sides, stack_pairs, window_pairs


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
        pc = build_pairs(feats[None], np.array(["a", "a", "b"])[None], max_pairs=100, seed=0)[0]
        assert pc.counts.tolist() == [[1, 2]]
        assert np.array_equal(sides(pc)[0], [[-1.0, 0.0]])  # x0 - x1
        assert np.array_equal(sides(pc)[1], [[0.0, -2.0], [1.0, -2.0]])

    def test_duplicate_rows_give_zero_row(self):
        feats = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 3.0]])
        pc = build_pairs(feats[None], np.array([0, 0, 1])[None], max_pairs=10, seed=0)[0]
        assert np.array_equal(sides(pc)[0], [[0.0, 0.0]])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        feats, labels = blob_data(rng, n=40)
        a = build_pairs(feats[None], labels[None], max_pairs=50, seed=123)[0]
        b = build_pairs(feats[None], labels[None], max_pairs=50, seed=123)[0]
        assert np.array_equal(sides(a)[0], sides(b)[0])
        assert np.array_equal(sides(a)[1], sides(b)[1])
        c = build_pairs(feats[None], labels[None], max_pairs=50, seed=124)[0]
        assert not np.array_equal(sides(a)[0], sides(c)[0])

    def test_cap_is_respected(self):
        rng = np.random.default_rng(12)
        feats, labels = blob_data(rng, n=40)
        pc = build_pairs(feats[None], labels[None], max_pairs=25, seed=0)[0]
        assert pc.counts.tolist() == [[25, 25]]

    def test_errors(self):
        with pytest.raises(ConstraintBuildError):
            build_pairs(np.ones((1, 2))[None], np.array([0])[None], 10, 0)
        with pytest.raises(ConstraintBuildError):
            build_pairs(np.ones((3, 2))[None], np.array([0, 0, 0])[None], 10, 0)  # one label
        with pytest.raises(ConstraintBuildError):
            # all classes singletons: no similar pair
            build_pairs(np.ones((2, 2))[None], np.array([0, 1])[None], 10, 0)
        with pytest.raises(DimensionMismatchError):  # one window, not a stack of them
            build_pairs(np.ones((3, 2)), np.array([0, 0, 1]), 10, 0)

    def test_degenerate_row_dropping(self):
        pc = window_pairs(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 2.0]]))
        cleaned = pc.without_degenerate_rows()
        assert cleaned.counts.tolist() == [[1, 1]]
        assert np.array_equal(sides(cleaned)[0], [[1.0, 0.0]])


def side_counts(labels):
    """(same-label, different-label) pair counts of one window's labels."""
    _, sizes = np.unique(labels, return_counts=True)
    same = int((sizes * (sizes - 1) // 2).sum())
    return same, labels.size * (labels.size - 1) // 2 - same


class TestBuildPairsUnranking:
    """``build_pairs`` unranks its draw; the oracle enumerates the triangle."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 200), classes=st.integers(2, 6),
           n_windows=st.sampled_from([1, 3]), singletons=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_the_enumerated_triangle(self, data, n, classes, n_windows,
                                                      singletons, seed):
        # Each window splits its rows its own way; the last rows may be
        # singleton classes (labels no other row has).
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, classes, size=(n_windows, n))
        labels[:, n - min(singletons, n):] = classes + np.arange(min(singletons, n))
        features = rng.normal(size=(n_windows, n, 3))
        # Caps below, at and above each side's count in the first window.
        caps = [c + k for c in side_counts(labels[0]) for k in (-1, 0, 1) if c + k >= 1]
        max_pairs = data.draw(st.sampled_from(caps + [1, 400]), label="max_pairs")
        try:
            want = enumerated_pairs(features, labels, max_pairs, seed)
        except ConstraintBuildError as exc:
            with pytest.raises(ConstraintBuildError, match=f"^{re.escape(str(exc))}$"):
                build_pairs(features, labels, max_pairs, seed)
            return
        got = build_pairs(features, labels, max_pairs, seed)
        assert len(got) == n_windows
        for g, w in zip(got, want):
            assert g.counts.tolist() == w.counts.tolist()
            assert g.diffs.tobytes() == w.diffs.tobytes()

    @pytest.mark.parametrize("labels", [["b", "a", "b", "c", "a"], [2.5, -1.0, 2.5, 2.5, 0.0]])
    def test_labels_of_any_sortable_dtype(self, labels):
        features = np.random.default_rng(0).normal(size=(1, 5, 2))
        for max_pairs in (1, 2, 10):
            got = build_pairs(features, np.array([labels]), max_pairs, 3)[0]
            want = enumerated_pairs(features, np.array([labels]), max_pairs, 3)[0]
            assert got.diffs.tobytes() == want.diffs.tobytes() and got.counts.tolist() == want.counts.tolist()

    def test_peak_memory_is_linear_in_rows(self):
        # The triangle of 8000 rows alone would take ~1 GiB of indices and mask.
        rng = np.random.default_rng(0)
        features, labels = rng.normal(size=(1, 8000, 20)), rng.integers(0, 3, size=(1, 8000))
        tracemalloc.start()
        try:
            pc = build_pairs(features, labels, 200, 0)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pc.counts.tolist() == [[200, 200]]
        assert peak < 8 * 2**20


class TestComputeBounds:
    def test_nearest_rank_on_1_to_100(self):
        u, l = compute_bounds(np.arange(1.0, 101.0)[None], 5, 95)
        assert (u.tolist(), l.tolist()) == ([5.0], [95.0])

    def test_constant_distances_error(self):
        with pytest.raises(BoundsError):
            compute_bounds(np.full(50, 2.5)[None], 5, 95)

    def test_single_value_error(self):
        with pytest.raises(BoundsError):
            compute_bounds(np.array([[3.0]]), 5, 95)

    def test_empty_sample_error(self):
        with pytest.raises(BoundsError, match="distance sample is empty"):
            compute_bounds(np.empty((1, 0)), 5, 95)

    def test_bad_percentiles(self):
        with pytest.raises(ConfigError):
            compute_bounds(np.arange(10.0)[None], 95, 5)

    def test_stack_equals_each_row_alone(self):
        rng = np.random.default_rng(5)
        rows = rng.exponential(size=(4, 37))
        u, l = compute_bounds(rows, 5, 95)
        assert u.shape == l.shape == (4,)
        for row, u_b, l_b in zip(rows, u, l):
            [u_alone], [l_alone] = compute_bounds(row[None], 5, 95)
            assert (u_alone, l_alone) == (u_b, l_b)

    def test_stack_names_the_first_degenerate_row(self):
        rows = np.vstack([np.arange(1.0, 51.0), np.full(50, 2.5), np.full(50, 7.0)])
        with pytest.raises(BoundsError, match=r"u = l = 2\.5\)"):
            compute_bounds(rows, 5, 95)


class TestPairConstraints:
    @pytest.mark.parametrize("side", [0, 1])
    def test_a_side_of_only_zero_rows_is_rejected(self, side):
        rows = [np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]])]
        pc = window_pairs(*(rows if side == 0 else rows[::-1]))
        with pytest.raises(ConstraintBuildError, match="all pairs on one side are degenerate"):
            pc.without_degenerate_rows()

    def test_bound_validation(self):
        pc = window_pairs(np.ones((1, 2)), np.ones((1, 2)))
        for u, l in ((2.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (1.0, float("nan"))):
            with pytest.raises(ConfigError, match="0 < u < l"):
                pc.bounded(np.array([u]), np.array([l]))

    def test_bound_vector_layout(self):
        pc = window_pairs(np.ones((2, 3)), np.ones((3, 3)))
        assert np.array_equal(pc.bounded(np.array([1.0]), np.array([4.0])).bounds, [[1.0, 1.0, 4.0, 4.0, 4.0]])

    def test_with_bounds_shares_the_stacked_rows(self):
        # bounded shares the read-only rows and signs (as views on a leading
        # window axis) and adds read-only bounds; the unbounded pairs are left
        # as they were.
        pc = window_pairs(np.ones((2, 3)), 2 * np.ones((3, 3)))
        pairs = pc.bounded(np.array([1.0]), np.array([4.0]))
        assert pairs.diffs.base is pc.diffs and pairs.signs.base is pc.signs
        assert not hasattr(pc, "bounds")
        assert np.array_equal(pairs.bounds, [[1.0, 1.0, 4.0, 4.0, 4.0]])
        assert not pairs.bounds.flags.writeable
        for u, l in ((2.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(ConfigError):
                pc.bounded(np.array([u]), np.array([l]))


class TestEvalH:
    def test_similar_boundary_case(self):
        pc = bounded_window(window_pairs([[1.0, 0.0]], [[9.0, 9.0]]), 1.0, 200.0)
        h = eval_h(SpdMatrix.identity(2), np.zeros(2), pc)
        assert h[0] == pytest.approx(0.0, abs=1e-12)  # 1 - 1

    def test_dissimilar_hand_value(self):
        pc = bounded_window(window_pairs([[0.1, 0.0]], [[2.0, 0.0]]), 0.5, 1.0)
        h = eval_h(SpdMatrix.identity(2), np.zeros(2), pc)
        assert h[1] == pytest.approx(-3.0, abs=1e-12)  # -4 + 1

    def test_slack_decreases_similar_entry(self):
        pc = bounded_window(window_pairs([[1.0, 0.0]], [[2.0, 0.0]]), 1.0, 3.0)
        h0 = eval_h(SpdMatrix.identity(2), np.array([0.0, 0.0]), pc)
        h1 = eval_h(SpdMatrix.identity(2), np.array([0.5, 0.0]), pc)
        assert h1[0] < h0[0]

    def test_dimension_mismatch(self):
        pc = bounded_window(window_pairs([[1.0, 0.0]], [[2.0, 0.0]]), 1.0, 3.0)
        with pytest.raises(DimensionMismatchError):
            eval_h(SpdMatrix.identity(3), np.zeros(2), pc)


class TestStackedEvalH:
    @pytest.mark.parametrize("m, dim", [(1, 5), (7, 5), (400, 12)])
    @pytest.mark.parametrize("n_windows", [1, 3])
    def test_bitwise_equal_to_per_window_rowwise_quadratic(self, n_windows, m, dim):
        # Each window's h from the one batched product equals the one-window
        # formula with ``rowwise_quadratic``, bit for bit.
        rng = np.random.default_rng(10 * n_windows + m)
        mats = np.stack([rand_spd(dim, rng).mat for _ in range(n_windows)])
        windows = [BoundedPairs(rng.normal(size=(m, dim)) * rng.uniform(0.1, 10.0),
                                rng.choice([-1.0, 1.0], m), rng.uniform(0.5, 3.0, m))
                   for _ in range(n_windows)]
        xi = rng.uniform(0.0, 2.0, (n_windows, m))
        h = eval_h(SpdMatrix._trusted(mats), xi, stack_pairs(windows))
        assert h.shape == (n_windows, m)
        for b, pairs in enumerate(windows):
            q = rowwise_quadratic(mats[b], pairs.diffs)
            want = pairs.signs * (q - pairs.bounds) - pairs.bounds * xi[b]
            assert h[b].tobytes() == want.tobytes()
            assert eval_h(SpdMatrix._trusted(mats[b]), xi[b], pairs).tobytes() == want.tobytes()


class TestGradHContraction:
    def test_zero_dual(self):
        pc = bounded_window(window_pairs([[1.0, 0.0]], [[0.0, 1.0]]), 1.0, 2.0)
        assert np.array_equal(grad_h_contraction(np.zeros(2), pc), np.zeros((2, 2)))

    def test_single_similar_pair(self):
        pc = bounded_window(window_pairs([[1.0, 0.0]], [[5.0, 5.0]]), 1.0, 200.0)
        out = grad_h_contraction(np.array([2.0, 0.0]), pc)
        assert np.array_equal(out, [[2.0, 0.0], [0.0, 0.0]])

    def test_single_dissimilar_pair(self):
        pc = bounded_window(window_pairs([[5.0, 5.0]], [[0.0, 1.0]]), 1.0, 200.0)
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
        pc = bounded_window(window_pairs(sd, dd), u, l)
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

    @pytest.mark.parametrize("stacked", [False, True])
    def test_dropping_rows_keeps_rows_signs_bounds_aligned(self, stacked):
        sd = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 1.0]]
        dd = [[3.0, 0.0], [0.0, 0.0], [0.0, 4.0]]
        pc = window_pairs(sd, dd).without_degenerate_rows()
        assert (pc.counts.tolist(), pc.diffs.shape[0]) == ([[2, 2]], 4)
        pairs, w = bounded_window(pc, 1.0, 5.0), SpdMatrix.identity(2)
        if stacked:  # two copies of the window side by side
            pairs = stack_pairs([pairs, pairs])
            w = SpdMatrix._trusted(np.stack([w.mat, w.mat]))
        lead = (2,) if stacked else ()
        assert pairs.diffs.shape == lead + (4, 2)
        for arr, row in ((pairs.diffs, [[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [0.0, 4.0]]),
                         (pairs.signs, [1.0, 1.0, -1.0, -1.0]),
                         (pairs.bounds, [1.0, 1.0, 5.0, 5.0]),
                         # h at W = I: [1 - 1, 5 - 1, -9 + 5, -16 + 5].
                         (eval_h(w, np.zeros(lead + (4,)), pairs), [0.0, 4.0, -4.0, -11.0])):
            assert np.array_equal(arr, np.broadcast_to(row, lead + np.shape(row)))

    def test_arrays_are_read_only_and_bounds_cached(self):
        pc = window_pairs(np.ones((2, 3)), np.ones((1, 3)))
        pairs = bounded_window(pc, 1.0, 2.0)
        stack = stack_pairs([pairs, bounded_window(pc, 0.5, 3.0)])
        assert np.array_equal(stack.bounds, [[1.0, 1.0, 2.0], [0.5, 0.5, 3.0]])
        for arr in (pc.diffs, pc.signs, pairs.diffs, pairs.signs,
                    pairs.bounds, stack.diffs, stack.signs, stack.bounds):
            with pytest.raises(ValueError):
                arr[0] = 7.0


class TestInnerGradient:
    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(n * 10)
        w, w0, w_t = rand_spd(n, rng), rand_spd(n, rng), rand_spd(n, rng)
        pc = bounded_window(window_pairs(
            rng.normal(size=(4, n)), rng.normal(size=(5, n))), 1.0, 3.0)
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
        pc = bounded_window(window_pairs(rng.normal(size=(2, 3)), rng.normal(size=(2, 3))), 1.0, 2.0)
        w0_inv = spd_inverse(w0).mat
        out, _, _ = inner_solve_w(w0_inv, np.zeros(4), w0_inv, 0.5, pc)
        assert np.allclose(out.mat, w0.mat, atol=1e-12)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            w0, w_t = rand_spd(3, rng), rand_spd(3, rng)
            pc = bounded_window(window_pairs(
                rng.normal(size=(3, 3)), rng.normal(size=(3, 3))), 1.0, 3.0)
            lam = rng.uniform(0.0, 0.1, 6)
            eta = 0.2
            out, _, _ = inner_solve_w(spd_inverse(w_t).mat, lam, spd_inverse(w0).mat, eta, pc)
            j_start = inner_objective(w_t.mat, w_t, lam, w0, eta, pc)
            j_end = inner_objective(out.mat, w_t, lam, w0, eta, pc)
            assert j_end <= j_start + 1e-12

    def test_output_is_spd(self):
        rng = np.random.default_rng(23)
        w0, w_t = rand_spd(3, rng), rand_spd(3, rng)
        pc = bounded_window(window_pairs(rng.normal(size=(3, 3)), rng.normal(size=(3, 3))), 1.0, 3.0)
        out, _, _ = inner_solve_w(spd_inverse(w_t).mat, rng.uniform(0, 0.05, 6),
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
            pc = bounded_window(window_pairs(
                rng.normal(size=(3, 4)), rng.normal(size=(3, 4))), 1.0, 3.0)
            lam = rng.uniform(0.0, 0.05, 6)
            eta = 0.4
            m_lin = (0.5 * np.linalg.inv(w0.mat)
                     + grad_h_contraction(lam, pc)
                     + np.linalg.inv(w_t.mat) / (2.0 * eta))
            if np.min(np.linalg.eigvalsh(0.5 * (m_lin + m_lin.T))) <= 0:
                continue
            c = 0.5 + 1.0 / (2.0 * eta)
            w_star = c * np.linalg.inv(0.5 * (m_lin + m_lin.T))
            out, _, _ = inner_solve_w(spd_inverse(w_t).mat, lam, spd_inverse(w0).mat, eta, pc)
            assert np.linalg.norm(out.mat - w_star) <= 1e-10 * max(1.0, np.linalg.norm(w_star))
            checked += 1
        assert checked >= 3

    def test_non_pd_subproblem_raises(self):
        # A heavily weighted dissimilar pair pulls M = I/2 + I/(2 eta) - 10 e2 e2.T
        # below zero along e2: J decreases without bound along that ray.
        eye = np.eye(2)
        pc = bounded_window(window_pairs([[1.0, 0.0]], [[0.0, 1.0]]), 1.0, 2.0)
        with pytest.raises(InnerSolveError, match="unbounded below"):
            inner_solve_w(eye, np.array([0.0, 10.0]), eye, 0.5, pc)

    def test_step_that_could_cross_the_floor_is_refused(self):
        # W*^-1 = M / c = diag(1e10 + 0.5, 1.5) / 1.5: its trace exceeds
        # 1 / EPS_PD, so lambda_min(W*) >= 1 / tr(W*^-1) no longer keeps W*
        # on the floor.  The step is refused, not clipped.
        pc = bounded_window(window_pairs([[1.0, 0.0]], [[0.0, 1.0]]), 1.0, 2.0)
        with pytest.raises(InnerSolveError, match="floor"):
            inner_solve_w(np.diag([1e10, 1.0]), np.zeros(2), np.eye(2), 0.5, pc)

    def test_floor_refusal_ends_the_run_with_its_partial_trace(self):
        # W0^-1 = diag(1.5e8, 1) pulls each W*^-1 = M / c toward it: its trace
        # is 7.5e7 + 1 at t=0 and passes 1 / EPS_PD at t=1.  The rows keep
        # W[1, 1] = 1 feasible (h = [-1, -1]), so the dual stays 0.
        pc = bounded_window(window_pairs([[0.0, 1.0]], [[0.0, 2.0]]), 2.0, 3.0)
        w0_inv, w_inv = np.diag([1.5e8, 1.0]), np.eye(2)
        iterates = []

        def inner(w, lam, eta):
            nonlocal w_inv
            w_next, w_inv, _ = inner_solve_w(w_inv, lam, w0_inv, eta, pc)
            iterates.append(w_next)
            return w_next

        problem = SaddleProblem(lambda w: 0.0, lambda w: eval_h(w, np.zeros(2), pc), inner)
        with pytest.raises(DivergedError, match="at t=1: .*floor") as exc_info:
            run(problem, SpdMatrix.identity(2), SolverConfig(alpha=1.0, eta0=1.0, iters=5))
        trace = exc_info.value.trace
        assert len(trace) == 1 and trace.final_point is iterates[0]
        assert trace.records[0].dual_norm == 0.0
        SpdMatrix(trace.final_point.mat)  # full invariant validation

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
        pc = bounded_window(window_pairs(rng.normal(size=(3, n)), rng.normal(size=(3, n))), 1.0, 3.0)
        lam = rng.uniform(0.0, lam_scale, 6)
        m_lin = (0.5 * np.linalg.inv(w0.mat) + grad_h_contraction(lam, pc)
                 + np.linalg.inv(w_t.mat) / (2.0 * eta))
        w_t_inv, w0_inv = spd_inverse(w_t).mat, spd_inverse(w0).mat
        if np.min(np.linalg.eigvalsh(0.5 * (m_lin + m_lin.T))) <= 0:
            with pytest.raises(InnerSolveError):
                inner_solve_w(w_t_inv, lam, w0_inv, eta, pc)
            return
        out, out_inv, out_logdet = inner_solve_w(w_t_inv, lam, w0_inv, eta, pc)
        # The returned inverse and logdet come from the same factorization as W*.
        assert np.linalg.norm(out_inv @ out.mat - np.eye(n)) <= 1e-10 * np.sqrt(n)
        sign, logdet = np.linalg.slogdet(out.mat)
        assert sign > 0 and abs(out_logdet - logdet) <= 1e-10 * max(1.0, abs(logdet))
        grad = inner_gradient(out.mat, w_t, lam, w0, eta, pc)
        assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(m_lin))
        j_out = inner_objective(out.mat, w_t, lam, w0, eta, pc)
        j_start = inner_objective(w_t.mat, w_t, lam, w0, eta, pc)
        assert j_out <= j_start + 1e-12 * max(1.0, abs(j_start))


class TestUpdateSlack:
    def _pc(self):
        return bounded_window(window_pairs([[1.0, 0.0]], [[2.0, 0.0]]), 1.0, 3.0)

    def test_all_zero_fixed_point(self):
        out = update_slack(np.zeros(2), np.zeros(2), 0.5, 1.0, self._pc())
        assert np.array_equal(out, np.zeros(2))

    def test_hand_value_similar_entry(self):
        # (eta*xi + lam*u) / (c1 + eta) = (0 + 0.3*1) / 1.5 = 0.2
        out = update_slack(np.array([0.0, 0.0]), np.array([0.3, 0.0]), 0.5, 1.0, self._pc())
        assert out[0] == pytest.approx(0.2, abs=1e-12)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(30)
        pc = self._pc()
        for _ in range(50):
            out = update_slack(rng.uniform(0, 1, 2), rng.uniform(0, 1, 2), 0.5, 1.0, pc)
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
        model = train(feats, labels, RpdmlConfig(iters=0, seed=0))
        assert np.array_equal(model.w.mat, model.w0.mat)
        assert np.array_equal(model.w0.mat, np.eye(feats.shape[1]))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(41)
        feats, labels = blob_data(rng, n=40)
        cfg = RpdmlConfig(iters=15, seed=5)
        m1 = train(feats, labels, cfg)
        m2 = train(feats, labels, cfg)
        assert np.array_equal(m1.w.mat, m2.w.mat)
        assert m1.u == m2.u and m1.l == m2.l

    def test_violation_shrinks_on_separated_blobs(self):
        rng = np.random.default_rng(42)
        feats, labels = blob_data(rng, n=60, sep=4.0)
        model = train(feats, labels, RpdmlConfig(iters=60, seed=3))
        final = model.trace.records[-1].violation
        assert final <= 0.5 * model.trace.initial_violation

    def test_duals_and_slacks_stay_nonnegative(self):
        rng = np.random.default_rng(43)
        feats, labels = blob_data(rng, n=30)
        model = train(feats, labels, RpdmlConfig(iters=25, seed=2))
        for rec in model.trace.records:
            assert rec.dual_min >= 0.0
            assert rec.extras["slack_min"] >= 0.0
            assert rec.extras["gamma_min"] >= 0.0

    def test_every_iterate_is_spd(self, train_iterates):
        rng = np.random.default_rng(44)
        feats, labels = blob_data(rng, n=30)
        train(feats, labels, RpdmlConfig(iters=20, seed=2))
        assert len(train_iterates) == 20
        for w, _ in train_iterates:
            SpdMatrix(w.mat)  # full invariant validation

    def test_divergence_raises_with_partial_trace(self):
        # The CLI's exit-2 case: the labeled fixture of tests/test_cli.py,
        # normalized, with an aggressive step size.
        ds = generate_synthetic(SyntheticSpec(samples=80, dim=6, informative_dims=3, seed=7))
        feats, _ = normalize_features(ds.features)
        cfg = RpdmlConfig(eta0=0.9, c2=1.0, iters=30, seed=7)
        with pytest.raises(DivergedError, match="at t=1") as exc_info:
            train(feats, ds.labels, cfg)
        trace = exc_info.value.trace
        assert len(trace) == 1
        SpdMatrix(trace.final_point[0].mat)  # the t=0 iterate, fully validated

    def test_initial_violation_positive_on_continuous_data(self):
        rng = np.random.default_rng(45)
        feats, labels = blob_data(rng, n=50)
        pc = build_pairs(feats[None], labels[None], 200, 0)[0]
        assert pc.counts.min() >= 20
        model = train(feats, labels, RpdmlConfig(iters=1, seed=0))
        assert model.trace.initial_violation > 0.0

    def test_carried_inverse_matches_fresh_inverse_replay(self, train_iterates):
        # train passes each solve's returned W^-1 into the next solve.
        # Replaying the run with a freshly inverted W_t and the duals rebuilt
        # from the trace must land on the same iterates.
        rng = np.random.default_rng(48)
        feats, labels = blob_data(rng, n=40)
        cfg = RpdmlConfig(iters=20, seed=4)
        model = train(feats, labels, cfg)
        assert len(model.trace) == 20
        pc = build_pairs(feats[None], labels[None], cfg.max_pairs, cfg.seed)[0]
        pc = bounded_window(pc.without_degenerate_rows(), model.u, model.l)
        m = pc.signs.size
        w0_inv = spd_inverse(model.w0).mat
        w_t, lam = model.w0, np.zeros(m)
        for rec, (w_run, xi_run) in zip(model.trace.records, train_iterates, strict=True):
            w, _, _ = inner_solve_w(spd_inverse(w_t).mat, lam, w0_inv, rec.eta, pc)
            ref = w_run.mat
            assert np.linalg.norm(w.mat - ref) <= 1e-10 * np.linalg.norm(ref)
            lam = dual_ascent_step(lam, eval_h(w_run, xi_run, pc), rec.eta, cfg.c2)
            w_t = w_run

    def test_objective_holds_at_any_point(self, monkeypatch):
        # A point carries its own W^-1 and log det W, so f is right at x0
        # after the run has moved on, and at the last iterate.
        runs = []

        def keep_problem(problem, x0, config):
            runs.append((problem, x0))
            return run(problem, x0, config)

        monkeypatch.setattr(metric_module, "run", keep_problem)
        rng = np.random.default_rng(49)
        feats, labels = blob_data(rng, n=40)
        cfg = RpdmlConfig(iters=10, seed=4, w0="inverse_covariance")
        model = train(feats, labels, cfg)
        [(problem, x0)] = runs
        assert problem.objective(x0) == pytest.approx(0.0, abs=1e-9)
        w, xi = model.w.mat, model.trace.final_point[1]
        w0_inv = np.linalg.inv(model.w0.mat)
        d2 = np.trace(w @ w0_inv) - np.linalg.slogdet(w @ w0_inv)[1] - w.shape[0]
        want = 0.5 * d2 + 0.5 * cfg.c1 * xi @ xi
        assert problem.objective(model.trace.final_point) == pytest.approx(want, rel=1e-9)
        assert problem.objective(model.trace.final_point) == model.trace.records[-1].objective

    def test_inverse_covariance_reference(self):
        rng = np.random.default_rng(46)
        feats, labels = blob_data(rng, n=40)
        cfg = RpdmlConfig(iters=0, seed=0, w0="inverse_covariance")
        model = train(feats, labels, cfg)
        expected = np.linalg.inv(np.cov(feats, rowvar=False) + 1e-6 * np.eye(feats.shape[1]))
        assert np.allclose(model.w0.mat, expected, atol=1e-8)

    @pytest.mark.parametrize("w0", ["identity", "inverse_covariance"])
    def test_one_spd_inverse_per_train(self, w0, monkeypatch):
        # W0^-1 is carried from W0's construction and W*^-1 from each solve;
        # the identity W0 is its own inverse and needs none.
        calls = []

        def counting(a):
            calls.append(a)
            return spd_inverse(a)

        monkeypatch.setattr(metric_module, "spd_inverse", counting)
        rng = np.random.default_rng(47)
        feats, labels = blob_data(rng, n=40)
        train(feats, labels, RpdmlConfig(iters=10, seed=0, w0=w0))
        assert len(calls) == (0 if w0 == "identity" else 1)


class TestTrainMemory:
    def test_peak_does_not_grow_with_iterations(self):
        # README-shape train (d=20, the --train-frac 0.5 half).  A run holds
        # one iterate at a time and one record of scalars (~0.5 KB) per
        # iteration, so 800 more iterations add well under 1 MiB; keeping
        # every iterate's (W, xi, h) would add ~8 MiB.
        ds = generate_synthetic(SyntheticSpec(samples=200, dim=20, informative_dims=4,
                                              noise_scale=3.0, seed=7))
        feats, _ = normalize_features(ds.features[:100])
        peaks = {}
        tracemalloc.start()
        try:
            # A first, one-iteration run takes the one-time allocations.
            for iters in (1, 200, 1000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                train(feats, ds.labels[:100], RpdmlConfig(iters=iters, seed=7))
                peaks[iters] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks[1000] - peaks[200] < 2**20, peaks


def median_split_windows(features_list, rng):
    """(features, labels) windows labeled as the backtest labels them: above or
    below the median of random targets."""
    windows = []
    for features in features_list:
        targets = rng.normal(size=features.shape[0])
        windows.append((features, (targets > np.median(targets)).astype(int)))
    return windows


class TestTrainMany:
    SIZES = (16, 20, 16, 24, 20)

    def _windows(self, dim):
        rng = np.random.default_rng(dim)
        features = [rng.normal(size=(n, dim)) for n in self.SIZES]
        features[1][1] = features[1][0]  # one zero-difference pair, dropped
        return median_split_windows(features, rng)

    @pytest.mark.parametrize("max_pairs, groups", [(5, 1), (1000, 4)])
    @pytest.mark.parametrize("w0", W0_MODES)
    @pytest.mark.parametrize("dim", [2, 12])
    def test_bitwise_equal_to_train_per_window(self, dim, w0, max_pairs, groups):
        windows = self._windows(dim)
        config = RpdmlConfig(iters=15, w0=w0, max_pairs=max_pairs, seed=4)
        pair_counts = {build_pairs(f[None], y[None], max_pairs, 4)[0].without_degenerate_rows().diffs.shape[0]
                       for f, y in windows}
        assert len(pair_counts) == groups
        got = train_many(windows, config)
        assert len(got) == len(windows)
        for (features, labels), w in zip(windows, got):
            assert w.mat.shape == (dim, dim)
            assert w.mat.tobytes() == train(features, labels, config).w.mat.tobytes()

    def test_no_window(self):
        assert train_many([], RpdmlConfig()) == []

    # Nine rows each, targets tied at the median: the windows share one
    # triangle but split 4/5, 1/8, 3/6 and 1/8, so at max_pairs=10 their
    # similar sides draw from populations 16, 28, 18, 28 and their
    # dissimilar sides from 20, 8, 18, 8 (8 is under the cap: no draw).
    TIED_TARGETS = ([0, 0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1, 1, 2],
                    [0, 0, 1, 1, 1, 1, 2, 2, 2], [3, 1, 2, 2, 2, 2, 0, 0, 1])

    def _tied_windows(self):
        rng = np.random.default_rng(8)
        targets = [np.array(t, dtype=float) for t in self.TIED_TARGETS]
        return [(rng.normal(size=(9, 3)), (t > np.median(t)).astype(int)) for t in targets]

    def test_one_row_count_with_different_splits(self):
        windows = self._tied_windows()
        alone = [build_pairs(f[None], y[None], 10, 5)[0] for f, y in windows]
        assert [pc.counts[0].tolist() for pc in alone] == [[10, 10], [10, 8], [10, 10], [10, 8]]
        stacked = build_pairs(np.stack([f for f, _ in windows]), np.stack([y for _, y in windows]), 10, 5)
        for got, want in zip(stacked, alone):
            assert got.diffs.tobytes() == want.diffs.tobytes()
            assert got.counts.tolist() == want.counts.tolist()
        config = RpdmlConfig(iters=15, max_pairs=10, seed=5)
        for (features, labels), w in zip(windows, train_many(windows, config)):
            assert w.mat.tobytes() == train(features, labels, config).w.mat.tobytes()

    def test_each_call_draws_for_its_own_seed(self):
        # No draw carries over between calls: a second call with another
        # seed gets that seed's draws, and the first seed's come back after.
        windows = self._tied_windows()
        features, labels = np.stack([f for f, _ in windows]), np.stack([y for _, y in windows])
        first = build_pairs(features, labels, 10, 1)
        second = build_pairs(features, labels, 10, 2)
        for (f, y), a, b in zip(windows, first, second):
            assert b.diffs.tobytes() == build_pairs(f[None], y[None], 10, 2)[0].diffs.tobytes()
            assert not np.array_equal(sides(a)[0], sides(b)[0])
        again = build_pairs(features, labels, 10, 1)
        assert all(a.diffs.tobytes() == c.diffs.tobytes() for a, c in zip(first, again))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 16), n_windows=st.integers(2, 5), dim=st.integers(1, 4),
           levels=st.integers(2, 5), max_pairs=st.sampled_from([3, 10, 1000]),
           w0=st.sampled_from(W0_MODES), seed=st.integers(0, 2**32 - 1))
    def test_windows_of_one_row_count_equal_train(self, n, n_windows, dim, levels, max_pairs,
                                                  w0, seed):
        # Odd and even row counts, targets on a few levels (ties at the
        # median), so the windows share a triangle but not their splits.
        rng = np.random.default_rng(seed)
        windows = []
        for _ in range(n_windows):
            targets = rng.integers(0, levels, n).astype(float)
            labels = (targets > np.median(targets)).astype(int)
            labels[0] = 1 - labels[0] if labels.min() == labels.max() else labels[0]
            windows.append((rng.normal(size=(n, dim)), labels))
        config = RpdmlConfig(iters=5, w0=w0, max_pairs=max_pairs, seed=int(seed % 1000))
        try:
            want = [train(f, y, config).w.mat.tobytes() for f, y in windows]
        except RpdmlError:
            with pytest.raises(RpdmlError):
                train_many(windows, config)
            return
        assert [w.mat.tobytes() for w in train_many(windows, config)] == want

    def test_failing_window_of_a_shared_group_is_named(self):
        # Every period has nine assets, so all windows share one build_pairs
        # call; the one trained on p2 (trading p3) has a single label.
        rng = np.random.default_rng(1)
        panel = PanelDataset([
            PanelPeriod(f"p{i}", [f"A{j}" for j in range(9)], rng.normal(size=(9, 3)),
                        np.full(9, 0.01) if i == 2 else rng.normal(size=9))
            for i in range(5)])
        config = RpdmlConfig(iters=5, max_pairs=10, seed=3)

        def provider(windows):
            return train_many([(f, (r > np.median(r)).astype(int)) for f, r in windows], config)
        with pytest.raises(ConstraintBuildError, match="^window p3: need at least two distinct labels$"):
            list(window_predictions(panel, provider, k=3))


class TestStackedPairSetUp:
    """``_prepare`` keeps the pairs stacked from the draw to the bounded
    groups; each window's rows, signs, bounds and W0 must be those that its
    own set-up gives: its ``build_pairs`` draw without degenerate rows, the
    bounds from ``rowwise_quadratic`` distances under its W0, and ``train``."""

    @settings(max_examples=60, deadline=None)
    @given(n_windows=st.integers(2, 6), rows=st.sampled_from([(9,), (12,), (9, 12)]),
           dim=st.integers(1, 4), max_pairs=st.sampled_from([3, 10, 1000]),
           w0=st.sampled_from(W0_MODES), seed=st.integers(0, 2**32 - 1))
    def test_each_window_equals_its_own_set_up(self, n_windows, rows, dim, max_pairs, w0, seed):
        rng = np.random.default_rng(seed)
        windows = []
        for b in range(n_windows):
            n = rows[b % len(rows)]
            features = rng.normal(size=(n, dim))
            if b == 1:  # zero-difference pairs: this window's pair count falls
                features[1] = features[0]
                features[4] = features[3]
            labels = np.zeros(n, dtype=int)
            labels[rng.permutation(n)[: n // 2]] = 1
            windows.append((features, labels))
        config = RpdmlConfig(iters=3, w0=w0, max_pairs=max_pairs, seed=int(seed % 1000))
        try:
            groups = metric_module._prepare(windows, config)
        except RpdmlError:
            with pytest.raises(RpdmlError):
                for features, labels in windows:
                    train(features, labels, config)
            return
        seen = []
        for idx, pairs, w0s, w0_inv, _, u, l in groups:
            assert pairs.diffs.shape[:2] == pairs.signs.shape == pairs.bounds.shape
            for j, i in enumerate(idx):
                features, labels = windows[i]
                pc = build_pairs(features[None], labels[None], max_pairs, config.seed)[0]
                pc = pc.without_degenerate_rows()
                ref = (inverse_covariance_metric(features) if w0 == "inverse_covariance"
                       else SpdMatrix.identity(dim))
                [u_i], [l_i] = compute_bounds(rowwise_quadratic(ref.mat, pc.diffs)[None], 5, 95)
                want = bounded_window(pc, u_i, l_i)
                for name in ("diffs", "signs", "bounds"):
                    assert getattr(pairs, name)[j].tobytes() == getattr(want, name).tobytes()
                assert w0s.mat[j].tobytes() == ref.mat.tobytes()
                assert (u[j], l[j]) == (u_i, l_i)
                model = train(features, labels, config)
                assert (model.u, model.l) == (u_i, l_i)
                assert model.w0.mat.tobytes() == ref.mat.tobytes()
                seen.append(i)
        assert sorted(seen) == list(range(n_windows))
        fitted = train_many(windows, config)
        for (features, labels), w in zip(windows, fitted):
            assert w.mat.tobytes() == train(features, labels, config).w.mat.tobytes()

    def test_wide_rows_are_gathered_in_many_blocks(self):
        # 700 features: blocks of 11 rows, so the block edges cut every window.
        rng = np.random.default_rng(9)
        features, labels = rng.normal(size=(3, 20, 700)), rng.integers(0, 3, size=(3, 20))
        got = build_pairs(features, labels, 50, 4)
        for g, w in zip(got, enumerated_pairs(features, labels, 50, 4)):
            assert g.diffs.tobytes() == w.diffs.tobytes() and g.counts.tolist() == w.counts.tolist()

    def test_indexing_a_stack_gives_each_window(self):
        rng = np.random.default_rng(3)
        features, labels = rng.normal(size=(3, 9, 2)), np.tile([0, 0, 0, 0, 1, 1, 1, 1, 1], (3, 1))
        labels[1, 4] = 0  # another split: other side counts
        stack = build_pairs(features, labels, 10, 2)
        assert len(stack) == 3
        both = stack[[2, 0]]
        assert both.counts.tolist() == [stack[2].counts[0].tolist(), stack[0].counts[0].tolist()]
        assert both.diffs.tobytes() == np.vstack([stack[2].diffs, stack[0].diffs]).tobytes()
        with pytest.raises(IndexError):
            stack[3]


class TestSlackMultiplierIsZero:
    """``train`` runs one dual block lam.  The formulation with a second
    block gamma for the constraints -xi <= 0 (2m constraints [h; -xi], dual
    [lam; gamma], a slack step that adds gamma) keeps gamma at 0 and so
    takes bitwise the same steps."""

    @pytest.mark.parametrize("w0", ["identity", "inverse_covariance"])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_train_equals_gamma_formulation(self, seed, w0, train_iterates):
        ds = generate_synthetic(SyntheticSpec(samples=100, dim=12, informative_dims=4,
                                              noise_scale=3.0, seed=seed))
        feats, _ = normalize_features(ds.features)
        cfg = RpdmlConfig(seed=seed, w0=w0)
        model = train(feats, ds.labels, cfg)

        # train's set-up: the same pairs, bounds and W0^-1.
        pc = build_pairs(feats[None], ds.labels[None], cfg.max_pairs, cfg.seed)[0]
        pc = bounded_window(pc.without_degenerate_rows(), model.u, model.l)
        m = pc.signs.size
        if w0 == "identity":
            w0_inv = spd_inverse(model.w0).mat
        else:
            w0_inv = metric_module._ridged_covariance(feats).mat
        w_inv = w0_inv
        # The reference run's iterates and constraint vectors (after h(x0)).
        points, hs = [], []

        def inner_minimizer(x, dual, eta):
            nonlocal w_inv
            lam, gamma = dual[:m], dual[m:]
            w, w_inv, _ = inner_solve_w(w_inv, lam, w0_inv, eta, pc)
            xi = positive_part((eta * x[1] + gamma + lam * pc.bounds) / (cfg.c1 + eta))
            points.append((w, xi))
            return w, xi

        def constraints(x):
            hs.append(np.concatenate([eval_h(x[0], x[1], pc), -x[1]]))
            return hs[-1]

        problem = SaddleProblem(
            objective=lambda x: 0.0,
            constraints=constraints,
            inner_minimizer=inner_minimizer,
            record_extras=lambda x, dual: {"gamma": dual[m:].copy()},
        )
        ref = run(problem, (model.w0, np.zeros(m)),
                  SolverConfig(alpha=cfg.c2, eta0=cfg.eta0, iters=cfg.iters))

        assert len(ref) == len(model.trace) == cfg.iters
        assert model.trace.final_point[1].max() > 0.0  # the slacks do move
        gamma = np.zeros(m)
        for r, rec, (w_ref, xi_ref), h_ref, (w, xi) in zip(
                ref.records, model.trace.records, points, hs[1:], train_iterates, strict=True):
            assert np.array_equal(r.extras["gamma"], gamma)
            assert np.array_equal(w_ref.mat, w.mat)
            assert np.array_equal(xi_ref, xi)
            assert np.array_equal(h_ref[:m], eval_h(w, xi, pc))
            gamma = update_gamma(gamma, xi, rec.eta, cfg.c2)
            assert not gamma.any()


class TestModelSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(50)
        feats, labels = blob_data(rng, n=30)
        model = train(feats, labels, RpdmlConfig(iters=5, seed=1))
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
            RpdmlConfig(w0="zeros")


class TestNonFiniteConfig:
    """The checks are written so that NaN fails them; the step rule's is
    SolverConfig's, and its message names c2 where it says alpha."""

    @pytest.mark.parametrize("field, match", [("c1", "c1"), ("c2", "alpha is c2"),
                                              ("eta0", "eta0")])
    def test_nan_is_rejected(self, field, match):
        with pytest.raises(ConfigError, match=match):
            RpdmlConfig(**{field: float("nan")})

    def test_solver_config_holds_c2_eta0_iters(self):
        cfg = RpdmlConfig(c2=0.5, eta0=0.01, iters=7)
        assert cfg.solver == SolverConfig(alpha=0.5, eta0=0.01, iters=7)


class TestInverseCovarianceMetric:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(51)
        feats = rng.normal(size=(30, 4))
        got = inverse_covariance_metric(feats)
        expected = np.linalg.inv(np.cov(feats, rowvar=False) + 1e-6 * np.eye(4))
        assert np.allclose(got.mat, expected, atol=1e-8)
