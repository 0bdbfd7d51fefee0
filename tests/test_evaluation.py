import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpdml.data import PanelDataset, PanelPeriod, read_panel_csv, write_panel_csv
from rpdml.errors import ConfigError, DimensionMismatchError, NumericError
from rpdml.evaluation import (
    accumulated_return,
    backtest_from_predictions,
    euclidean_metric,
    ic_summary,
    knn_accuracy,
    knn_classify,
    knn_neighbors,
    knn_predict,
    mahalanobis_metric,
    max_drawdown,
    rolling_ic,
    rolling_max_drawdown,
    spearman_ic,
    window_predictions,
)
from rpdml.manifold import SpdMatrix, rowwise_quadratic


def make_panel(periods):
    """periods: list of (label, features, next_returns)."""
    out = []
    for label, feats, rets in periods:
        feats = np.atleast_2d(np.asarray(feats, dtype=float))
        out.append(PanelPeriod(
            label=label,
            asset_ids=[f"A{i:02d}" for i in range(feats.shape[0])],
            features=feats,
            next_returns=np.asarray(rets, dtype=float),
        ))
    return PanelDataset(out)


class TestMahalanobisMetric:
    def test_hand_covariance_fixture(self):
        # Four points whose sample covariance is exactly diag(4, 1).
        a, b = np.sqrt(6.0), np.sqrt(1.5)
        feats = np.array([[-a, 0.0], [0.0, -b], [0.0, b], [a, 0.0]])
        assert np.allclose(np.cov(feats, rowvar=False), np.diag([4.0, 1.0]), atol=1e-12)
        got = mahalanobis_metric(feats)
        assert np.allclose(got.mat, np.diag([0.25, 1.0]), atol=1e-5)

    def test_isotropic_data_gives_identity(self):
        b = np.sqrt(1.5)
        feats = np.array([[-b, 0.0], [0.0, -b], [0.0, b], [b, 0.0]])
        got = mahalanobis_metric(feats)
        assert np.allclose(got.mat, np.eye(2), atol=1e-5)

    def test_output_is_spd_on_random_data(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            feats = rng.normal(size=(25, 4)) @ rng.normal(size=(4, 4))
            SpdMatrix(mahalanobis_metric(feats).mat)

    def test_rejects_single_sample(self):
        with pytest.raises(ConfigError):
            mahalanobis_metric(np.ones((1, 3)))


def predict_one(w, feats, targets, query, k):
    return knn_predict(targets, knn_neighbors(w, feats, query, k))[0]


def classify_one(w, feats, labels, query, k):
    return knn_classify(labels, knn_neighbors(w, feats, query, k))[0]


class TestKnnPredict:
    def test_exact_match_with_k1(self):
        feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        targets = np.array([10.0, 20.0, 30.0])
        w = SpdMatrix.identity(2)
        assert predict_one(w, feats, targets, np.array([1.0, 1.0]), 1) == 20.0

    def test_k_equals_n_gives_global_mean(self):
        feats = np.array([[0.0], [1.0], [2.0]])
        targets = np.array([1.0, 2.0, 6.0])
        w = SpdMatrix.identity(1)
        assert predict_one(w, feats, targets, np.array([0.5]), 3) == pytest.approx(3.0)

    def test_hand_selection(self):
        # distances 1, 4, 81 -> two nearest have targets 1 and 3.
        feats = np.array([[1.0], [2.0], [9.0]])
        targets = np.array([1.0, 3.0, 100.0])
        w = SpdMatrix.identity(1)
        assert predict_one(w, feats, targets, np.array([0.0]), 2) == 2.0

    def test_distance_tie_breaks_to_lower_index(self):
        feats = np.array([[1.0], [-1.0], [5.0]])
        targets = np.array([7.0, 9.0, 100.0])
        w = SpdMatrix.identity(1)
        assert predict_one(w, feats, targets, np.array([0.0]), 1) == 7.0

    def test_scaling_metric_preserves_predictions(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(30, 4))
        targets = rng.normal(size=30)
        w = SpdMatrix(np.diag(rng.uniform(0.5, 2.0, 4)))
        w_scaled = SpdMatrix(w.mat * 7.3)
        for _ in range(10):
            q = rng.normal(size=4)
            assert predict_one(w, feats, targets, q, 5) == predict_one(
                w_scaled, feats, targets, q, 5
            )

    def test_rejects_bad_k(self):
        feats = np.ones((3, 1))
        w = SpdMatrix.identity(1)
        with pytest.raises(ConfigError):
            knn_neighbors(w, feats, np.array([0.0]), 4)
        with pytest.raises(ConfigError):
            knn_neighbors(w, feats, np.array([0.0]), 0)

    def test_same_neighbor_set_gives_bitwise_equal_mean(self):
        # Targets whose sum depends on the summation order.
        targets = np.array([0.1, 1e16, 0.2, -1e16, 0.3])
        rng = np.random.default_rng(2)
        orders = np.array([rng.permutation(5) for _ in range(50)])
        preds = knn_predict(targets, orders)
        assert np.all(preds == preds[0])
        assert preds[0] == np.mean(targets)


def dict_vote_reference(train_labels, neighbors):
    """The per-query dict loop that ``knn_classify`` replaced: count votes
    in rank order and keep each class's first rank."""
    train_labels = np.asarray(train_labels)
    out = []
    for nearest in neighbors:
        votes: dict = {}
        for rank, idx in enumerate(nearest):
            lab = train_labels[idx]
            cnt, first_rank = votes.get(lab, (0, rank))
            votes[lab] = (cnt + 1, first_rank)
        out.append(max(votes, key=lambda lab: (votes[lab][0], -votes[lab][1])))
    return out


@st.composite
def vote_case(draw):
    n_classes = draw(st.integers(1, 5))
    pool = draw(st.one_of(
        st.lists(st.integers(-3, 3), min_size=n_classes, max_size=n_classes, unique=True),
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "ab"]),
                 min_size=n_classes, max_size=n_classes, unique=True),
    ))
    n_train = draw(st.integers(1, 30))
    labels = draw(st.lists(st.sampled_from(pool), min_size=n_train, max_size=n_train))
    k = draw(st.integers(1, n_train))
    n_query = draw(st.integers(1, 8))
    rows = st.permutations(range(n_train)).map(lambda p: p[:k])
    neighbors = draw(st.lists(rows, min_size=n_query, max_size=n_query))
    return np.array(labels), np.array(neighbors, dtype=np.intp)


class TestKnnClassify:
    def test_majority_vote(self):
        feats = np.array([[0.0], [0.1], [5.0]])
        labels = np.array(["a", "a", "b"])
        w = SpdMatrix.identity(1)
        assert classify_one(w, feats, labels, np.array([0.05]), 3) == "a"

    def test_vote_tie_breaks_to_nearest_class(self):
        feats = np.array([[1.0], [2.0], [3.0], [4.0]])
        labels = np.array(["far", "near", "near", "far"])
        w = SpdMatrix.identity(1)
        # query at 2.4: ranks near(2), near(3), far(1)... take k=2: both near
        assert classify_one(w, feats, labels, np.array([2.4]), 2) == "near"
        # k=4 ties 2-2; nearest neighbor (2) is 'near'
        assert classify_one(w, feats, labels, np.array([2.4]), 4) == "near"

    def test_accuracy_helper(self):
        feats = np.array([[0.0], [0.2], [5.0], [5.2]])
        labels = np.array([0, 0, 1, 1])
        w = SpdMatrix.identity(1)
        neighbors = knn_neighbors(w, feats, np.array([[0.1], [5.1]]), 2)
        acc = knn_accuracy(labels, neighbors, np.array([0, 1]))
        assert acc == 1.0

    @settings(max_examples=300, deadline=None)
    @given(case=vote_case())
    def test_matches_dict_vote_reference(self, case):
        labels, neighbors = case
        assert knn_classify(labels, neighbors) == dict_vote_reference(labels, neighbors)


def brute_force_neighbors(w_diag, feats, queries, k):
    """Exact integer distances under diag(w_diag), ranked by (distance, row)."""
    out = []
    for q in queries:
        dist = [sum(int(wj) * (int(x) - int(y)) ** 2 for wj, x, y in zip(w_diag, row, q))
                for row in feats]
        out.append(sorted(range(len(feats)), key=lambda i: (dist[i], i))[:k])
    return np.array(out)


@st.composite
def integer_grid_case(draw):
    dim = draw(st.integers(1, 4))
    n_train = draw(st.integers(1, 60))
    n_query = draw(st.integers(1, 8))
    k = draw(st.integers(1, n_train))
    cell = st.integers(-2, 2)
    feats = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                          min_size=n_train, max_size=n_train))
    queries = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                            min_size=n_query, max_size=n_query))
    w_diag = draw(st.one_of(
        st.just([1] * dim),
        st.lists(st.integers(1, 5).map(lambda r: r * r), min_size=dim, max_size=dim),
    ))
    return dim, feats, queries, w_diag, k


def random_case(seed, dim, n_train, n_query):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    w = SpdMatrix((q * rng.uniform(0.1, 10.0, dim)) @ q.T)
    return w, rng.normal(size=(n_train, dim)), rng.normal(size=(n_query, dim))


class TestKnnNeighbors:
    @settings(max_examples=200, deadline=None)
    @given(case=integer_grid_case())
    def test_exact_ties_match_stable_brute_force(self, case):
        # Integer grid points and W = diag(perfect squares): the Cholesky
        # factor and every distance are exact, and ties are frequent.
        dim, feats, queries, w_diag, k = case
        w = SpdMatrix(np.diag(np.asarray(w_diag, dtype=float)))
        got = knn_neighbors(w, np.array(feats, dtype=float), np.array(queries, dtype=float), k)
        assert np.array_equal(got, brute_force_neighbors(w_diag, feats, queries, k))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 24),
           n_train=st.integers(1, 80), n_query=st.integers(2, 70))
    def test_query_result_does_not_depend_on_batch(self, seed, dim, n_train, n_query):
        w, feats, queries = random_case(seed, dim, n_train, n_query)
        # Mirror pairs q +- v are equidistant from q: their order is decided
        # by round-off alone, so it shows whether a query's transformed row
        # depends on the rest of the batch.
        v = np.random.default_rng(seed + 2).normal(size=(n_query, dim))
        feats = np.vstack([feats, queries + v, queries - v])
        k = 5
        full = knn_neighbors(w, feats, queries, k)
        perm = np.random.default_rng(seed + 1).permutation(n_query)
        assert np.array_equal(knn_neighbors(w, feats, queries[perm], k), full[perm])
        for i in (0, n_query // 2, n_query - 1):
            assert np.array_equal(knn_neighbors(w, feats, queries[i], k)[0], full[i])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 24),
           n_train=st.integers(2, 80), k=st.integers(1, 10))
    def test_matches_quadratic_form_reference(self, seed, dim, n_train, k):
        w, feats, queries = random_case(seed, dim, n_train, 6)
        k = min(k, n_train - 1)
        got = knn_neighbors(w, feats, queries, k)
        for q, row in zip(queries, got):
            dist = rowwise_quadratic(w.mat, feats - q)
            ref = np.argsort(dist, kind="stable")
            ranked = dist[ref[: k + 1]]
            gaps = np.diff(ranked) > 1e-9 * ranked[1:]
            if gaps[-1]:  # the k-th and (k+1)-th distances are apart
                assert set(row) == set(ref[:k])
            if np.all(gaps):  # no near-tie inside the first k + 1
                assert np.array_equal(row, ref[:k])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_duplicated_rows_tie_at_kth_distance(self, data):
        # Every training row appears 2-4 times, so the k-th distance is
        # shared by more rows than fit in k; ties must go to the lower index.
        dim = data.draw(st.integers(1, 3))
        cell = st.integers(-1, 1)
        base = data.draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                                  min_size=1, max_size=8))
        feats = [row for row in base for _ in range(data.draw(st.integers(2, 4)))]
        order = data.draw(st.permutations(range(len(feats))))
        feats = [feats[i] for i in order]
        queries = data.draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                                     min_size=1, max_size=4))
        n_train = len(feats)
        for k in sorted({1, n_train, data.draw(st.integers(1, n_train))}):
            got = knn_neighbors(SpdMatrix.identity(dim), np.array(feats, dtype=float),
                                np.array(queries, dtype=float), k)
            assert np.array_equal(got, brute_force_neighbors([1] * dim, feats, queries, k))

    def test_more_ties_than_k_keep_lowest_indices(self):
        # Five rows at distance 1, one at distance 0: k=3 keeps the exact
        # match and the two lowest-index rows among the five.
        feats = np.array([[1.0], [-1.0], [5.0], [1.0], [0.0], [-1.0], [1.0]])
        w = SpdMatrix.identity(1)
        assert knn_neighbors(w, feats, np.array([0.0]), 3).tolist() == [[4, 0, 1]]
        assert knn_neighbors(w, feats, np.array([0.0]), 1).tolist() == [[4]]
        assert knn_neighbors(w, feats, np.array([0.0]), 7).tolist() == [[4, 0, 1, 3, 5, 6, 2]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows(self, bad):
        w = SpdMatrix.identity(2)
        feats = np.zeros((4, 2))
        feats[2, 1] = bad
        with pytest.raises(NumericError, match="nan or inf"):
            knn_neighbors(w, feats, np.zeros((1, 2)), 2)
        queries = np.zeros((3, 2))
        queries[1, 0] = bad
        with pytest.raises(NumericError, match="nan or inf"):
            knn_neighbors(w, np.zeros((4, 2)), queries, 2)

    def test_rejects_dimension_mismatch(self):
        w = SpdMatrix.identity(2)
        with pytest.raises(DimensionMismatchError):
            knn_neighbors(w, np.ones((3, 2)), np.ones((1, 3)), 1)
        with pytest.raises(DimensionMismatchError):
            knn_neighbors(w, np.ones((3, 3)), np.ones((1, 3)), 1)


def per_query_neighbors(w, feats, queries, k):
    """The per-query ranking that ``knn_neighbors`` did before its blocked
    screen, frozen as an oracle: each query's full distance row, partitioned
    to the k-th distance, then the candidates at or below it stable-sorted."""
    chol = np.linalg.cholesky(w.mat)
    z_train = np.einsum("ij,jk->ik", feats, chol)
    z_queries = np.einsum("ij,jk->ik", np.atleast_2d(queries), chol)
    out = np.empty((z_queries.shape[0], k), dtype=np.intp)
    diffs = np.empty_like(z_train)
    dist = np.empty(z_train.shape[0])
    for i, z_q in enumerate(z_queries):
        np.subtract(z_train, z_q, out=diffs)
        np.einsum("ij,ij->i", diffs, diffs, out=dist)
        cand = (dist <= np.partition(dist, k - 1)[k - 1]).nonzero()[0]
        out[i] = cand[dist[cand].argsort(kind="stable")[:k]]
    return out


@st.composite
def screen_case(draw):
    """Queries on both sides of the block edges, with exact ties (integer
    grids, duplicated rows), near-ties (queries 1e-9 off a training row) and
    scales 1e-3..1e3, under the identity or a random SPD metric."""
    n_query = draw(st.sampled_from([1, 31, 32, 33, 65]))
    dim = draw(st.integers(1, 24))
    n_train = draw(st.integers(1, 80))
    k = draw(st.integers(1, n_train))
    kind = draw(st.sampled_from(["grid", "duplicates", "near", "continuous"]))
    scale = 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        feats = rng.integers(-2, 3, size=(n_train, dim)).astype(float)
        queries = rng.integers(-2, 3, size=(n_query, dim)).astype(float)
    else:
        feats = rng.normal(size=(n_train, dim))
        if kind == "duplicates":
            feats = feats[rng.integers(0, max(1, n_train // 3), n_train)]
        queries = rng.normal(size=(n_query, dim))
        if kind == "near":
            queries = feats[rng.integers(0, n_train, n_query)] + 1e-9 * queries
        feats, queries = scale * feats, scale * queries
    if draw(st.booleans()):
        w = SpdMatrix.identity(dim)
    else:
        w = random_case(int(rng.integers(2**32)), dim, 1, 1)[0]
    return w, feats, queries, k


class TestKnnScreen:
    @settings(max_examples=300, deadline=None)
    @given(case=screen_case())
    def test_matches_per_query_ranking_bitwise(self, case):
        w, feats, queries, k = case
        assert np.array_equal(knn_neighbors(w, feats, queries, k),
                              per_query_neighbors(w, feats, queries, k))

    def test_overflowing_screen_matches_per_query_ranking(self):
        # Rows near 1e155 overflow the screen's q.x (and some exact
        # distances, which then tie at inf and go to the lower index).
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(50, 4))
        feats[::3] *= 1e155
        queries = np.vstack([feats[:33], rng.normal(size=(7, 4))])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(feats @ feats.T).all()
        for k in (1, 10, 50):
            assert np.array_equal(knn_neighbors(SpdMatrix.identity(4), feats, queries, k),
                                  per_query_neighbors(SpdMatrix.identity(4), feats, queries, k))

    def test_continuous_data_skips_the_per_query_ranking(self, monkeypatch):
        # Without ties at the k-th distance every query's screened k are
        # provably the answer; a margin grown too wide would rank per query.
        calls = []
        monkeypatch.setattr("rpdml.evaluation._k_smallest", lambda *a: calls.append(a))
        w, feats, queries = random_case(5, 20, 300, 100)
        knn_neighbors(w, feats, queries, 10)
        assert calls == []

    def test_k_equal_to_n_train_skips_the_per_query_ranking(self, monkeypatch):
        # Every row is in the answer, so the screen has nothing to prove.
        w, feats, queries = random_case(6, 20, 50, 40)
        want = per_query_neighbors(w, feats, queries, 50)
        calls = []
        monkeypatch.setattr("rpdml.evaluation._k_smallest", lambda *a: calls.append(a))
        assert np.array_equal(knn_neighbors(w, feats, queries, 50), want)
        assert calls == []

    @pytest.mark.parametrize("seed", range(5))
    def test_backtest_window_shape_matches_per_query_ranking(self, seed):
        # 40 training and 40 query assets, d=12, k=10: one backtest window.
        w, feats, queries = random_case(seed, 12, 40, 40)
        assert np.array_equal(knn_neighbors(w, feats, queries, 10),
                              per_query_neighbors(w, feats, queries, 10))

    def test_peak_memory_stays_flat(self):
        # A full 2000 x 2000 distance matrix would be 32 MB; the blocked
        # screen holds a few (KNN_BLOCK, n_train) arrays at a time.
        rng = np.random.default_rng(0)
        feats, queries = rng.normal(size=(2000, 20)), rng.normal(size=(2000, 20))
        tracemalloc.start()
        try:
            knn_neighbors(SpdMatrix.identity(20), feats, queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


@st.composite
def rank_vectors(draw):
    """Two equal-length vectors: continuous values, or a small grid whose
    heavy ties include 0.0 against -0.0."""
    n = draw(st.integers(2, 200))
    continuous = st.floats(-1e6, 1e6)
    grid = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    return tuple(
        np.array(draw(st.lists(draw(st.sampled_from([continuous, grid])),
                               min_size=n, max_size=n)))
        for _ in range(2)
    )


class TestSpearmanIC:
    @settings(max_examples=300, deadline=None)
    @given(case=rank_vectors())
    def test_matches_scipy_spearmanr_bitwise(self, case):
        from scipy import stats  # a test oracle only; the package does not import scipy

        pred, actual = case
        assume(np.ptp(pred) > 0 and np.ptp(actual) > 0)
        assert spearman_ic(pred, actual) == float(stats.spearmanr(pred, actual).statistic)

    def test_signed_zeros_tie(self):
        # Ranks (1.5, 1.5, 3) against (1, 2, 3).
        actual = [1.0, 2.0, 3.0]
        ic = spearman_ic([0.0, -0.0, 1.0], actual)
        assert ic == spearman_ic([0.0, 0.0, 1.0], actual) == pytest.approx(np.sqrt(0.75))

    def test_nan_raises(self):
        with pytest.raises(NumericError, match="nan"):
            spearman_ic([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])

    def test_identical_order(self):
        assert spearman_ic([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert spearman_ic([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_hand_value(self):
        # 1 - 6*2/(3*8) = 0.5
        assert spearman_ic([1.0, 2.0, 3.0], [2.0, 1.0, 3.0]) == pytest.approx(0.5)

    def test_constant_vector_raises(self):
        with pytest.raises(NumericError):
            spearman_ic([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        pred = rng.permutation(20).astype(float)
        actual = rng.normal(size=20)
        base = spearman_ic(pred, actual)
        assert spearman_ic(2.0 * pred + 1.0, actual) == pytest.approx(base, abs=1e-12)
        assert spearman_ic(pred ** 3, actual) == pytest.approx(base, abs=1e-12)

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatchError):
            spearman_ic([1.0], [1.0])
        with pytest.raises(DimensionMismatchError):
            spearman_ic([1.0, 2.0], [1.0, 2.0, 3.0])


class TestAccumulatedReturn:
    def test_compounding(self):
        out = accumulated_return(np.array([0.1, 0.1]))
        assert np.allclose(out, [0.1, 0.21], atol=1e-15)

    def test_zeros(self):
        assert np.array_equal(accumulated_return(np.zeros(4)), np.zeros(4))

    def test_single_period(self):
        assert np.allclose(accumulated_return(np.array([0.07])), [0.07], atol=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-0.3, 0.4, 30)
        c = accumulated_return(r)
        wealth = np.concatenate([[1.0], 1.0 + c])
        recovered = wealth[1:] / wealth[:-1] - 1.0
        assert np.max(np.abs(recovered - r)) <= 1e-12

    def test_rejects_total_loss(self):
        with pytest.raises(ConfigError):
            accumulated_return(np.array([0.1, -1.0]))


class TestMaxDrawdown:
    def test_monotone_increasing_is_zero(self):
        assert max_drawdown(np.array([1.0, 1.1, 1.5, 2.0])) == 0.0

    def test_hand_value(self):
        assert max_drawdown(np.array([1.0, 1.2, 0.9, 1.1])) == pytest.approx(0.25)

    def test_flat_is_zero(self):
        assert max_drawdown(np.array([1.0, 1.0, 1.0])) == 0.0

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = np.cumprod(1.0 + rng.uniform(-0.2, 0.25, 40))
            dd = max_drawdown(v)
            assert 0.0 <= dd < 1.0

    def test_rolling_window(self):
        v = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        full = rolling_max_drawdown(v, window=6)
        assert full[-1] == pytest.approx(0.5)
        # with a window of 3, the early peak falls out of scope by the end
        windowed = rolling_max_drawdown(v, window=3)
        assert windowed[-1] == 0.0

    def test_errors(self):
        with pytest.raises(ConfigError):
            max_drawdown(np.array([]))
        with pytest.raises(ConfigError):
            max_drawdown(np.array([1.0, -1.0]))


def run_backtest(panel, provider, k, top_n, normalize=True):
    """The pipeline of ``rpdml backtest``: window predictions, then top-N trades."""
    preds = list(window_predictions(panel, provider, k=k, normalize=normalize))
    return backtest_from_predictions(panel, preds, top_n)


class TestRollingBacktest:
    def _two_period_panel(self):
        # Period p0 trains the k=1 predictor; period p1 is traded.
        # p0: features/returns memorized by 1-NN.
        p0_feats = [[0.0], [10.0]]
        p0_rets = [0.05, -0.02]
        # p1 assets sit exactly on the training features, so predictions are
        # hand-readable: asset 0 -> 0.05, asset 1 -> -0.02.
        p1_feats = [[0.0], [10.0]]
        p1_rets = [0.20, -0.10]
        return make_panel([("p0", p0_feats, p0_rets), ("p1", p1_feats, p1_rets)])

    def test_hand_walkthrough(self):
        panel = self._two_period_panel()
        result = run_backtest(
            panel, lambda f, r: euclidean_metric(f), k=1, top_n=1, normalize=False
        )
        # top-1 by prediction picks asset 0; realized return 0.20
        assert result.period_labels == ["p1"]
        assert result.period_returns[0] == pytest.approx(0.20, abs=1e-15)
        assert result.cumulative[0] == pytest.approx(0.20, abs=1e-15)

    def test_equal_weight_mean(self):
        panel = self._two_period_panel()
        result = run_backtest(
            panel, lambda f, r: euclidean_metric(f), k=1, top_n=2, normalize=False
        )
        assert result.period_returns[0] == pytest.approx(0.05, abs=1e-15)  # mean(0.2, -0.1)

    def test_oracle_predictor_hits_per_period_max(self):
        rng = np.random.default_rng(5)
        periods = [
            (f"p{i}", rng.normal(size=(6, 2)), rng.uniform(-0.1, 0.2, 6)) for i in range(5)
        ]
        panel = make_panel(periods)
        preds = [(p, p.next_returns.copy(), False) for p in panel.periods[1:]]
        result = backtest_from_predictions(panel, preds, top_n=1)
        for i, p in enumerate(panel.periods[1:]):
            assert result.period_returns[i] == pytest.approx(np.max(p.next_returns))

    def test_constant_predictor_selects_lowest_asset_ids(self):
        rng = np.random.default_rng(6)
        periods = [(f"p{i}", rng.normal(size=(5, 2)), rng.uniform(-0.1, 0.2, 5)) for i in range(3)]
        panel = make_panel(periods)
        preds = [(p, np.zeros(5), False) for p in panel.periods[1:]]
        result = backtest_from_predictions(panel, preds, top_n=2)
        for i, p in enumerate(panel.periods[1:]):
            assert result.period_returns[i] == pytest.approx(np.mean(p.next_returns[:2]))

    def test_oracle_dominates_constant(self):
        rng = np.random.default_rng(7)
        periods = [(f"p{i}", rng.normal(size=(8, 3)), rng.uniform(-0.15, 0.25, 8)) for i in range(6)]
        panel = make_panel(periods)
        oracle = [(p, p.next_returns.copy(), False) for p in panel.periods[1:]]
        constant = [(p, np.zeros(8), False) for p in panel.periods[1:]]
        r_oracle = backtest_from_predictions(panel, oracle, top_n=3)
        r_const = backtest_from_predictions(panel, constant, top_n=3)
        assert r_oracle.cumulative[-1] >= r_const.cumulative[-1]

    def test_small_window_is_skipped(self):
        panel = make_panel([
            ("p0", [[0.0], [1.0]], [0.1, 0.2]),
            ("p1", [[0.0], [1.0], [2.0]], [0.1, 0.2, 0.3]),
            ("p2", [[0.0], [1.0], [2.0]], [0.0, 0.1, 0.2]),
        ])
        result = run_backtest(
            panel, lambda f, r: euclidean_metric(f), k=3, top_n=1, normalize=False
        )
        assert result.skipped_periods == ["p1"]  # p0 has only 2 < k assets
        assert result.period_labels == ["p2"]

    def test_cumulative_matches_compounding_invariant(self):
        rng = np.random.default_rng(8)
        periods = [(f"p{i}", rng.normal(size=(6, 2)), rng.uniform(-0.1, 0.2, 6)) for i in range(7)]
        panel = make_panel(periods)
        result = run_backtest(panel, lambda f, r: euclidean_metric(f), k=2, top_n=2)
        expected = np.cumprod(1.0 + result.period_returns) - 1.0
        assert np.max(np.abs(result.cumulative - expected)) <= 1e-12

    def test_annual_grouping_from_quarter_labels(self):
        rng = np.random.default_rng(9)
        periods = [
            (f"{2017 + i // 4}Q{i % 4 + 1}", rng.normal(size=(4, 2)), rng.uniform(-0.1, 0.2, 4))
            for i in range(8)
        ]
        panel = make_panel(periods)
        result = run_backtest(panel, lambda f, r: euclidean_metric(f), k=2, top_n=1)
        assert set(result.annual_returns) == {"2017", "2018"}
        grouped = {}
        for lab, r in zip(result.period_labels, result.period_returns):
            grouped.setdefault(lab[:4], []).append(r)
        for year, rs in grouped.items():
            assert result.annual_returns[year] == pytest.approx(np.prod(1.0 + np.asarray(rs)) - 1.0)

    def test_requires_two_periods(self):
        panel = make_panel([("p0", [[0.0], [1.0]], [0.1, 0.2])])
        with pytest.raises(ConfigError, match="need at least two periods"):
            run_backtest(panel, lambda f, r: euclidean_metric(f), k=1, top_n=1)


class TestRollingIC:
    def test_perfect_predictor_ic_one(self):
        # returns are a deterministic monotone function of the feature
        periods = [(f"p{i}", [[float(j)] for j in range(5)], [0.01 * j for j in range(5)])
                   for i in range(3)]
        panel = make_panel(periods)
        preds = window_predictions(panel, lambda f, r: euclidean_metric(f), k=1, normalize=False)
        ics = rolling_ic(preds)
        assert len(ics) == 2
        for _, ic in ics:
            assert ic == pytest.approx(1.0)

    def test_summary(self):
        s = ic_summary([("a", 0.5), ("b", 0.7)])
        assert s["n_periods"] == 2
        assert s["ic_mean"] == pytest.approx(0.6)
        assert s["ic_std"] == pytest.approx(0.1)


class TestPanelCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        periods = [(f"2020Q{i+1}", rng.normal(size=(4, 3)), rng.uniform(-0.1, 0.2, 4))
                   for i in range(3)]
        panel = make_panel(periods)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert len(back) == 3
        for orig, loaded in zip(panel.periods, back.periods):
            assert loaded.label == orig.label
            assert loaded.asset_ids == orig.asset_ids
            assert np.array_equal(loaded.features, orig.features)
            assert np.array_equal(loaded.next_returns, orig.next_returns)
