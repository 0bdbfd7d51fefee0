import numpy as np
import pytest

from rpdml.data import PanelDataset, PanelPeriod, read_panel_csv, write_panel_csv
from rpdml.errors import ConfigError, DimensionMismatchError, NumericError
from rpdml.evaluation import (
    accumulated_return,
    backtest_from_predictions,
    euclidean_metric,
    ic_summary,
    knn_accuracy,
    knn_classify,
    knn_predict,
    mahalanobis_metric,
    max_drawdown,
    rolling_backtest,
    rolling_ic,
    rolling_max_drawdown,
    spearman_ic,
    window_predictions,
)
from rpdml.manifold import SpdMatrix


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


class TestKnnPredict:
    def test_exact_match_with_k1(self):
        feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        targets = np.array([10.0, 20.0, 30.0])
        w = SpdMatrix.identity(2)
        assert knn_predict(w, feats, targets, np.array([1.0, 1.0]), 1) == 20.0

    def test_k_equals_n_gives_global_mean(self):
        feats = np.array([[0.0], [1.0], [2.0]])
        targets = np.array([1.0, 2.0, 6.0])
        w = SpdMatrix.identity(1)
        assert knn_predict(w, feats, targets, np.array([0.5]), 3) == pytest.approx(3.0)

    def test_hand_selection(self):
        # distances 1, 4, 81 -> two nearest have targets 1 and 3.
        feats = np.array([[1.0], [2.0], [9.0]])
        targets = np.array([1.0, 3.0, 100.0])
        w = SpdMatrix.identity(1)
        assert knn_predict(w, feats, targets, np.array([0.0]), 2) == 2.0

    def test_distance_tie_breaks_to_lower_index(self):
        feats = np.array([[1.0], [-1.0], [5.0]])
        targets = np.array([7.0, 9.0, 100.0])
        w = SpdMatrix.identity(1)
        assert knn_predict(w, feats, targets, np.array([0.0]), 1) == 7.0

    def test_scaling_metric_preserves_predictions(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(30, 4))
        targets = rng.normal(size=30)
        w = SpdMatrix(np.diag(rng.uniform(0.5, 2.0, 4)))
        w_scaled = SpdMatrix(w.mat * 7.3)
        for _ in range(10):
            q = rng.normal(size=4)
            assert knn_predict(w, feats, targets, q, 5) == knn_predict(
                w_scaled, feats, targets, q, 5
            )

    def test_rejects_bad_k(self):
        feats, targets = np.ones((3, 1)), np.ones(3)
        w = SpdMatrix.identity(1)
        with pytest.raises(ConfigError):
            knn_predict(w, feats, targets, np.array([0.0]), 4)
        with pytest.raises(ConfigError):
            knn_predict(w, feats, targets, np.array([0.0]), 0)


class TestKnnClassify:
    def test_majority_vote(self):
        feats = np.array([[0.0], [0.1], [5.0]])
        labels = np.array(["a", "a", "b"])
        w = SpdMatrix.identity(1)
        assert knn_classify(w, feats, labels, np.array([0.05]), 3) == "a"

    def test_vote_tie_breaks_to_nearest_class(self):
        feats = np.array([[1.0], [2.0], [3.0], [4.0]])
        labels = np.array(["far", "near", "near", "far"])
        w = SpdMatrix.identity(1)
        # query at 2.4: ranks near(2), near(3), far(1)... take k=2: both near
        assert knn_classify(w, feats, labels, np.array([2.4]), 2) == "near"
        # k=4 ties 2-2; nearest neighbor (2) is 'near'
        assert knn_classify(w, feats, labels, np.array([2.4]), 4) == "near"

    def test_accuracy_helper(self):
        feats = np.array([[0.0], [0.2], [5.0], [5.2]])
        labels = np.array([0, 0, 1, 1])
        w = SpdMatrix.identity(1)
        acc = knn_accuracy(w, feats, labels, np.array([[0.1], [5.1]]), np.array([0, 1]), 2)
        assert acc == 1.0


class TestSpearmanIC:
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
        result = rolling_backtest(
            panel, lambda f, r: euclidean_metric(f), k=1, top_n=1, normalize=False
        )
        # top-1 by prediction picks asset 0; realized return 0.20
        assert result.period_labels == ["p1"]
        assert result.period_returns[0] == pytest.approx(0.20, abs=1e-15)
        assert result.cumulative[0] == pytest.approx(0.20, abs=1e-15)

    def test_equal_weight_mean(self):
        panel = self._two_period_panel()
        result = rolling_backtest(
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
        result = rolling_backtest(
            panel, lambda f, r: euclidean_metric(f), k=3, top_n=1, normalize=False
        )
        assert result.skipped_periods == ["p1"]  # p0 has only 2 < k assets
        assert result.period_labels == ["p2"]

    def test_cumulative_matches_compounding_invariant(self):
        rng = np.random.default_rng(8)
        periods = [(f"p{i}", rng.normal(size=(6, 2)), rng.uniform(-0.1, 0.2, 6)) for i in range(7)]
        panel = make_panel(periods)
        result = rolling_backtest(panel, lambda f, r: euclidean_metric(f), k=2, top_n=2)
        expected = np.cumprod(1.0 + result.period_returns) - 1.0
        assert np.max(np.abs(result.cumulative - expected)) <= 1e-12

    def test_annual_grouping_from_quarter_labels(self):
        rng = np.random.default_rng(9)
        periods = [
            (f"{2017 + i // 4}Q{i % 4 + 1}", rng.normal(size=(4, 2)), rng.uniform(-0.1, 0.2, 4))
            for i in range(8)
        ]
        panel = make_panel(periods)
        result = rolling_backtest(panel, lambda f, r: euclidean_metric(f), k=2, top_n=1)
        assert set(result.annual_returns) == {"2017", "2018"}
        grouped = {}
        for lab, r in zip(result.period_labels, result.period_returns):
            grouped.setdefault(lab[:4], []).append(r)
        for year, rs in grouped.items():
            assert result.annual_returns[year] == pytest.approx(np.prod(1.0 + np.asarray(rs)) - 1.0)

    def test_requires_two_periods(self):
        panel = make_panel([("p0", [[0.0], [1.0]], [0.1, 0.2])])
        with pytest.raises(ConfigError):
            rolling_backtest(panel, lambda f, r: euclidean_metric(f), k=1, top_n=1)


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
