import numpy as np
import pytest

from rpdml.data import (
    SyntheticSpec,
    generate_synthetic,
    generate_synthetic_panel,
    normalize_features,
    read_labeled_csv,
    write_labeled_csv,
)
from rpdml.errors import ConfigError
from rpdml.evaluation import knn_accuracy, knn_neighbors
from rpdml.manifold import SpdMatrix


class TestNormalizeFeatures:
    def test_two_point_column(self):
        out, stats = normalize_features(np.array([[1.0], [3.0]]))
        assert np.allclose(out, [[-1.0], [1.0]], atol=1e-15)  # mean 2, population std 1
        assert stats.mean[0] == 2.0 and stats.std[0] == 1.0

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        x = (x - x.mean(0)) / x.std(0)
        out, _ = normalize_features(x)
        assert np.allclose(out, x, atol=1e-9)

    def test_columns_have_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=5.0, scale=3.0, size=(50, 4))
        out, _ = normalize_features(x)
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(out.std(axis=0) - 1.0)) <= 1e-9

    def test_constant_column_centered_only(self, caplog):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with caplog.at_level("WARNING"):
            out, stats = normalize_features(x)
        assert bool(stats.degenerate[1]) and not bool(stats.degenerate[0])
        assert np.allclose(out[:, 1], 0.0)
        assert "constant" in caplog.text

    def test_stats_apply_without_leakage(self):
        rng = np.random.default_rng(2)
        train = rng.normal(loc=1.0, size=(40, 3))
        test = rng.normal(loc=1.5, size=(30, 3))
        _, stats = normalize_features(train)
        test_out = stats.apply(test)
        # test columns keep their shift relative to the training mean
        assert np.min(np.abs(test_out.mean(axis=0))) > 1e-6

    def test_rejects_tiny_input(self):
        with pytest.raises(ConfigError):
            normalize_features(np.ones((1, 3)))


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(seed=99)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.targets, b.targets)
        c = generate_synthetic(SyntheticSpec(seed=100))
        assert not np.array_equal(a.features, c.features)

    def test_shapes(self):
        ds = generate_synthetic(SyntheticSpec(samples=50, dim=7, informative_dims=3, seed=1))
        assert ds.features.shape == (50, 7)
        assert ds.labels.shape == (50,) and ds.targets.shape == (50,)

    def test_noise_free_well_separated_classes_are_linearly_learnable(self):
        spec = SyntheticSpec(classes=2, samples=80, dim=6, informative_dims=6,
                             noise_scale=0.0, cluster_sep=6.0, seed=3)
        ds = generate_synthetic(spec)
        w = SpdMatrix.identity(6)
        acc = knn_accuracy(ds.labels[:40], knn_neighbors(w, ds.features[:40], ds.features[40:], 1),
                           ds.labels[40:])
        assert acc == 1.0

    def test_control_condition_all_dims_informative(self):
        # With no distractor dims the Euclidean metric is already near
        # optimal.
        spec = SyntheticSpec(samples=120, dim=5, informative_dims=5,
                             cluster_sep=3.0, seed=4)
        ds = generate_synthetic(spec)
        assert ds.features.shape == (120, 5)
        neighbors = knn_neighbors(SpdMatrix.identity(5), ds.features[:60], ds.features[60:], 5)
        acc = knn_accuracy(ds.labels[:60], neighbors, ds.labels[60:])
        assert acc >= 0.9

    def test_noise_dims_have_larger_variance(self):
        ds = generate_synthetic(SyntheticSpec(samples=2000, dim=8, informative_dims=2,
                                              noise_scale=3.0, seed=5))
        stds = ds.features.std(axis=0)
        assert np.min(stds[2:]) > np.max(stds[:2])

    def test_rejects_bad_spec(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(dim=3, informative_dims=5)


class TestGenerateSyntheticPanel:
    def test_deterministic_and_labeled_by_quarter(self):
        spec = SyntheticSpec(dim=6, informative_dims=2, seed=8)
        a = generate_synthetic_panel(spec, periods=6, assets_per_period=10)
        b = generate_synthetic_panel(spec, periods=6, assets_per_period=10)
        assert [p.label for p in a.periods] == ["2017Q1", "2017Q2", "2017Q3", "2017Q4", "2018Q1", "2018Q2"]
        for pa, pb in zip(a.periods, b.periods):
            assert np.array_equal(pa.features, pb.features)
            assert np.array_equal(pa.next_returns, pb.next_returns)

    def test_returns_driven_by_informative_dims(self):
        spec = SyntheticSpec(dim=6, informative_dims=2, noise_scale=3.0, seed=9, target_noise=0.0)
        panel = generate_synthetic_panel(spec, periods=2, assets_per_period=200)
        p = panel.periods[0]
        # zero target noise: returns are an exact linear function of the
        # informative block
        coef, *_ = np.linalg.lstsq(p.features[:, :2], p.next_returns, rcond=None)
        assert np.allclose(p.features[:, :2] @ coef, p.next_returns, atol=1e-10)


class TestLabeledCsv:
    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(samples=20, dim=4, informative_dims=2, seed=12))
        path = tmp_path / "ds.csv"
        write_labeled_csv(ds, path)
        back = read_labeled_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels.astype(str), ds.labels.astype(str))
        assert np.array_equal(back.targets, ds.targets)

    def test_byte_identical_writes(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(samples=15, dim=3, informative_dims=2, seed=13))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_labeled_csv(ds, p1)
        write_labeled_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
