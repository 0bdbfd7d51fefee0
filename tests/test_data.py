import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpdml.data import (
    LabeledDataset,
    PanelDataset,
    PanelPeriod,
    SyntheticSpec,
    generate_synthetic,
    generate_synthetic_panel,
    normalize_features,
    read_labeled_csv,
    read_panel_csv,
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

    def test_peak_memory_holds_no_rows(self, tmp_path):
        # The rows are parsed as they stream by: a 4000 x (2 + 20) file
        # peaks at ~1.4 MB, where holding every parsed row would take ~7 MB.
        path = tmp_path / "large.csv"
        write_labeled_csv(generate_synthetic(SyntheticSpec(samples=4000, seed=14)), path)
        tracemalloc.start()
        try:
            read_labeled_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# The row-by-row readers that the streamed parse replaced, frozen as oracles.

def _oracle_rows(reader, path, width):
    empty = True
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ConfigError(
                f"{path}: line {reader.line_num} has {len(row)} fields, header has {width}"
            )
        empty = False
        yield reader.line_num, row
    if empty:
        raise ConfigError(f"{path}: no data rows")


def _oracle_floats(path, line, header, row, cols):
    values = []
    for i in cols:
        try:
            value = float(row[i])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(
                f"{path}: line {line}, column {header[i]}: {row[i]!r} is not a finite number"
            )
        values.append(value)
    return values


def _oracle_header(reader, path, required):
    header = next(reader, None)
    if header is None:
        raise ConfigError(f"{path}: empty file, expected columns {', '.join(required)}")
    missing = [c for c in required if c not in header]
    if missing:
        raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
    return header


def oracle_read_labeled(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _oracle_header(reader, path, ("label", "target"))
        label_col = header.index("label")
        cols = [header.index("target")] + [i for i, c in enumerate(header) if c.startswith("f_")]
        labels = []

        def fields():
            for line, row in _oracle_rows(reader, path, len(header)):
                labels.append(row[label_col])
                yield from _oracle_floats(path, line, header, row, cols)

        values = np.fromiter(fields(), dtype=float).reshape(-1, len(cols))
    return LabeledDataset(values[:, 1:].copy(), np.array(labels), values[:, 0].copy())


def oracle_read_panel(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _oracle_header(reader, path, ("period", "asset_id", "next_return"))
        period_col, asset_col = header.index("period"), header.index("asset_id")
        cols = [i for i, c in enumerate(header) if c.startswith("f_")] + [header.index("next_return")]
        by_period = {}
        for line, row in _oracle_rows(reader, path, len(header)):
            by_period.setdefault(row[period_col], []).append((line, row))
    periods = []
    for label in sorted(by_period):
        entries = sorted(by_period[label], key=lambda e: e[1][asset_col])
        values = np.array([_oracle_floats(path, line, header, row, cols) for line, row in entries])
        periods.append(PanelPeriod(
            label=label,
            asset_ids=[row[asset_col] for _, row in entries],
            features=values[:, :-1].copy(),
            next_returns=values[:, -1].copy(),
        ))
    return PanelDataset(periods)


GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([" 1.5", "1_0", "-0.0", "0", "+2e-3 ", "1e-320", '"7"']),
)
POISON_CELLS = st.sampled_from(["nan", "-Infinity", "inf", "1e999", "abc", ""])
KEY_CELLS = st.sampled_from(["A", "B", "2017Q1", "2017Q2", "a,b", 'say "hi"', "x\ny", ""])


@st.composite
def csv_file(draw, kind):
    """(text, rows, faulty) of a labeled or panel CSV: quoted key cells with
    commas, quotes and newlines, padded and odd-looking numbers, CRLF or lone-CR
    line ends, blank lines, and now and then a poison cell or a ragged row;
    ``faulty[i]`` says whether data row i holds a fault.  Panel keys are
    unique."""
    dim = draw(st.integers(0, 3))
    feats = [f"f_{i}" for i in range(dim)]
    if kind == "labeled":
        header, n_keys = ["label", "target"] + feats, 1
    else:
        header, n_keys = ["period", "asset_id"] + feats + ["next_return"], 2
    n_rows = draw(st.integers(0, 6))
    keys = draw(st.lists(st.tuples(*[KEY_CELLS] * n_keys), min_size=n_rows, max_size=n_rows,
                         unique=kind == "panel"))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=eol)
    writer.writerow(header)
    rows, faulty = [], []
    for key in keys:
        poison = draw(st.integers(0, 7)) == 0
        cells = [draw(POISON_CELLS if poison and draw(st.booleans()) else GOOD_CELLS)
                 for _ in range(len(header) - n_keys)]
        row = list(key) + cells
        ragged = draw(st.integers(0, 9)) == 0
        if ragged:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        if draw(st.integers(0, 4)) == 0:
            buf.write(eol)
        writer.writerow(row)
        rows.append(buf.getvalue())
        faulty.append(ragged or any(not _finite(c) for c in cells))
    return buf.getvalue(), rows, faulty


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _outcome(read, path):
    try:
        return read(path), None
    except ConfigError as exc:
        return None, str(exc)


class TestReadersMatchRowByRowOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=csv_file("labeled"))
    def test_labeled(self, case, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "labeled.csv"
        path.write_text(case[0], newline="")
        got, got_err = _outcome(read_labeled_csv, path)
        want, want_err = _outcome(oracle_read_labeled, path)
        assert got_err == want_err
        if want is not None:
            assert got.features.tobytes() == want.features.tobytes()
            assert got.features.shape == want.features.shape
            assert got.targets.tobytes() == want.targets.tobytes()
            assert got.labels.dtype == want.labels.dtype
            assert np.array_equal(got.labels, want.labels)

    @settings(max_examples=300, deadline=None)
    @given(case=csv_file("panel"))
    def test_panel_reports_first_fault_in_file_order(self, case, tmp_path_factory):
        text, rows, faulty = case
        path = tmp_path_factory.mktemp("csv") / "panel.csv"
        path.write_text(text, newline="")
        got, got_err = _outcome(read_panel_csv, path)
        if True in faulty:
            # The file cut after its first faulty row holds one fault, which
            # the oracle reports whatever its own order.
            path.write_text(rows[faulty.index(True)], newline="")
        want, want_err = _outcome(oracle_read_panel, path)
        assert got_err == want_err
        if want is not None:
            assert len(got) == len(want)
            for g, w in zip(got.periods, want.periods):
                assert g.label == w.label and g.asset_ids == w.asset_ids
                assert g.features.tobytes() == w.features.tobytes()
                assert g.features.shape == w.features.shape
                assert g.next_returns.tobytes() == w.next_returns.tobytes()


class TestPanelCsvFaults:
    HEADER = "period,asset_id,f_0,next_return"

    def _read(self, tmp_path, *lines):
        path = tmp_path / "panel.csv"
        path.write_text("\n".join((self.HEADER,) + lines) + "\n")
        with pytest.raises(ConfigError) as info:
            read_panel_csv(path)
        return str(info.value).removeprefix(f"{path}: ")

    def test_repeated_period_and_asset_names_both_lines(self, tmp_path):
        msg = self._read(tmp_path, "2017Q1,A004,1,0.1", "2017Q1,A005,1,0.1",
                         "2017Q2,A004,1,0.1", "2017Q1,A004,2,0.2")
        assert msg == "lines 2 and 5 both hold period '2017Q1', asset_id 'A004'"

    def test_first_fault_in_file_order_wins(self, tmp_path):
        # A bad cell in a later period comes first in the file; a repeat
        # and a ragged row follow it.
        assert self._read(tmp_path, "2017Q2,A001,abc,0.1", "2017Q1,A001,1,0.1",
                          "2017Q1,A001,1,0.1", "2017Q1,A002,1") == (
            "line 2, column f_0: 'abc' is not a finite number")
        assert self._read(tmp_path, "2017Q1,A001,1,0.1", "2017Q1,A001,1,0.1",
                          "2017Q1,A002,1") == "lines 2 and 3 both hold period '2017Q1', asset_id 'A001'"
        assert self._read(tmp_path, "2017Q2,A001,1,0.1", "2017Q1,A002,1",
                          "2017Q1,A001,nan,0.1") == "line 3 has 3 fields, header has 4"
