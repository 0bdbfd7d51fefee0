import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpdml
from rpdml import cli
from rpdml.cli import main, read_config_file
from rpdml.data import (
    PanelDataset,
    PanelPeriod,
    SyntheticSpec,
    normalize_features,
    read_panel_csv,
    write_panel_csv,
)
from rpdml.errors import ConfigError, DivergedError
from rpdml.manifold import SpdMatrix, logdet_divergence, retract
from rpdml.metric import RpdmlConfig, train


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def labeled_csv(tmp_path):
    path = tmp_path / "labeled.csv"
    code = run_cli(
        "gen-data", "--seed", "7", "--out", str(path),
        "--samples", "80", "--dim", "6", "--informative-dims", "3",
    )
    assert code == 0
    return path


@pytest.fixture
def panel_csv(tmp_path):
    path = tmp_path / "panel.csv"
    code = run_cli(
        "gen-data", "--seed", "7", "--kind", "panel", "--out", str(path),
        "--dim", "6", "--informative-dims", "3", "--periods", "5", "--assets", "20",
    )
    assert code == 0
    return path


class TestGenData:
    def test_reruns_are_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            assert run_cli("gen-data", "--seed", "11", "--out", str(p),
                           "--samples", "40", "--dim", "5", "--informative-dims", "2") == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("gen-data", "--seed", "1", "--out", str(p1), "--samples", "30") == 0
        assert run_cli("gen-data", "--seed", "2", "--out", str(p2), "--samples", "30") == 0
        assert p1.read_bytes() != p2.read_bytes()

    def test_seed_is_mandatory(self, tmp_path):
        assert run_cli("gen-data", "--out", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("flag", ["--periods", "--assets"])
    def test_empty_panel_is_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "sub" / "panel.csv"
        assert run_cli("gen-data", "--seed", "1", "--kind", "panel", "--out", str(out),
                       flag, "0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least one period and one asset" in err
        assert not out.parent.exists()


class TestTrainEval:
    def test_train_then_eval_learned(self, labeled_csv, tmp_path):
        run_dir = tmp_path / "run"
        code = run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(run_dir), "--iters", "20")
        assert code == 0
        assert (run_dir / "model.json").exists()
        assert (run_dir / "trace.jsonl").exists()
        assert (run_dir / "config.txt").exists()
        model = json.loads((run_dir / "model.json").read_text())
        assert set(model) == {"dim", "w", "w0", "u", "l"}
        assert model["dim"] == 6 and len(model["w"]) == 36

        eval_dir = tmp_path / "eval"
        code = run_cli("eval", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(eval_dir), "--metric", "learned",
                       "--model", str(run_dir / "model.json"))
        assert code == 0
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert 0.0 <= metrics["knn_accuracy"] <= 1.0
        assert -1.0 <= metrics["spearman_ic"] <= 1.0

    def test_eval_baselines(self, labeled_csv, tmp_path):
        for metric in ("euclidean", "mahalanobis"):
            outdir = tmp_path / f"eval_{metric}"
            code = run_cli("eval", "--seed", "7", "--data", str(labeled_csv),
                           "--outdir", str(outdir), "--metric", metric)
            assert code == 0

    def test_learned_requires_model(self, labeled_csv, tmp_path):
        code = run_cli("eval", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(tmp_path / "e"), "--metric", "learned")
        assert code == 1

    def test_model_of_wrong_dim_leaves_no_outdir(self, labeled_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        eye = [1.0, 0.0, 0.0, 1.0]
        model.write_text(json.dumps({"dim": 2, "w": eye, "w0": eye, "u": 1.0, "l": 2.0}))
        outdir = tmp_path / "e"
        assert run_cli("eval", "--seed", "7", "--data", str(labeled_csv), "--outdir", str(outdir),
                       "--metric", "learned", "--model", str(model)) == 1
        assert "model dim 2 != data dim 6" in capsys.readouterr().err
        assert not outdir.exists()

    def test_model_missing_key_is_an_input_error(self, labeled_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"dim": 2}))
        outdir = tmp_path / "e"
        assert run_cli("eval", "--seed", "7", "--data", str(labeled_csv), "--outdir", str(outdir),
                       "--metric", "learned", "--model", str(model)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err and "w, w0, u, l" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("model_obj, flags, message", [
        ({"dim": 2}, [], "lacks key(s): w, w0, u, l"),
        ({"dim": 0, "w": [], "w0": [], "u": 1.0, "l": 2.0}, [], "dim must be an integer >= 1"),
        ({"dim": 1, "w": [1.0], "w0": [1.0], "u": 1.0, "l": 2.0}, ["--k", "0"],
         "--k must be at least 1, got 0"),
    ])
    def test_model_and_k_are_checked_before_reading(
            self, labeled_csv, tmp_path, capsys, monkeypatch, model_obj, flags, message):
        reads = []
        monkeypatch.setattr(cli, "read_labeled_csv", lambda *a, **kw: reads.append(a))
        model = tmp_path / "m.json"
        model.write_text(json.dumps(model_obj))
        outdir = tmp_path / "e"
        assert run_cli("eval", "--seed", "7", "--data", str(labeled_csv), "--outdir", str(outdir),
                       "--metric", "learned", "--model", str(model), *flags) == 1
        assert message in capsys.readouterr().err
        assert reads == [] and not outdir.exists()

    def test_k_above_training_rows_leaves_no_outdir(self, labeled_csv, tmp_path, capsys):
        # 80 rows at --train-frac 0.5 leave 40 training rows.
        outdir = tmp_path / "e"
        assert run_cli("eval", "--seed", "7", "--data", str(labeled_csv), "--outdir", str(outdir),
                       "--metric", "euclidean", "--k", "500") == 1
        assert "k=500 out of range for 40 training rows" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("frac", ["-3", "0", "1.5", "nan"])
    def test_train_frac_outside_unit_interval_is_rejected(
            self, labeled_csv, tmp_path, capsys, monkeypatch, command, frac):
        def no_read(*args, **kwargs):
            raise AssertionError("the data was read")
        monkeypatch.setattr(cli, "read_labeled_csv", no_read)
        outdir = tmp_path / "run"
        extra = ["--metric", "euclidean"] if command == "eval" else []
        assert run_cli(command, "--seed", "7", "--data", str(labeled_csv), "--outdir",
                       str(outdir), "--train-frac", frac, *extra) == 1
        err = capsys.readouterr().err
        if frac == "nan":
            assert "argument --train-frac: invalid finite float value: 'nan'" in err
        else:
            assert f"--train-frac must be in (0, 1], got {float(frac)}" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--c1", "0", "c1 must be positive, got 0.0"),
        ("train", "--iters", "-1", "iters must be >= 0, got -1"),
        ("train", "--max-pairs", "0", "max_pairs must be >= 1"),
        ("backtest", "--c1", "0", "c1 must be positive, got 0.0"),
    ])
    def test_bad_training_option_is_rejected_before_reading(
            self, request, tmp_path, capsys, monkeypatch, command, flag, value, message):
        data = request.getfixturevalue("panel_csv" if command == "backtest" else "labeled_csv")

        def no_read(*args, **kwargs):
            raise AssertionError("the data was read")
        monkeypatch.setattr(cli, "read_labeled_csv", no_read)
        monkeypatch.setattr(cli, "read_panel_csv", no_read)
        outdir = tmp_path / "run"
        assert run_cli(command, "--seed", "7", "--data", str(data), "--outdir", str(outdir),
                       flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not outdir.exists()

    def test_prox_mode_flag_is_a_usage_error(self, labeled_csv, tmp_path):
        # The W step is always the proximal one; there is no mode to pick.
        run_dir = tmp_path / "run"
        code = run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(run_dir), "--prox-mode", "omit")
        assert code == 1
        assert not (run_dir / "model.json").exists()

    def test_trace_jsonl_schema(self, labeled_csv, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(run_dir), "--iters", "10") == 0
        rows = [json.loads(l) for l in (run_dir / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == 10
        for key in ("t", "eta", "f", "h_violation", "dual_norm"):
            assert all(key in r for r in rows)


class TestReadmeTrainPin:
    """Values of the README desk ``train`` (seed 7, ``--train-frac 0.5``), as
    the Cholesky W step computes them: pinned to 1e-9 relative, so a change
    that moves them shows by how much, and by digest, so any change to a bit
    of ``trace.jsonl`` or ``model.json`` shows."""

    PINNED = {0: (0.0, 7534.819019467227),
              19: (68.92781286753652, 1.3970057648895642),
              199: (42.61327874638621, 3.6785382628055627)}
    W_FROBENIUS = 5.764699405203624

    def test_trace_and_model_match_pinned_values(self, tmp_path):
        data, outdir = tmp_path / "labeled.csv", tmp_path / "train1"
        assert run_cli("gen-data", "--seed", "7", "--out", str(data), "--samples", "200",
                       "--dim", "20", "--informative-dims", "4", "--noise-scale", "3") == 0
        assert run_cli("train", "--seed", "7", "--data", str(data), "--outdir", str(outdir),
                       "--train-frac", "0.5") == 0
        records = [json.loads(line) for line in (outdir / "trace.jsonl").read_text().splitlines()]
        assert len(records) == 200
        for t, (f, h_violation) in self.PINNED.items():
            assert records[t]["t"] == t
            assert math.isclose(records[t]["f"], f, rel_tol=1e-9), t
            assert math.isclose(records[t]["h_violation"], h_violation, rel_tol=1e-9), t
        w = np.array(json.loads((outdir / "model.json").read_text())["w"])
        assert math.isclose(float(np.linalg.norm(w)), self.W_FROBENIUS, rel_tol=1e-9)
        digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                   for name in ("trace.jsonl", "model.json")}
        assert digests == {
            "trace.jsonl": "f9f6ecdf6283bbc56f08222b3b486fdd00d1c24939a99d8727a026dbc2db6c26",
            "model.json": "f31ea4453565dd6140d4b1cf8c9521faf7fbc9132b138c9cdf18b4d2d9c79060",
        }


class TestInverseCovarianceTrainPin:
    """The README desk ``train`` of ``TestReadmeTrainPin`` with ``--w0
    inverse_covariance``: the one CLI path through the per-window ``x @ W0``
    product of the pair distances.  f at t=0 is round-off near 0 (d2(W0, W0)),
    so only its violation is pinned there."""

    H_VIOLATION_0 = 7086.213315538216
    PINNED = {19: (69.15910320089662, 7.386959761899722),
              199: (39.19798785486494, 5.111767604294657)}
    W_FROBENIUS = 6.749795900126767

    def test_trace_and_model_match_pinned_values(self, tmp_path):
        data, outdir = tmp_path / "labeled.csv", tmp_path / "train1"
        assert run_cli("gen-data", "--seed", "7", "--out", str(data), "--samples", "200",
                       "--dim", "20", "--informative-dims", "4", "--noise-scale", "3") == 0
        assert run_cli("train", "--seed", "7", "--data", str(data), "--outdir", str(outdir),
                       "--train-frac", "0.5", "--w0", "inverse_covariance") == 0
        records = [json.loads(line) for line in (outdir / "trace.jsonl").read_text().splitlines()]
        assert len(records) == 200
        assert math.isclose(records[0]["h_violation"], self.H_VIOLATION_0, rel_tol=1e-9)
        for t, (f, h_violation) in self.PINNED.items():
            assert records[t]["t"] == t
            assert math.isclose(records[t]["f"], f, rel_tol=1e-9), t
            assert math.isclose(records[t]["h_violation"], h_violation, rel_tol=1e-9), t
        w = np.array(json.loads((outdir / "model.json").read_text())["w"])
        assert math.isclose(float(np.linalg.norm(w)), self.W_FROBENIUS, rel_tol=1e-9)


class TestEighOnlyInRetraction:
    """Every SPD inverse and log-determinant comes from one Cholesky factor;
    ``np.linalg.eigh`` runs in the retraction only."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return calls

    def test_cli_inverses_run_no_eigh(self, labeled_csv, panel_csv, tmp_path, eigh_calls):
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv), "--outdir",
                       str(tmp_path / "train"), "--w0", "inverse_covariance", "--iters", "10") == 0
        assert run_cli("eval", "--seed", "7", "--data", str(labeled_csv), "--outdir",
                       str(tmp_path / "eval"), "--metric", "mahalanobis") == 0
        assert run_cli("backtest", "--seed", "7", "--data", str(panel_csv), "--outdir",
                       str(tmp_path / "bt"), "--metric", "mahalanobis", "--k", "5", "--top-n", "3") == 0
        assert eigh_calls == []

    def test_divergence_runs_no_eigh_and_retraction_does(self, eigh_calls):
        w, w0 = SpdMatrix(np.diag([2.0, 1.0, 0.5])), SpdMatrix.identity(3)
        assert logdet_divergence(w, w0) > 0.0
        assert eigh_calls == []
        retract(w0, np.diag([-2.0, 0.0, 0.1]))
        assert eigh_calls == [(3, 3)]


class TestBacktest:
    def test_backtest_writes_result(self, panel_csv, tmp_path):
        outdir = tmp_path / "bt"
        code = run_cli("backtest", "--seed", "7", "--data", str(panel_csv),
                       "--outdir", str(outdir), "--metric", "mahalanobis",
                       "--k", "5", "--top-n", "3")
        assert code == 0
        result = json.loads((outdir / "result.json").read_text())
        assert len(result["cumulative"]) == len(result["periods"]) == 4
        expected = np.cumprod(1.0 + np.array(result["period_returns"])) - 1.0
        assert np.allclose(result["cumulative"], expected, atol=1e-12)

    def test_rpdml_backtest_smoke(self, panel_csv, tmp_path):
        outdir = tmp_path / "bt2"
        code = run_cli("backtest", "--seed", "7", "--data", str(panel_csv),
                       "--outdir", str(outdir), "--metric", "rpdml",
                       "--k", "5", "--top-n", "3", "--iters", "10")
        assert code == 0
        metrics = json.loads((outdir / "metrics.json").read_text())
        assert "ic_mean" in metrics and "final_return" in metrics

    def test_rpdml_backtest_builds_one_config(self, tmp_path, monkeypatch):
        # Every window trains with the same RpdmlConfig, built once per run.
        path = tmp_path / "panel12.csv"
        assert run_cli("gen-data", "--seed", "3", "--kind", "panel", "--out", str(path),
                       "--dim", "6", "--informative-dims", "3", "--periods", "12",
                       "--assets", "20") == 0
        built = []

        def counting(**kwargs):
            built.append(kwargs)
            return RpdmlConfig(**kwargs)
        monkeypatch.setattr(cli, "RpdmlConfig", counting)
        outdir = tmp_path / "bt"
        assert run_cli("backtest", "--seed", "3", "--data", str(path), "--outdir", str(outdir),
                       "--metric", "rpdml", "--k", "5", "--top-n", "3", "--iters", "5") == 0
        assert len(json.loads((outdir / "result.json").read_text())["periods"]) == 11
        assert len(built) == 1

    @pytest.fixture
    def readme_panel(self, tmp_path):
        path = tmp_path / "panel.csv"
        assert run_cli("gen-data", "--seed", "3", "--kind", "panel", "--out", str(path),
                       "--dim", "12", "--informative-dims", "3", "--periods", "12",
                       "--assets", "40") == 0
        return path

    def test_readme_backtest_is_byte_identical_to_pinned_hashes(self, readme_panel, tmp_path):
        # Digests of the README backtest as the window-by-window fit wrote it;
        # the stacked fit must not move a bit of it.
        outdir = tmp_path / "bt1"
        assert run_cli("backtest", "--seed", "3", "--data", str(readme_panel), "--outdir",
                       str(outdir), "--metric", "rpdml", "--k", "10", "--top-n", "10") == 0
        digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                   for name in ("result.json", "metrics.json")}
        assert digests == {
            "result.json": "11ce2298cbea13520ec97189698aaa2f0490e8ee4f5b802736b120dec33c2a26",
            "metrics.json": "55177f525698dd63d0ba7a298a01b7573edf2a506f1045811ea8c424e5ba2aa7",
        }

    @pytest.mark.parametrize("eta0, failing", [
        ("0.0078", ["2019Q2"]),
        ("0.008", ["2017Q3", "2019Q2"]),
    ])
    def test_diverged_window_names_its_period(self, readme_panel, tmp_path, capsys, eta0,
                                              failing):
        # At these steps the named windows' W subproblems lose their minimizer
        # at t=1 when each is trained alone, and the other windows converge.
        outdir = tmp_path / "bt"
        assert run_cli("backtest", "--seed", "3", "--data", str(readme_panel), "--outdir",
                       str(outdir), "--metric", "rpdml", "--eta0", eta0) == 2
        err = capsys.readouterr().err
        assert err == "error: " + "; ".join(
            f"window {label}: inner minimizer failed at t=1: inner objective is unbounded "
            "below (dual pull exceeds the log barrier); use a smaller step size"
            for label in failing) + "\n"
        assert not outdir.exists()

    def test_failing_windows_of_both_pair_counts_are_named(self, readme_panel, tmp_path,
                                                            capsys):
        # Cut to 20 assets, the 2018 periods train windows of another pair
        # count, fit in a second stacked run.  The error names every window
        # that fails when trained alone, of either run, in period order.
        panel = read_panel_csv(readme_panel)
        cut = PanelDataset([
            PanelPeriod(p.label, p.asset_ids[:20], p.features[:20], p.next_returns[:20])
            if p.label.startswith("2018") else p for p in panel.periods])
        path = tmp_path / "cut.csv"
        write_panel_csv(cut, path)
        config = RpdmlConfig(iters=60, seed=3, eta0=0.012)
        failing = {}
        for train_p, cur_p in zip(cut.periods, cut.periods[1:]):
            labels = (train_p.next_returns > np.median(train_p.next_returns)).astype(int)
            try:
                train(normalize_features(train_p.features)[0], labels, config)
            except DivergedError as exc:
                failing[cur_p.label] = (len(train_p.asset_ids), str(exc))
        assert {n for n, _ in failing.values()} == {20, 40}
        outdir = tmp_path / "bt"
        assert run_cli("backtest", "--seed", "3", "--data", str(path), "--outdir", str(outdir),
                       "--metric", "rpdml", "--eta0", "0.012") == 2
        assert capsys.readouterr().err == "error: " + "; ".join(
            f"window {label}: {msg}" for label, (_, msg) in failing.items()) + "\n"
        assert not outdir.exists()

    def test_input_error_of_one_window_names_its_period(self, readme_panel, tmp_path, capsys):
        # Every 2018Q2 asset has the same next return, so the window trained
        # on 2018Q2 (trading 2018Q3) has one median-split label.
        panel = read_panel_csv(readme_panel)
        flat = PanelDataset([
            PanelPeriod(p.label, p.asset_ids, p.features, np.full(len(p.asset_ids), 0.01))
            if p.label == "2018Q2" else p for p in panel.periods])
        path = tmp_path / "flat.csv"
        write_panel_csv(flat, path)
        outdir = tmp_path / "bt"
        assert run_cli("backtest", "--seed", "3", "--data", str(path), "--outdir", str(outdir),
                       "--metric", "rpdml") == 1
        assert capsys.readouterr().err == (
            "error: window 2018Q3: need at least two distinct labels\n")
        assert not outdir.exists()
        assert run_cli("backtest", "--seed", "3", "--data", str(path), "--outdir", str(outdir),
                       "--metric", "euclidean") == 0

    def test_k_equal_to_window_gives_undefined_ic(self, tmp_path, capsys):
        # With k = assets per period every prediction is the mean of the same
        # set, so every prediction is equal: top-N falls to the smallest asset
        # ids and no period has a defined IC.
        path = tmp_path / "panel40.csv"
        assert run_cli("gen-data", "--seed", "3", "--kind", "panel", "--out", str(path),
                       "--dim", "12", "--informative-dims", "3", "--periods", "12",
                       "--assets", "40") == 0
        outdir = tmp_path / "bt40"
        code = run_cli("backtest", "--seed", "3", "--data", str(path), "--outdir", str(outdir),
                       "--metric", "euclidean", "--k", "40", "--top-n", "10")
        assert code == 0
        panel = read_panel_csv(path)
        result = json.loads((outdir / "result.json").read_text())
        assert result["periods"] == [p.label for p in panel.periods[1:]]
        expected = [float(np.mean(p.next_returns[:10])) for p in panel.periods[1:]]
        assert all(p.asset_ids[:10] == sorted(p.asset_ids)[:10] for p in panel.periods[1:])
        assert result["period_returns"] == expected
        metrics = json.loads((outdir / "metrics.json").read_text())
        assert metrics["n_periods"] == 0 and metrics["ic_mean"] is None
        out = capsys.readouterr().out
        assert "IC undefined" in out and all(lab in out for lab in result["periods"])
        assert "IC=undefined" in out

    @pytest.mark.parametrize("flag, value", [
        ("--top-n", "-1"), ("--top-n", "0"), ("--top-n", "-20"), ("--k", "0"), ("--k", "-3"),
        ("--mdd-window", "0"),
    ])
    def test_count_below_one_is_rejected_before_any_window(
            self, panel_csv, tmp_path, capsys, monkeypatch, flag, value):
        def no_window(*args, **kwargs):
            raise AssertionError("a window ran")
        monkeypatch.setattr(cli, "window_predictions", no_window)
        outdir = tmp_path / "bt"
        assert run_cli("backtest", "--seed", "7", "--data", str(panel_csv),
                       "--outdir", str(outdir), flag, value) == 1
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_top_n_above_assets_leaves_no_outdir(self, panel_csv, tmp_path, capsys):
        outdir = tmp_path / "bt"
        assert run_cli("backtest", "--seed", "7", "--data", str(panel_csv), "--outdir",
                       str(outdir), "--metric", "euclidean", "--k", "5", "--top-n", "21") == 1
        assert "top_n=21 out of range for 20 assets" in capsys.readouterr().err
        assert not outdir.exists()

    def test_one_period_panel_is_rejected(self, tmp_path, capsys):
        # A one-period panel has no training window before its only period.
        path = tmp_path / "panel1.csv"
        assert run_cli("gen-data", "--seed", "7", "--kind", "panel", "--out", str(path),
                       "--dim", "6", "--informative-dims", "3", "--periods", "1",
                       "--assets", "20") == 0
        outdir = tmp_path / "bt1"
        assert run_cli("backtest", "--seed", "7", "--data", str(path),
                       "--outdir", str(outdir)) == 1
        assert "need at least two periods" in capsys.readouterr().err
        assert not (outdir / "metrics.json").exists()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.25, 3.0]) | st.floats(-5, 5),
                             min_size=1, max_size=8), min_size=1, max_size=6))
    def test_grouped_median_split_equals_np_median(self, returns):
        # Odd and even lengths, ties at the median, several lengths in one call.
        windows = [(np.zeros((len(r), 2)), np.array(r)) for r in returns]
        provider = cli.make_metric_provider("rpdml", dict(cli._BACKTEST_DEFAULTS), 0)
        with mock.patch.object(cli, "train_many", lambda windows, config: windows):
            split = provider(windows)
        for (_, rets), (_, labels) in zip(windows, split):
            want = (rets > np.median(rets)).astype(int)
            assert labels.dtype == want.dtype and np.array_equal(labels, want)


class TestEfficacyGate:
    """The paper's efficacy claim on README-shape panels, seeds 1-12, at the
    backtest defaults: ``rpdml`` beats both the Euclidean and the Mahalanobis
    baseline on ``final_return`` and on ``ic_mean``, on every seed.  The
    smallest margins over the better baseline are 0.072 and 0.063."""

    def test_rpdml_beats_both_baselines_on_every_seed(self, tmp_path):
        losses = []
        for seed in range(1, 13):
            panel = tmp_path / f"panel{seed}.csv"
            assert run_cli("gen-data", "--seed", str(seed), "--kind", "panel", "--out", str(panel),
                           "--dim", "12", "--informative-dims", "3", "--periods", "12",
                           "--assets", "40") == 0
            got = {}
            for metric in ("rpdml", "euclidean", "mahalanobis"):
                outdir = tmp_path / f"bt{seed}_{metric}"
                assert run_cli("backtest", "--seed", str(seed), "--data", str(panel),
                               "--outdir", str(outdir), "--metric", metric) == 0
                got[metric] = json.loads((outdir / "metrics.json").read_text())
            for key in ("final_return", "ic_mean"):
                best = max(got["euclidean"][key], got["mahalanobis"][key])
                if not got["rpdml"][key] > best:
                    losses.append((seed, key, got["rpdml"][key], best))
        assert losses == []


class TestBenchConvergence:
    def test_trace_has_bound_checks(self, tmp_path):
        outdir = tmp_path / "bench"
        code = run_cli("bench-convergence", "--T", "50", "--outdir", str(outdir))
        assert code == 0
        rows = [json.loads(l) for l in (outdir / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == 50
        assert all(r["bound_ok"] is True for r in rows)
        assert all("bound" in r and "min_gap" in r for r in rows)

    def test_t500_trace_is_byte_identical_to_pinned_hash(self, tmp_path):
        # The README benchmark trace must not move: any change to the solver
        # loop, the toy problem or the bound shows up as a new digest.
        outdir = tmp_path / "bench"
        assert run_cli("bench-convergence", "--T", "500", "--outdir", str(outdir)) == 0
        digest = hashlib.sha256((outdir / "trace.jsonl").read_bytes()).hexdigest()
        assert digest == "51f8c95d03fde6167d0a8b4cf77af167040fe38a7ed9086691f94e00b0f62841"

    def test_zero_iterations_rejected_before_writing(self, tmp_path, capsys):
        outdir = tmp_path / "bench"
        outdir.mkdir()
        assert run_cli("bench-convergence", "--T", "0", "--outdir", str(outdir)) == 1
        assert "T must be >= 1" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("x0", ["0", "-1"])
    def test_x0_off_the_half_line_is_rejected(self, tmp_path, capsys, x0):
        # The toy's points are positive reals: its LogDet distance divides by
        # x0 and takes a log.
        outdir = tmp_path / "bench"
        assert run_cli("bench-convergence", f"--x0={x0}", "--outdir", str(outdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"--x0 must be positive, got {float(x0)}" in err
        assert not outdir.exists()


class TestExportPlots:
    def test_train_trace_series(self, labeled_csv, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(run_dir), "--iters", "8") == 0
        assert run_cli("export-plots", "--run", str(run_dir)) == 0
        plots = run_dir / "plots"
        for name in ("f.csv", "h_violation.csv", "dual_norm.csv"):
            lines = (plots / name).read_text().splitlines()
            assert len(lines) == 9  # header + 8 records

    def test_backtest_series(self, panel_csv, tmp_path):
        outdir = tmp_path / "bt"
        assert run_cli("backtest", "--seed", "7", "--data", str(panel_csv),
                       "--outdir", str(outdir), "--metric", "euclidean",
                       "--k", "5", "--top-n", "3") == 0
        assert run_cli("export-plots", "--run", str(outdir)) == 0
        assert (outdir / "plots" / "cumulative.csv").exists()
        assert (outdir / "plots" / "annual_returns.csv").exists()

    def test_labels_with_comma_and_quote_are_quoted(self, panel_csv, tmp_path):
        panel = read_panel_csv(panel_csv)
        labels = ['2017,Q1', '2017,Q2', '2017"Q3', '2017 "Q4"', '2018,Q1']
        renamed = PanelDataset([dataclasses.replace(p, label=lab)
                                for p, lab in zip(panel.periods, sorted(labels))])
        path = tmp_path / "quoted.csv"
        write_panel_csv(renamed, path)
        outdir = tmp_path / "bt"
        assert run_cli("backtest", "--seed", "7", "--data", str(path), "--outdir", str(outdir),
                       "--metric", "euclidean", "--k", "5", "--top-n", "3") == 0
        assert run_cli("export-plots", "--run", str(outdir)) == 0
        result = json.loads((outdir / "result.json").read_text())
        for name, key in (("cumulative.csv", "cumulative"), ("rolling_mdd.csv", "rolling_mdd")):
            with open(outdir / "plots" / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["period", key]
            assert all(len(row) == 2 for row in rows)
            assert [row[0] for row in rows[1:]] == result["periods"] == sorted(labels)[1:]
            assert [float(row[1]) for row in rows[1:]] == result[key]

    @pytest.mark.parametrize("name, text, where, missing", [
        ("trace.jsonl",
         '{"t": 0, "f": 1.0, "h_violation": 0.5, "dual_norm": 0.0}\n{"t": 1, "f": 1.0}\n',
         "trace.jsonl line 2", "h_violation, dual_norm"),
        ("result.json",
         json.dumps({"periods": ["2017Q2"], "rolling_mdd": [0.0], "annual_returns": {}}),
         "result.json", "cumulative"),
    ], ids=["trace", "result"])
    def test_partial_artifact_is_an_input_error(self, tmp_path, capsys, name, text, where,
                                                missing):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / name).write_text(text)
        assert run_cli("export-plots", "--run", str(run_dir)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{run_dir}/{where} lacks key(s): {missing}" in err
        assert not (run_dir / "plots").exists()

    def test_empty_run_dir_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("export-plots", "--run", str(empty)) == 1


class TestExitCodes:
    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag(self, tmp_path):
        assert run_cli("gen-data", "--seed", "1", "--out", str(tmp_path / "x.csv"),
                       "--bogus-flag", "3") == 1

    def test_missing_input_file(self, tmp_path):
        assert run_cli("train", "--seed", "1", "--data", str(tmp_path / "nope.csv"),
                       "--outdir", str(tmp_path / "o")) == 1

    def test_numeric_error_exit_code(self, tmp_path, labeled_csv):
        # An aggressive step size makes the inner subproblem unbounded.
        code = run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(tmp_path / "r"), "--iters", "30",
                       "--eta0", "0.9", "--c2", "1.0")
        assert code == 2
        # The failed run leaves its config and the partial trace (one record:
        # it fails at t=1), but no model.
        run_dir = tmp_path / "r"
        assert "eta0 = 0.9" in (run_dir / "config.txt").read_text()
        rows = [json.loads(l) for l in (run_dir / "trace.jsonl").read_text().splitlines()]
        assert [r["t"] for r in rows] == [0]
        assert not (run_dir / "model.json").exists()

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_empty_test_split_leaves_no_outdir(self, labeled_csv, tmp_path, capsys):
        outdir = tmp_path / "e"
        assert run_cli("eval", "--seed", "7", "--data", str(labeled_csv), "--outdir", str(outdir),
                       "--metric", "euclidean", "--train-frac", "1") == 1
        assert "error: test split too small; lower --train-frac" in capsys.readouterr().err
        assert not outdir.exists()

    def test_train_without_an_output_dir_creates_nothing(
            self, labeled_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RPDML_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv)) == 1
        assert "error: --outdir is required (or set RPDML_OUTPUT_DIR)" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


def _tree(root: Path) -> dict:
    """Every file under ``root``: relative path -> bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestRepeatedMain:
    """``main`` may run many times in one process: the parser is built once
    and shared, and no call sees another's state."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_sequence_matches_separate_processes(
            self, labeled_csv, panel_csv, tmp_path, capsys, monkeypatch):
        # Relative output paths make stdout and stderr comparable too.
        train = ["train", "--seed", "7", "--data", str(labeled_csv), "--iters", "12"]
        steps = [
            train + ["--outdir", "train"],
            ["eval", "--seed", "7", "--data", str(labeled_csv), "--outdir", "eval",
             "--metric", "learned", "--model", "train/model.json"],
            train + ["--outdir", "bad", "--w0", "bogus"],
            ["train", "--help"],
            ["backtest", "--seed", "7", "--data", str(panel_csv), "--outdir", "backtest",
             "--metric", "rpdml", "--k", "5", "--top-n", "3", "--iters", "10"],
            train + ["--outdir", "train-again"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        monkeypatch.delenv("RPDML_OUTPUT_DIR", raising=False)
        src = str(Path(rpdml.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        separate, in_process = tmp_path / "separate", tmp_path / "in-process"
        separate.mkdir()
        in_process.mkdir()
        expected = []
        for argv in steps:
            done = subprocess.run([sys.executable, "-m", "rpdml.cli", *argv], cwd=separate,
                                  env=env, capture_output=True, text=True)
            expected.append((done.returncode, done.stdout, done.stderr))
        monkeypatch.chdir(in_process)
        got = []
        for argv in steps:
            code = main(argv)
            out, err = capsys.readouterr()
            got.append((code, out, err))
        assert [code for code, _, _ in got] == [0, 0, 1, 0, 0, 0]
        assert got == expected
        assert "usage: rpdml train" in got[3][1]
        assert "invalid choice: 'bogus'" in got[2][2]
        assert _tree(in_process) == _tree(separate)
        assert _tree(in_process / "train-again") == _tree(in_process / "train")
        assert sorted(p.name for p in in_process.iterdir()) == [
            "backtest", "eval", "train", "train-again"]

    def test_patched_reader_is_used_after_the_parser_is_built(self, tmp_path, monkeypatch):
        cli.build_parser()
        seen = []

        def fake_read(path):
            seen.append(path)
            raise ConfigError("patched reader")
        monkeypatch.setattr(cli, "read_labeled_csv", fake_read)
        data = tmp_path / "d.csv"
        data.write_text("label,target,f_0\n")
        assert run_cli("train", "--seed", "1", "--data", str(data),
                       "--outdir", str(tmp_path / "o")) == 1
        assert seen == [str(data)]


class TestConfigFile:
    def test_flags_override_config(self, labeled_csv, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("iters = 5\nc1 = 4.0\n# a comment\n")
        run_dir = tmp_path / "run"
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(run_dir), "--config", str(cfg),
                       "--iters", "3") == 0
        rows = (run_dir / "trace.jsonl").read_text().splitlines()
        assert len(rows) == 3  # flag wins over the config file
        snapshot = (run_dir / "config.txt").read_text()
        assert "c1 = 4.0" in snapshot  # config file value survives

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        with pytest.raises(Exception):
            read_config_file(bad)

    def test_unknown_key_is_rejected(self, labeled_csv, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("iters = 3\nitres = 5\n")
        run_dir = tmp_path / "run"
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(run_dir), "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "itres" in err
        assert not (run_dir / "model.json").exists()

    # A value that fails its cast, or lies outside the flag's choices for
    # this command (eval has no `rpdml` metric, backtest no `learned`).
    _BAD_VALUES = [
        ("train", "normalize = maybe", "normalize"),
        ("train", "iters = 3.5", "iters"),
        ("train", "w0 = bogus", "w0"),
        ("eval", "metric = rpdml", "metric"),
        ("backtest", "metric = learned", "metric"),
        ("gen-data", "kind = bogus", "kind"),
    ]

    @pytest.mark.parametrize("command, line, key", _BAD_VALUES,
                             ids=[f"{line}-{key}" for _, line, key in _BAD_VALUES])
    def test_bad_value_is_rejected(self, request, tmp_path, capsys, command, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        run_dir = tmp_path / "run"
        if command == "gen-data":
            where = ["--out", str(run_dir / "x.csv")]
        else:
            data = request.getfixturevalue("panel_csv" if command == "backtest" else "labeled_csv")
            where = ["--data", str(data), "--outdir", str(run_dir)]
        assert run_cli(command, "--seed", "7", *where, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err and key in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("raw, value", [("1", True), ("true", True), ("YES", True),
                                            ("0", False), ("False", False), ("no", False)])
    def test_bool_spellings(self, tmp_path, raw, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"normalize = {raw}\n")
        args = cli.build_parser().parse_args(
            ["eval", "--seed", "1", "--data", "d.csv", "--config", str(cfg)])
        assert cli._layer_options(args, cli._EVAL_DEFAULTS)["normalize"] is value

    def test_snapshot_round_trip(self, labeled_csv, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(first), "--iters", "3", "--c1", "4.0") == 0
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(second), "--config", str(first / "config.txt")) == 0
        for name in ("config.txt", "model.json", "trace.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


#: Each command's defaults table and the flags it needs to parse at all.
_COMMAND_TABLES = {
    "gen-data": (cli._GEN_DEFAULTS, ["--seed", "1", "--out", "x.csv"]),
    "train": (cli._TRAIN_DEFAULTS, ["--seed", "1", "--data", "d.csv"]),
    "eval": (cli._EVAL_DEFAULTS, ["--seed", "1", "--data", "d.csv"]),
    "backtest": (cli._BACKTEST_DEFAULTS, ["--seed", "1", "--data", "d.csv"]),
    "bench-convergence": (cli._BENCH_DEFAULTS, []),
}


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestOptionTable:
    def test_option_strings_are_pinned(self):
        # The flags are generated from the defaults tables; renaming a key
        # would rename a documented flag.
        rpdml = ["--c1", "--c2", "--eta0", "--iters", "--max-pairs",
                 "--percentile-hi", "--percentile-lo", "--w0"]
        expected = {
            "gen-data": ["--assets", "--classes", "--cluster-sep", "--dim",
                         "--informative-dims", "--kind", "--noise-scale", "--out",
                         "--periods", "--samples", "--seed"],
            "train": rpdml + ["--data", "--no-normalize", "--normalize", "--outdir",
                              "--seed", "--train-frac"],
            "eval": ["--data", "--k", "--metric", "--model", "--no-normalize", "--normalize",
                     "--outdir", "--seed", "--train-frac"],
            "backtest": rpdml + ["--data", "--k", "--mdd-window", "--metric", "--no-normalize",
                                 "--normalize", "--outdir", "--seed", "--top-n"],
            "bench-convergence": ["--T", "--alpha", "--eta0", "--outdir", "--x0"],
            "export-plots": ["--outdir", "--run"],
        }
        got = {
            name: sorted(o for a in sp._actions for o in a.option_strings
                         if o not in ("-h", "--help", "--config"))
            for name, sp in _subparsers().items()
        }
        assert got == {name: sorted(opts) for name, opts in expected.items()}

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, (defaults, _) in _COMMAND_TABLES.items() for key in defaults
    ])
    def test_flag_and_config_file_resolve_equal(self, tmp_path, command, key):
        defaults, base = _COMMAND_TABLES[command]
        default = defaults[key]
        action = next(a for a in _subparsers()[command]._actions if a.dest == key)
        if isinstance(default, bool):
            value = not default
            flag = [f"--{'' if value else 'no-'}{key.replace('_', '-')}"]
        else:
            if action.choices:
                value = next(c for c in action.choices if c != default)
            else:
                value = "m.json" if default is None else default + 1
            flag = [action.option_strings[0], str(value)]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {value}\n")
        parser = cli.build_parser()
        from_flag = cli._layer_options(parser.parse_args([command, *base, *flag]), defaults)
        from_file = cli._layer_options(
            parser.parse_args([command, *base, "--config", str(cfg)]), defaults)
        assert from_flag == from_file
        assert from_flag[key] == value


    @pytest.mark.parametrize("defaults, overrides", [
        (cli._TRAIN_DEFAULTS, {}),
        (cli._BACKTEST_DEFAULTS, {"iters": 60}),
    ], ids=["train", "backtest"])
    def test_metric_learning_options_are_the_config_fields(self, defaults, overrides):
        fields = {f.name: f.default for f in dataclasses.fields(RpdmlConfig)
                  if f.init and f.name != "seed"}
        assert sorted(fields) == ["c1", "c2", "eta0", "iters", "max_pairs", "percentile_hi",
                                  "percentile_lo", "w0"]
        assert {key: defaults[key] for key in fields} == dict(fields, **overrides)
        assert cli._rpdml_config(defaults, seed=3) == RpdmlConfig(seed=3, **overrides)

    def test_dataset_options_are_the_spec_fields(self):
        fields = {f.name: f.default for f in dataclasses.fields(SyntheticSpec)
                  if f.name not in ("seed", "target_noise")}
        assert list(fields) == ["classes", "samples", "dim", "informative_dims",
                                "noise_scale", "cluster_sep"]
        assert {key: cli._GEN_DEFAULTS[key] for key in fields} == fields
        assert list(cli._GEN_DEFAULTS) == ["kind", *fields, "periods", "assets"]


#: Every float option of every command, with the flags it needs to parse.
_FLOAT_OPTIONS = [
    (command, key) for command, (defaults, _) in _COMMAND_TABLES.items()
    for key, default in defaults.items() if isinstance(default, float)
]


class TestNonFiniteOptions:
    """A nan or +-inf float option exits 1, naming the flag (or the config
    file and key), before any input is read or made and with no output."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("the command started work")
        for name in ("read_labeled_csv", "read_panel_csv", "generate_synthetic",
                     "generate_synthetic_panel"):
            monkeypatch.setattr(cli, name, fail)
        monkeypatch.setattr(cli.benchmarks, "run_toy", fail)
        monkeypatch.delenv("RPDML_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("form", ["flag", "file"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, key", _FLOAT_OPTIONS)
    def test_rejected_before_any_output(self, tmp_path, capsys, command, key, token, form):
        _, base = _COMMAND_TABLES[command]
        argv = [command, *base] + ([] if command == "gen-data" else ["--outdir", "out"])
        if command == "eval":
            argv += ["--metric", "euclidean"]  # else --model is required first
        flag = "--" + key.replace("_", "-")
        if form == "flag":
            argv.append(f"{flag}={token}")
        else:
            (tmp_path / "exp.cfg").write_text(f"{key} = {token}\n")
            argv += ["--config", "exp.cfg"]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if form == "flag":
            assert flag in err
        else:
            assert f"bad value for {key} in config file exp.cfg" in err and "finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (["exp.cfg"] if form == "file" else [])


class TestCsvHeaders:
    def _assert_clean_error(self, capsys, *fragments):
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        for frag in fragments:
            assert frag in err

    def test_labeled_csv_to_backtest(self, labeled_csv, tmp_path, capsys):
        assert run_cli("backtest", "--seed", "1", "--data", str(labeled_csv),
                       "--outdir", str(tmp_path / "bt"), "--metric", "euclidean") == 1
        self._assert_clean_error(capsys, str(labeled_csv), "period", "asset_id", "next_return")

    def test_panel_csv_to_train(self, panel_csv, tmp_path, capsys):
        assert run_cli("train", "--seed", "1", "--data", str(panel_csv),
                       "--outdir", str(tmp_path / "tr")) == 1
        self._assert_clean_error(capsys, str(panel_csv), "label", "target")

    @pytest.mark.parametrize("command", ["train", "backtest"])
    def test_empty_file(self, command, tmp_path, capsys):
        header = {"train": "label,target,f_0", "backtest": "period,asset_id,f_0,next_return"}
        for text, fragment in (("", "empty"), (header[command] + "\n", "no data rows")):
            empty = tmp_path / "empty.csv"
            empty.write_text(text)
            assert run_cli(command, "--seed", "1", "--data", str(empty),
                           "--outdir", str(tmp_path / "o")) == 1
            self._assert_clean_error(capsys, str(empty), fragment)
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "backtest"])
    def test_no_feature_column(self, command, tmp_path, capsys):
        # Without this check train, eval and backtest failed later with "need
        # at least two samples to normalize".
        text = {"train": "label,target\na,0.1\nb,0.2\na,0.3\nb,0.4\n",
                "backtest": "period,asset_id,next_return\np0,A,0.1\np0,B,0.2\n"
                            "p1,A,0.3\np1,B,0.4\n"}
        path = tmp_path / "nofeat.csv"
        path.write_text(text["backtest" if command == "backtest" else "train"])
        extra = ["--metric", "euclidean"] if command == "eval" else []
        assert run_cli(command, "--seed", "1", "--data", str(path),
                       "--outdir", str(tmp_path / "o"), *extra) == 1
        self._assert_clean_error(capsys, f"{path}: no feature column")
        assert not (tmp_path / "o").exists()

    def test_ragged_row(self, labeled_csv, tmp_path, capsys):
        ragged = tmp_path / "ragged.csv"
        lines = labeled_csv.read_text().splitlines()
        ragged.write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:]) + "\n")
        assert run_cli("train", "--seed", "1", "--data", str(ragged),
                       "--outdir", str(tmp_path / "o")) == 1
        self._assert_clean_error(capsys, str(ragged), "line 4")

    def test_repeated_panel_row(self, panel_csv, tmp_path, capsys):
        # A second row for one (period, asset_id) would train and trade that
        # asset twice.
        repeated = tmp_path / "repeated.csv"
        lines = panel_csv.read_text().splitlines()
        repeated.write_text("\n".join(lines + [lines[4]]) + "\n")
        period, asset = lines[4].split(",")[:2]
        assert run_cli("backtest", "--seed", "1", "--data", str(repeated),
                       "--outdir", str(tmp_path / "o"), "--metric", "euclidean") == 1
        self._assert_clean_error(capsys, str(repeated), f"lines 5 and {len(lines) + 1} both hold "
                                 f"period {period!r}, asset_id {asset!r}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where, line", [("header", 1), ("row", 3)])
    def test_cell_over_the_csv_field_limit(self, where, line, labeled_csv, tmp_path, capsys):
        # A row cell only reaches csv's 131072-character limit on the exact
        # row walk, which a later fault (here a nan target) sends the file to.
        lines = labeled_csv.read_text().splitlines()
        long = "x" * 200_000
        if where == "header":
            lines[0] += ",extra_" + long
            lines[1:] = [row + ",0" for row in lines[1:]]
        else:
            lines[2] = long + lines[2][lines[2].index(","):]
            cells = lines[-1].split(",")
            lines[-1] = ",".join([cells[0], "nan"] + cells[2:])
        bad = tmp_path / "long.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", "--seed", "1", "--data", str(bad), "--outdir", str(tmp_path / "o"),
                       "--metric", "euclidean") == 1
        self._assert_clean_error(capsys, f"{bad}: line {line}: field larger than field limit")
        assert not (tmp_path / "o").exists()


class TestNonFiniteCells:
    """A nan, inf or unparseable numeric cell is an input error naming file,
    line and column; the command exits 1 before creating its output directory."""

    @staticmethod
    def _poison(src, dst, line, column, token):
        lines = src.read_text().splitlines()
        col = lines[0].split(",").index(column)
        cells = lines[line - 1].split(",")
        cells[col] = token
        lines[line - 1] = ",".join(cells)
        dst.write_text("\n".join(lines) + "\n")
        return dst

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "abc"])
    @pytest.mark.parametrize("command, column", [
        ("train", "f_2"), ("eval", "f_0"), ("eval", "target"),
    ])
    def test_labeled_csv(self, command, column, token, labeled_csv, tmp_path, capsys):
        bad = self._poison(labeled_csv, tmp_path / "bad.csv", 6, column, token)
        outdir = tmp_path / "out"
        argv = [command, "--seed", "7", "--data", str(bad), "--outdir", str(outdir)]
        if command == "eval":
            argv += ["--metric", "euclidean"]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{bad}: line 6, column {column}" in err and "not a finite number" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "abc"])
    @pytest.mark.parametrize("column", ["f_1", "next_return"])
    def test_panel_csv_backtest(self, column, token, panel_csv, tmp_path, capsys):
        bad = self._poison(panel_csv, tmp_path / "bad.csv", 30, column, token)
        outdir = tmp_path / "out"
        assert run_cli("backtest", "--seed", "7", "--data", str(bad), "--outdir", str(outdir),
                       "--metric", "euclidean") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{bad}: line 30, column {column}" in err and "not a finite number" in err
        assert not outdir.exists()


class TestDeterminism:
    def test_train_reruns_byte_identical(self, labeled_csv, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert run_cli("train", "--seed", "9", "--data", str(labeled_csv),
                           "--outdir", str(d), "--iters", "12") == 0
        assert (dirs[0] / "model.json").read_bytes() == (dirs[1] / "model.json").read_bytes()
        assert (dirs[0] / "trace.jsonl").read_bytes() == (dirs[1] / "trace.jsonl").read_bytes()

    def test_bench_reruns_byte_identical(self, tmp_path):
        dirs = [tmp_path / "b1", tmp_path / "b2"]
        for d in dirs:
            assert run_cli("bench-convergence", "--T", "40", "--outdir", str(d)) == 0
        assert (dirs[0] / "trace.jsonl").read_bytes() == (dirs[1] / "trace.jsonl").read_bytes()

    def test_output_dir_env_override(self, labeled_csv, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("RPDML_OUTPUT_DIR", str(env_dir))
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(tmp_path / "ignored"), "--iters", "3") == 0
        assert (env_dir / "model.json").exists()
        assert not (tmp_path / "ignored").exists()


#: The README command sequence through ``main`` in one process, with short
#: runs; prints the modules it loaded beyond those of ``import numpy``.
README_SEQUENCE = r"""
import json, sys
import numpy
before = set(sys.modules)
from rpdml.cli import main
labeled, panel = "data/labeled.csv", "data/panel.csv"
steps = [
    ["gen-data", "--seed", "7", "--out", labeled, "--samples", "200", "--dim", "20",
     "--informative-dims", "4", "--noise-scale", "3"],
    ["train", "--seed", "7", "--data", labeled, "--outdir", "runs/train1", "--train-frac", "0.5",
     "--iters", "10"],
    ["eval", "--seed", "7", "--data", labeled, "--outdir", "runs/eval_eucl", "--metric", "euclidean"],
    ["eval", "--seed", "7", "--data", labeled, "--outdir", "runs/eval_maha", "--metric", "mahalanobis"],
    ["eval", "--seed", "7", "--data", labeled, "--outdir", "runs/eval_rpdml", "--metric", "learned",
     "--model", "runs/train1/model.json"],
    ["gen-data", "--seed", "3", "--kind", "panel", "--out", panel, "--dim", "12",
     "--informative-dims", "3", "--periods", "12", "--assets", "40"],
    ["backtest", "--seed", "3", "--data", panel, "--outdir", "runs/bt1", "--metric", "rpdml",
     "--k", "10", "--top-n", "10", "--iters", "10"],
    ["backtest", "--seed", "3", "--data", panel, "--outdir", "runs/bt_eucl", "--metric", "euclidean",
     "--k", "10", "--top-n", "10"],
    ["bench-convergence", "--T", "50", "--outdir", "runs/bench1"],
    ["export-plots", "--run", "runs/train1"],
]
codes = [main(argv) for argv in steps]
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - before),
                  "all": sorted(sys.modules)}))
"""


class TestRuntimeImports:
    def test_readme_sequence_loads_neither_numpy_ma_nor_scipy(self, tmp_path):
        # Measured against the modules of a bare ``import numpy``: numpy 1.x
        # loads numpy.ma itself, numpy 2 only when a call such as np.median
        # or a bare np.unique reaches for it.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(rpdml.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", README_SEQUENCE], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [0] * 10
        assert not [m for m in result["loaded"] if m == "numpy.ma" or m.startswith("numpy.ma.")]
        assert not [m for m in result["all"] if m == "scipy" or m.startswith("scipy.")]
