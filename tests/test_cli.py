import json

import numpy as np
import pytest

from rpdml.cli import main, read_config_file


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

    def test_trace_jsonl_schema(self, labeled_csv, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(run_dir), "--iters", "10") == 0
        rows = [json.loads(l) for l in (run_dir / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == 10
        for key in ("t", "eta", "f", "h_violation", "dual_norm"):
            assert all(key in r for r in rows)


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


class TestBenchConvergence:
    def test_trace_has_bound_checks(self, tmp_path):
        outdir = tmp_path / "bench"
        code = run_cli("bench-convergence", "--T", "50", "--outdir", str(outdir))
        assert code == 0
        rows = [json.loads(l) for l in (outdir / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == 50
        assert all(r["bound_ok"] is True for r in rows)
        assert all("bound" in r and "min_gap" in r for r in rows)


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

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0


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

    def test_snapshot_round_trip(self, labeled_csv, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(first), "--iters", "3", "--c1", "4.0") == 0
        assert run_cli("train", "--seed", "7", "--data", str(labeled_csv),
                       "--outdir", str(second), "--config", str(first / "config.txt")) == 0
        for name in ("config.txt", "model.json", "trace.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


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
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli(command, "--seed", "1", "--data", str(empty),
                       "--outdir", str(tmp_path / "o")) == 1
        self._assert_clean_error(capsys, str(empty), "empty")

    def test_ragged_row(self, labeled_csv, tmp_path, capsys):
        ragged = tmp_path / "ragged.csv"
        lines = labeled_csv.read_text().splitlines()
        ragged.write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:]) + "\n")
        assert run_cli("train", "--seed", "1", "--data", str(ragged),
                       "--outdir", str(tmp_path / "o")) == 1
        self._assert_clean_error(capsys, str(ragged), "line 4")


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
