import argparse
import hashlib
import json

import numpy as np
import pytest

from rpdml import cli
from rpdml.cli import main, read_config_file
from rpdml.data import read_panel_csv


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
        # The failed run leaves its config and the partial trace (one record:
        # it fails at t=1), but no model.
        run_dir = tmp_path / "r"
        assert "eta0 = 0.9" in (run_dir / "config.txt").read_text()
        rows = [json.loads(l) for l in (run_dir / "trace.jsonl").read_text().splitlines()]
        assert [r["t"] for r in rows] == [0]
        assert not (run_dir / "model.json").exists()

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
