"""End-to-end command-line checks: exit codes, artifact layout, flag
placement, and byte-level reproducibility of stored artifacts."""

import json

import numpy as np
import pytest

import surrogate_forge.cli as cli
from surrogate_forge.cli import (
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_SAMPLER,
    EXIT_TRAINING,
    main,
)
from surrogate_forge.config import WORKDIR_ENV
from surrogate_forge.posterior import SamplerInitError
from surrogate_forge.surrogate import TrainingDiverged

TINY = {
    "seed": 11,
    "threads": 1,
    "model": {"J": 2, "link": "sigmoid", "n_observed": 60, "truth_sigma2": 0.01},
    "sampler": {"warmup": 50, "samples": 20},
    "datagen": {"I": 64, "tau": 0.8},
    "net": {"hidden_width": 8, "norm": "none", "dropout_rate": 0.5,
            "learning_rate": 1e-2, "batch_size": 16},
    "al": {"I_init": 40, "I_al": 10, "K": 3, "pool_size": 20,
           "inter_patience": 1, "intra_patience": 2, "val_size": 16,
           "max_rounds": 2, "max_epochs": 3},
}


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv(WORKDIR_ENV, raising=False)


@pytest.fixture
def tiny_cfg(tmp_path):
    doc = dict(TINY)
    doc["paths"] = {"workdir": str(tmp_path), "artifacts": "arts"}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestCrossoverCommand:
    def test_default_prints_headline_value(self, capsys):
        assert run(["bench", "crossover"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "20011"

    def test_custom_kappa_m(self, capsys):
        assert run(["bench", "crossover", "--kappa", 2, "--m", 2]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "4"

    def test_runs_without_readable_config(self, capsys):
        # pure arithmetic; must not touch the config machinery
        assert run(["bench", "crossover", "--config", "/no/such/file"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "20011"


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run(["fit-bm", "--config", missing]) == EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"modle": {}}))
        assert run(["fit-bm", "--config", bad]) == EXIT_CONFIG
        assert "modle" in capsys.readouterr().err

    def test_invalid_threads(self, capsys):
        assert run(["fit-bm", "--threads", 0]) == EXIT_CONFIG
        assert "threads" in capsys.readouterr().err


class TestFitBm:
    def test_writes_posterior_artifacts(self, tiny_cfg, tmp_path, capsys):
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_OK
        d = tmp_path / "arts" / "posterior"
        for name in ("manifest.json", "draws.f64", "diagnostics.json", "truth.json"):
            assert (d / name).exists()
        assert "posterior" in capsys.readouterr().out
        truth = json.loads((d / "truth.json").read_text())
        assert truth["J"] == 2
        assert len(truth["alpha"]) == 2

    def test_same_seed_runs_are_byte_identical(self, tiny_cfg, tmp_path):
        assert run(["fit-bm", "--config", tiny_cfg, "--out", tmp_path / "a"]) == EXIT_OK
        assert run(["fit-bm", "--config", tiny_cfg, "--out", tmp_path / "b"]) == EXIT_OK
        for name in ("manifest.json", "draws.f64"):
            a = (tmp_path / "a" / "posterior" / name).read_bytes()
            b = (tmp_path / "b" / "posterior" / name).read_bytes()
            assert a == b, name

    def test_seed_override_changes_draws(self, tiny_cfg, tmp_path):
        assert run(["fit-bm", "--config", tiny_cfg, "--out", tmp_path / "a"]) == EXIT_OK
        assert run(["fit-bm", "--config", tiny_cfg, "--out", tmp_path / "c",
                    "--seed", 99]) == EXIT_OK
        a = (tmp_path / "a" / "posterior" / "draws.f64").read_bytes()
        c = (tmp_path / "c" / "posterior" / "draws.f64").read_bytes()
        assert a != c

    def test_flag_placement_is_equivalent(self, tiny_cfg, tmp_path):
        # global flags are valid both before and after the subcommand
        assert run(["--config", tiny_cfg, "--out", tmp_path / "pre", "fit-bm"]) == EXIT_OK
        assert run(["fit-bm", "--config", tiny_cfg, "--out", tmp_path / "post"]) == EXIT_OK
        a = (tmp_path / "pre" / "posterior" / "draws.f64").read_bytes()
        b = (tmp_path / "post" / "posterior" / "draws.f64").read_bytes()
        assert a == b


class TestGenData:
    def test_requires_posterior_without_auto(self, tiny_cfg, capsys):
        assert run(["gen-data", "--config", tiny_cfg]) == EXIT_MISSING
        assert "posterior" in capsys.readouterr().err

    def test_auto_builds_posterior_then_data(self, tiny_cfg, tmp_path):
        assert run(["gen-data", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        arts = tmp_path / "arts"
        assert (arts / "posterior" / "draws.f64").exists()
        data = arts / "data"
        for name in ("X.csv", "Y.csv", "meta.json"):
            assert (data / name).exists()
        X = np.loadtxt(data / "X.csv", delimiter=",", skiprows=1)
        assert X.shape == (64, 2)


class TestTrain:
    def test_plain_train_writes_net_and_history(self, tiny_cfg, tmp_path):
        assert run(["train", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        net_dir = tmp_path / "arts" / "net"
        for name in ("manifest.json", "params.f64", "history.csv"):
            assert (net_dir / name).exists()
        header = (net_dir / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss"

    def test_al_train_history_layout(self, tiny_cfg, tmp_path):
        assert run(["train", "--al", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        lines = (tmp_path / "arts" / "net" / "history.csv").read_text().splitlines()
        assert lines[0] == "round,dataset_size,train_loss,val_loss,wall_time_s"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[1]) == TINY["al"]["I_init"]

    def test_same_seed_train_is_byte_identical(self, tiny_cfg, tmp_path):
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_OK
        assert run(["train", "--config", tiny_cfg]) == EXIT_OK
        first = (tmp_path / "arts" / "net" / "params.f64").read_bytes()
        man1 = (tmp_path / "arts" / "net" / "manifest.json").read_bytes()
        assert run(["train", "--config", tiny_cfg]) == EXIT_OK
        assert (tmp_path / "arts" / "net" / "params.f64").read_bytes() == first
        assert (tmp_path / "arts" / "net" / "manifest.json").read_bytes() == man1


class TestPredict:
    def _x_csv(self, tmp_path, rows=4):
        rng = np.random.default_rng(0)
        X = rng.random((rows, 2))
        path = tmp_path / "inputs.csv"
        np.savetxt(path, X, fmt="%.17g", delimiter=",", header="x_0,x_1",
                   comments="")
        return path, X

    def test_bm_engine_mean_round_trip(self, tiny_cfg, tmp_path):
        xp, X = self._x_csv(tmp_path)
        assert run(["predict", "--engine", "bm", "--x-csv", xp,
                    "--config", tiny_cfg, "--auto"]) == EXIT_OK
        out = tmp_path / "arts" / "predictions.csv"
        header = out.read_text().splitlines()[0]
        assert header == "x_0,x_1,y_mean"
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        assert body.shape == (4, 3)
        np.testing.assert_array_equal(body[:, :2], X)

    def test_bm_engine_draws_mode(self, tiny_cfg, tmp_path):
        xp, _ = self._x_csv(tmp_path)
        assert run(["predict", "--engine", "bm", "--mode", "draws",
                    "--x-csv", xp, "--config", tiny_cfg, "--auto"]) == EXIT_OK
        out = tmp_path / "arts" / "predictions.csv"
        header = out.read_text().splitlines()[0].split(",")
        assert header[:2] == ["x_0", "x_1"]
        assert header[2:] == [f"y_{m}" for m in range(TINY["sampler"]["samples"])]

    def test_nn_engine_requires_net_without_auto(self, tiny_cfg, tmp_path, capsys):
        xp, _ = self._x_csv(tmp_path)
        assert run(["predict", "--x-csv", xp, "--config", tiny_cfg]) == EXIT_MISSING
        assert "net" in capsys.readouterr().err

    def test_nn_engine_auto_trains_then_predicts(self, tiny_cfg, tmp_path):
        xp, _ = self._x_csv(tmp_path)
        assert run(["predict", "--x-csv", xp, "--config", tiny_cfg,
                    "--auto"]) == EXIT_OK
        assert (tmp_path / "arts" / "net" / "params.f64").exists()
        header = (tmp_path / "arts" / "predictions.csv").read_text().splitlines()[0]
        assert header == "x_0,x_1,y_mean"

    def test_nn_engine_rejects_wrong_width(self, tiny_cfg, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "wide.csv"
        np.savetxt(path, rng.random((3, 5)), fmt="%.17g", delimiter=",",
                   header="x_0,x_1,x_2,x_3,x_4", comments="")
        assert run(["train", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        assert run(["predict", "--x-csv", path, "--config", tiny_cfg]) == EXIT_CONFIG
        assert "columns" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["bm", "nn"])
    @pytest.mark.parametrize("body", [
        "x_0,x_1\n0.1,0.2\n0.3,0.4\n",           # 2 columns for J = 3
        "x_0,x_1,x_2\n0.1,0.2,0.3\nnan,0.5,0.6\n",  # non-finite row
        "x_0,x_1,x_2\n",                          # header only
        "x_0,x_1,x_2\n0.1,abc,0.3\n",             # not a number
    ], ids=["two_columns", "nan_row", "header_only", "not_a_number"])
    def test_bad_input_rows_exit_2(self, tmp_path, capsys, engine, body):
        doc = dict(TINY, model=dict(TINY["model"], J=3),
                   paths={"workdir": str(tmp_path), "artifacts": "arts"})
        cfg_path = tmp_path / "run3.json"
        cfg_path.write_text(json.dumps(doc))
        xp = tmp_path / "bad.csv"
        xp.write_text(body)
        assert run(["predict", "--engine", engine, "--x-csv", xp,
                    "--config", cfg_path, "--auto"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "arts" / "predictions.csv").exists()

    def test_net_of_other_width_is_an_artifact_error(self, tiny_cfg, tmp_path, capsys):
        assert run(["train", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        doc = json.loads(tiny_cfg.read_text())
        doc["model"]["J"] = 3
        cfg3 = tmp_path / "run3.json"
        cfg3.write_text(json.dumps(doc))
        xp = tmp_path / "x3.csv"
        xp.write_text("x_0,x_1,x_2\n0.1,0.2,0.3\n")
        assert run(["predict", "--x-csv", xp, "--config", cfg3]) == EXIT_MISSING
        assert "stored net" in capsys.readouterr().err

    def test_missing_x_csv_file(self, tiny_cfg, tmp_path):
        assert run(["predict", "--engine", "bm", "--x-csv", tmp_path / "nope.csv",
                    "--config", tiny_cfg, "--auto"]) == EXIT_MISSING

    def test_no_inputs_at_all(self, tiny_cfg, capsys):
        assert run(["predict", "--engine", "bm", "--config", tiny_cfg,
                    "--auto"]) == EXIT_MISSING
        assert "x-csv" in capsys.readouterr().err


class TestBench:
    def test_speed_requires_net_or_auto(self, tiny_cfg, capsys):
        assert run(["bench", "speed", "--config", tiny_cfg]) == EXIT_MISSING
        assert "net" in capsys.readouterr().err

    def test_calibration_then_invariance_merge_report(self, tiny_cfg, tmp_path, capsys):
        doc = json.loads(tiny_cfg.read_text())
        doc["bench"] = {"calibration_pool": 30, "calibration_K": 4}
        doc["invariance"] = {"j": 0, "tau_values": [1.0], "c_values": [0.0],
                             "n_mc": 8, "grid_points": 5, "train_size": 48,
                             "val_size": 16, "intra_patience": 2, "max_epochs": 2}
        tiny_cfg.write_text(json.dumps(doc))
        assert run(["bench", "calibration", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        assert run(["bench", "invariance", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        report = json.loads((tmp_path / "arts" / "bench" / "report.json").read_text())
        assert "calibration" in report
        assert "invariance" in report
        assert report["calibration"]["pool_size"] == 30
        assert (tmp_path / "arts" / "bench" / "calibration.csv").exists()
        inv_files = report["invariance"]["files"]
        assert inv_files and all((tmp_path / "arts").exists() for _ in inv_files)

    def test_invariance_alias_matches_bench_suite(self, tiny_cfg, tmp_path):
        doc = json.loads(tiny_cfg.read_text())
        doc["invariance"] = {"j": 0, "tau_values": [1.0], "c_values": [0.0],
                             "n_mc": 8, "grid_points": 5, "train_size": 48,
                             "val_size": 16, "intra_patience": 2, "max_epochs": 2}
        tiny_cfg.write_text(json.dumps(doc))
        assert run(["invariance", "--config", tiny_cfg, "--auto",
                    "--out", tmp_path / "alias"]) == EXIT_OK
        assert run(["bench", "invariance", "--config", tiny_cfg, "--auto",
                    "--out", tmp_path / "suite"]) == EXIT_OK
        a = json.loads((tmp_path / "alias" / "bench" / "report.json").read_text())
        b = json.loads((tmp_path / "suite" / "bench" / "report.json").read_text())
        assert a["invariance"]["max_abs_deviation"] == b["invariance"]["max_abs_deviation"]


class TestErrorExitCodes:
    def test_sampler_failure_maps_to_3(self, tiny_cfg, monkeypatch, capsys):
        def boom(cfg):
            raise SamplerInitError("log density not finite at the start point")
        monkeypatch.setattr(cli, "_fit_bm", boom)
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_SAMPLER
        assert "sampler error" in capsys.readouterr().err

    def test_training_failure_maps_to_4(self, tiny_cfg, monkeypatch, capsys):
        def boom(cfg, use_al, auto):
            raise TrainingDiverged("loss is not finite")
        monkeypatch.setattr(cli, "_train", boom)
        assert run(["train", "--config", tiny_cfg]) == EXIT_TRAINING
        assert "training error" in capsys.readouterr().err
