"""End-to-end command-line checks: exit codes, artifact layout, flag
placement, and byte-level reproducibility of stored artifacts."""

import hashlib
import json

import numpy as np
import pytest

import surrogate_forge.cli as cli
from surrogate_forge import active_learning, bench, bm_predict, synth_data
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
from surrogate_forge.serialize import read_manifest
from surrogate_forge.surrogate import TrainingDiverged
from surrogate_forge.synth_data import load_labeled_set

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

    @pytest.mark.parametrize("flags", [["--m", 1], ["--kappa", 0]], ids=["m1", "kappa0"])
    def test_out_of_range_exits_2(self, flags, capsys):
        assert run(["bench", "crossover", *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

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

    def test_null_prior_mean_exits_2(self, tiny_cfg, capsys):
        doc = json.loads(tiny_cfg.read_text())
        doc["model"]["prior_beta_mean"] = None
        tiny_cfg.write_text(json.dumps(doc))
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: model.prior_beta_mean") and err.count("\n") == 1

    def test_net_range_is_checked_before_fit_bm(self, tiny_cfg, tmp_path, capsys):
        doc = json.loads(tiny_cfg.read_text())
        doc["net"]["dropout_rate"] = 1.5
        tiny_cfg.write_text(json.dumps(doc))
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "dropout_rate" in err
        assert not (tmp_path / "arts" / "posterior").exists()

    @pytest.mark.parametrize("argv", [["fit-bm"], ["bench", "invariance", "--auto"]],
                             ids=["fit_bm", "bench_invariance"])
    def test_invariance_column_outside_model_exits_2(self, tiny_cfg, tmp_path, capsys, argv):
        doc = json.loads(tiny_cfg.read_text())
        doc["invariance"] = {"j": 5}
        tiny_cfg.write_text(json.dumps(doc))
        assert run([*argv, "--config", tiny_cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: invariance: j") and err.count("\n") == 1
        assert not (tmp_path / "arts").exists()


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
        assert sorted(f.name for f in data.iterdir()) == ["data.f64", "manifest.json"]
        ls = load_labeled_set(data)
        assert ls.X.shape == (64, 2)
        assert ls.Y.shape == (64, TINY["sampler"]["samples"])


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

    def test_gen_data_then_train_labels_the_set_once(self, tiny_cfg, monkeypatch):
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_OK
        calls = []
        real = cli.generate
        monkeypatch.setattr(cli, "generate", lambda *args: calls.append(args) or real(*args))
        assert run(["gen-data", "--config", tiny_cfg]) == EXIT_OK
        assert run(["train", "--config", tiny_cfg]) == EXIT_OK
        assert len(calls) == 1

    def test_train_stores_the_set_gen_data_stores(self, tiny_cfg, tmp_path):
        for out, stages in (("a", ["gen-data", "train"]), ("b", ["train"])):
            for stage in ["fit-bm", *stages]:
                assert run([stage, "--config", tiny_cfg, "--out", tmp_path / out]) == EXIT_OK
        for rel in ("data/manifest.json", "data/data.f64", "net/manifest.json", "net/params.f64"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
        digest = hashlib.sha256((tmp_path / "b" / "posterior" / "draws.f64").read_bytes())
        for artifact, kind in (("data", "labeled_set"), ("net", "surrogate_net")):
            doc = read_manifest(tmp_path / "b" / artifact / "manifest.json", kind, ())
            assert doc["posterior_sha256"] == digest.hexdigest()

    @pytest.mark.parametrize("stage,edit,key", [
        ("gen-data", lambda doc: doc["datagen"].update(I=65), "I"),
        ("gen-data", lambda doc: doc["datagen"].update(tau=0.7), "tau"),
        ("gen-data", lambda doc: doc.update(seed=12), "seed"),
        ("gen-data", lambda doc: doc["datagen"].update(input_dist="standard_gaussian"),
         "input_dist"),
        ("fit-bm", lambda doc: doc["sampler"].update(warmup=60), "posterior_sha256"),
    ], ids=["I", "tau", "seed", "input_dist", "posterior"])
    def test_refuses_a_set_of_another_run(self, tiny_cfg, tmp_path, capsys, stage, edit, key):
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_OK
        assert run(["gen-data", "--config", tiny_cfg]) == EXIT_OK
        doc = json.loads(tiny_cfg.read_text())
        edit(doc)
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        assert run([stage, "--config", other]) == EXIT_OK
        capsys.readouterr()
        assert run(["train", "--config", tiny_cfg]) == EXIT_MISSING
        err = capsys.readouterr().err
        manifest = tmp_path / "arts" / "data" / "manifest.json"
        assert err.startswith(f"artifact error: manifest {manifest} has {key} ")
        assert err.endswith("; re-run gen-data\n") and err.count("\n") == 1
        assert not (tmp_path / "arts" / "net").exists()


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

    def test_no_inputs_at_all(self, tiny_cfg, tmp_path):
        # --auto builds the posterior, data/ and the net, and data/ is gen-data's set
        assert run(["predict", "--engine", "nn", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        assert run(["gen-data", "--config", tiny_cfg, "--out", tmp_path / "g", "--auto"]) == EXIT_OK
        for name in ("manifest.json", "data.f64"):
            assert ((tmp_path / "arts" / "data" / name).read_bytes()
                    == (tmp_path / "g" / "data" / name).read_bytes()), name
        X = load_labeled_set(tmp_path / "arts" / "data").X
        body = np.loadtxt(tmp_path / "arts" / "predictions.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(body[:, :2], X)

    @pytest.mark.parametrize("engine", ["bm", "nn"])
    def test_default_rows_need_a_posterior_without_auto(self, tiny_cfg, capsys, engine):
        assert run(["predict", "--engine", engine, "--config", tiny_cfg]) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.startswith("artifact error: posterior artifact missing")
        assert err.count("\n") == 1

    def test_default_inputs_are_the_generated_set(self, tiny_cfg, tmp_path):
        assert run(["gen-data", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        assert run(["predict", "--engine", "bm", "--config", tiny_cfg]) == EXIT_OK
        body = np.loadtxt(tmp_path / "arts" / "predictions.csv", delimiter=",", skiprows=1)
        X = load_labeled_set(tmp_path / "arts" / "data").X
        np.testing.assert_array_equal(body[:, :2], X)

    def test_one_entry_data_layout_exits_5(self, tiny_cfg, tmp_path, capsys):
        assert run(["gen-data", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        manifest = tmp_path / "arts" / "data" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["layout"] = [{"name": "X", "shape": [doc["I"], doc["J"] + doc["M"]], "offset": 0}]
        manifest.write_text(json.dumps(doc))
        assert run(["predict", "--engine", "bm", "--config", tiny_cfg]) == EXIT_MISSING
        assert "expected ['X', 'Y']" in capsys.readouterr().err


def _rename_b2(doc):
    for entry in doc["parameters"]:
        if entry["name"] == "b2":
            entry["name"] = "b3"


class TestMalformedManifests:
    """A manifest that lacks a field its loader reads, or whose net entries
    do not match its config, is an artifact error with a one-line message."""

    @pytest.mark.parametrize("artifact,edit,engine", [
        ("net", _rename_b2, "nn"),
        ("net", lambda doc: doc["config"].update(hidden_widht=8), "nn"),
        ("posterior", lambda doc: doc.pop("layout"), "bm"),
        ("posterior", lambda doc: doc.update(J="two"), "bm"),
        ("data", lambda doc: doc.pop("tau"), "bm"),
    ], ids=["net_b2_renamed_b3", "net_unknown_config_key", "posterior_without_layout",
            "posterior_J_not_a_number", "data_without_tau"])
    def test_exits_5(self, tiny_cfg, tmp_path, capsys, artifact, edit, engine):
        assert run(["train", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        assert run(["gen-data", "--config", tiny_cfg]) == EXIT_OK
        manifest = tmp_path / "arts" / artifact / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["predict", "--engine", engine, "--config", tiny_cfg]) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.startswith("artifact error:") and err.count("\n") == 1

    def test_negative_sigma2_draw_exits_5(self, tiny_cfg, tmp_path, capsys):
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_OK
        blob = tmp_path / "arts" / "posterior" / "draws.f64"
        # the blob ends with the last draw's sigma2
        blob.write_bytes(blob.read_bytes()[:-8] + np.array([-1.0], "<f8").tobytes())
        capsys.readouterr()
        assert run(["gen-data", "--config", tiny_cfg]) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.startswith("artifact error:") and "nonnegative" in err
        assert err.count("\n") == 1


    @pytest.mark.parametrize("argv", [["gen-data"], ["train"], ["train", "--al"]],
                             ids=["gen-data", "train", "train-al"])
    def test_zero_draw_posterior_exits_5(self, tiny_cfg, tmp_path, capsys, argv):
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_OK
        d = tmp_path / "arts" / "posterior"
        doc = json.loads((d / "manifest.json").read_text())
        doc["M"] = 0
        for rec in doc["layout"]:
            rec["shape"][0] = 0
            rec["offset"] = 0
        (d / "manifest.json").write_text(json.dumps(doc))
        (d / "draws.f64").write_bytes(b"")
        capsys.readouterr()
        assert run([*argv, "--config", tiny_cfg]) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.startswith("artifact error:") and "at least one draw" in err
        assert err.count("\n") == 1


def _digest_mismatch(arts):
    """The refusal of a net trained on another posterior than the stored one."""
    man = arts / "net" / "manifest.json"
    stored = json.loads(man.read_text())["posterior_sha256"]
    needed = hashlib.sha256((arts / "posterior" / "draws.f64").read_bytes()).hexdigest()
    return f"manifest {man} has posterior_sha256 {stored!r}, expected {needed!r}"


class TestBench:
    def test_speed_needs_no_upstream_artifacts(self, tiny_cfg, tmp_path):
        doc = json.loads(tiny_cfg.read_text())
        doc["bench"] = {"J_list": [2, 3], "M": 8, "N_test": 20, "n_observed": 40,
                        "reps": 1, "warmup": 20}
        tiny_cfg.write_text(json.dumps(doc))
        assert run(["bench", "speed", "--config", tiny_cfg]) == EXIT_OK
        lines = (tmp_path / "arts" / "bench" / "speed_sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["J", "2", "3"]

    def test_calibration_then_invariance_merge_report(self, tiny_cfg, tmp_path, capsys):
        doc = json.loads(tiny_cfg.read_text())
        doc["bench"] = {"calibration_pool": 30, "calibration_K": 4}
        doc["invariance"] = {"j": 0, "tau_values": [1.0], "c_values": [0.0],
                             "n_mc": 8, "grid_points": 5, "train_size": 48,
                             "val_size": 16, "intra_patience": 2, "max_epochs": 2}
        tiny_cfg.write_text(json.dumps(doc))
        assert run(["bench", "calibration", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        assert run(["bench", "invariance", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        report = read_manifest(tmp_path / "arts" / "bench" / "report.json", "bench_report",
                               ("calibration", "invariance"))
        assert report["calibration"]["pool_size"] == 30
        assert (tmp_path / "arts" / "bench" / "calibration.csv").exists()
        inv_files = report["invariance"]["files"]
        assert inv_files and all((tmp_path / "arts").exists() for _ in inv_files)


    def test_calibration_pool_is_not_the_al_candidate_pool(self, tiny_cfg, monkeypatch):
        doc = json.loads(tiny_cfg.read_text())
        doc["bench"] = {"calibration_pool": 30, "calibration_K": 4}
        tiny_cfg.write_text(json.dumps(doc))
        assert run(["train", "--al", "--config", tiny_cfg, "--auto"]) == EXIT_OK
        names = []
        real = cli.substream
        monkeypatch.setattr(cli, "substream",
                            lambda seed, name: names.append(name) or real(seed, name))
        assert run(["bench", "calibration", "--config", tiny_cfg]) == EXIT_OK
        assert names == ["calibration-pool", "al-score"]

    @pytest.mark.parametrize("train_edit", [
        lambda doc: doc["model"].update(J=3),
        lambda doc: doc["sampler"].update(samples=12),
        lambda doc: doc["sampler"].update(warmup=60),
    ], ids=["input_width", "output_width", "same_widths"])
    def test_calibration_refuses_a_net_of_another_run(self, tiny_cfg, tmp_path, capsys,
                                                      train_edit):
        doc = json.loads(tiny_cfg.read_text())
        train_edit(doc)
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        assert run(["train", "--config", other, "--auto"]) == EXIT_OK
        assert run(["fit-bm", "--config", tiny_cfg]) == EXIT_OK
        capsys.readouterr()
        assert run(["bench", "calibration", "--config", tiny_cfg]) == EXIT_MISSING
        err = capsys.readouterr().err
        assert err == f"artifact error: {_digest_mismatch(tmp_path / 'arts')}; re-run train\n"


@pytest.mark.parametrize("argv", [
    ["train"], ["predict", "--engine", "nn"], ["predict", "--engine", "bm"],
    ["bench", "calibration"],
], ids=["train", "predict-nn", "predict-bm", "bench-calibration"])
def test_every_consumer_refuses_the_artifacts_of_a_refit_posterior(tiny_cfg, tmp_path,
                                                                   capsys, argv):
    for stage in ("fit-bm", "gen-data", "train"):
        assert run([stage, "--config", tiny_cfg]) == EXIT_OK
    doc = json.loads(tiny_cfg.read_text())
    doc["sampler"]["warmup"] = 60
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    assert run(["fit-bm", "--config", other]) == EXIT_OK
    capsys.readouterr()
    assert run([*argv, "--config", tiny_cfg]) == EXIT_MISSING
    err = capsys.readouterr().err
    assert err.startswith("artifact error: manifest ") and "has posterior_sha256 " in err
    assert err.count("\n") == 1
    assert not (tmp_path / "arts" / "predictions.csv").exists()


@pytest.mark.parametrize("argv", [["predict", "--engine", "nn"], ["bench", "calibration"]],
                         ids=["predict-nn", "bench-calibration"])
def test_auto_training_reuses_the_loaded_posterior(tiny_cfg, monkeypatch, argv):
    doc = json.loads(tiny_cfg.read_text())
    doc["bench"] = {"calibration_pool": 30, "calibration_K": 4}
    tiny_cfg.write_text(json.dumps(doc))
    calls = []
    real = cli.load_posterior
    monkeypatch.setattr(cli, "load_posterior", lambda *args: calls.append(args) or real(*args))
    assert run([*argv, "--config", tiny_cfg, "--auto"]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["gen-data"], ["train"], ["train", "--al"], ["bench", "calibration"],
    ["bench", "invariance"],
], ids=["gen-data", "train", "train-al", "bench-calibration", "bench-invariance"])
def test_labelling_runs_on_the_configured_threads(tiny_cfg, monkeypatch, argv):
    doc = json.loads(tiny_cfg.read_text())
    doc["bench"] = {"calibration_pool": 30, "calibration_K": 4}
    doc["invariance"] = {"j": 0, "tau_values": [1.0], "c_values": [0.0],
                         "n_mc": 8, "grid_points": 5, "train_size": 48,
                         "val_size": 16, "intra_patience": 2, "max_epochs": 2}
    tiny_cfg.write_text(json.dumps(doc))
    seen = []
    real = bm_predict.predict_batch

    def spy(spec, draws, X, threads=1):
        seen.append(threads)
        return real(spec, draws, X, threads)

    for module in (synth_data, active_learning, bench):
        monkeypatch.setattr(module, "predict_batch", spy)
    assert run([*argv, "--config", tiny_cfg, "--auto", "--threads", 2]) == EXIT_OK
    assert seen and set(seen) == {2}


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
