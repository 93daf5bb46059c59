"""Strict JSON run configuration: defaults, overrides, rejection of
unknown or ill-typed keys, and path resolution."""

import json
from pathlib import Path

import pytest

from surrogate_forge import ConfigError, NetConfig, RunConfig, load_config
from surrogate_forge.config import _SECTION_KEYS, _TOP_KEYS, WORKDIR_ENV

README = Path(__file__).resolve().parent.parent / "README.md"


def write_cfg(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestDefaults:
    def test_all_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.spec.J == 5
        assert cfg.spec.link == "sigmoid"
        assert cfg.datagen.I == 10000
        assert cfg.n_observed == 1000
        assert cfg.truth_sigma2 == 0.01
        assert cfg.seed == 0
        assert cfg.threads >= 1
        assert cfg.bench.M == 200
        assert cfg.bench.J_list == (2, 5, 10, 20)
        assert cfg.bench.N_test == 5000
        assert cfg.al.I_init == 10000
        assert cfg.invariance.tau_values == (0.8, 1.0)
        assert cfg.invariance.train_size == 10000

    def test_empty_file_equals_no_file(self, tmp_path):
        path = write_cfg(tmp_path, {})
        cfg = load_config(path)
        ref = load_config(None)
        assert cfg.spec == ref.spec
        assert cfg.bench == ref.bench

    def test_seed_propagates_to_components(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 123})
        cfg = load_config(path)
        assert cfg.seed == 123
        assert cfg.sampler.seed == 123
        assert cfg.datagen.seed == 123
        assert cfg.al.seed == 123


class TestOverrides:
    def test_cli_seed_beats_file(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 5})
        cfg = load_config(path, seed=9)
        assert cfg.seed == 9
        assert cfg.sampler.seed == 9

    def test_cli_threads_beats_file(self, tmp_path):
        path = write_cfg(tmp_path, {"threads": 2})
        assert load_config(path).threads == 2
        assert load_config(path, threads=7).threads == 7

    def test_out_overrides_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, {"paths": {"workdir": str(tmp_path),
                                              "artifacts": "aa"}})
        cfg = load_config(path)
        assert cfg.artifacts == tmp_path / "aa"
        cfg2 = load_config(path, out=str(tmp_path / "bb"))
        assert cfg2.artifacts == tmp_path / "bb"

    def test_relative_out_joins_workdir(self, tmp_path):
        path = write_cfg(tmp_path, {"paths": {"workdir": str(tmp_path)}})
        cfg = load_config(path, out="rel")
        assert cfg.artifacts == tmp_path / "rel"

    def test_env_workdir_beats_file(self, tmp_path, monkeypatch):
        other = tmp_path / "env_wd"
        other.mkdir()
        path = write_cfg(tmp_path, {"paths": {"workdir": str(tmp_path)}})
        monkeypatch.setenv(WORKDIR_ENV, str(other))
        cfg = load_config(path)
        assert cfg.artifacts == other / "artifacts"

    def test_missing_workdir_rejected(self, tmp_path):
        path = write_cfg(tmp_path, {"paths": {"workdir": str(tmp_path / "nope")}})
        with pytest.raises(ConfigError, match="workdir"):
            load_config(path)


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_cfg(tmp_path, {"modle": {"J": 3}})
        with pytest.raises(ConfigError, match="modle"):
            load_config(path)

    @pytest.mark.parametrize("section,key", [
        ("model", "j"),
        ("sampler", "n_samples"),
        ("datagen", "size"),
        ("net", "width"),
        ("al", "rounds"),
        ("invariance", "grid"),
        ("bench", "jlist"),
        ("paths", "output"),
    ])
    def test_unknown_section_key(self, tmp_path, section, key):
        path = write_cfg(tmp_path, {section: {key: 1}})
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_section_must_be_object(self, tmp_path):
        path = write_cfg(tmp_path, {"model": [1]})
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    @pytest.mark.parametrize("doc", [
        {"seed": "zero"},
        {"seed": True},
        {"threads": 0},
        {"threads": "four"},
        {"model": {"J": 0}},
        {"model": {"link": "cosh"}},
        {"model": {"n_observed": 0}},
        {"model": {"truth_sigma2": -1.0}},
        {"sampler": {"warmup": -1}},
        {"datagen": {"tau": 0.0}},
        {"al": {"K": 1}},
        {"invariance": {"grid_points": 1}},
        {"model": {"truth_sigma2": "a"}},
        {"bench": {"J_list": [0]}},
        {"bench": {"J_list": "ab"}},
        {"bench": {"calibration_K": 1}},
        {"invariance": {"val_size": 0}},
        {"invariance": {"tau_values": ["a"]}},
        {"invariance": {"c_values": ["b"]}},
        {"bench": {"J_list": [2, 2.5]}},
        {"bench": {"J_list": []}},
    ])
    def test_bad_values_raise_config_error(self, tmp_path, doc):
        path = write_cfg(tmp_path, doc)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("doc,message", [
        ({"bench": {"warmup": -1}}, "bench: warmup must be >= 0"),
        ({"sampler": {"warmup": -1}}, "sampler: warmup must be >= 0"),
        ({"al": {"max_epochs": 0}}, "al: max_epochs must be >= 1"),
        ({"invariance": {"max_epochs": 0}}, "invariance: max_epochs must be >= 1"),
        ({"model": {"J": 2}, "invariance": {"j": 5}}, "invariance: j must be < model.J (2), got 5"),
        ({"model": {"J": 2}, "invariance": {"j": 2}}, "invariance: j must be < model.J (2), got 2"),
    ])
    def test_range_error_names_its_section(self, tmp_path, doc, message):
        path = write_cfg(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("doc,name", [
        ({"al": {"I_al": 2.5}}, "al.I_al"),
        ({"sampler": {"samples": 20.5}}, "sampler.samples"),
        ({"sampler": {"leapfrog_steps": 2.5}}, "sampler.leapfrog_steps"),
        ({"datagen": {"I": 1.5}}, "datagen.I"),
        ({"model": {"J": 2.0}}, "model.J"),
        ({"threads": True}, "threads"),
        ({"invariance": {"train_size": 2.5}}, "invariance.train_size"),
        ({"invariance": {"max_epochs": True}}, "invariance.max_epochs"),
        ({"bench": {"M": True}}, "bench.M"),
    ])
    def test_integer_fields_refuse_other_types(self, tmp_path, doc, name):
        path = write_cfg(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            load_config(path)

    @pytest.mark.parametrize("doc,name", [
        ({"model": {"truth_sigma2": True}}, "model.truth_sigma2"),
        ({"model": {"prior_alpha_var": True}}, "model.prior_alpha_var"),
        ({"model": {"prior_beta_mean": None}}, "model.prior_beta_mean"),
        ({"model": {"prior_alpha_mean": "a"}}, "model.prior_alpha_mean"),
        ({"net": {"learning_rate": True}}, "net.learning_rate"),
        ({"net": {"dropout_rate": False}}, "net.dropout_rate"),
        ({"datagen": {"tau": True}}, "datagen.tau"),
        ({"al": {"tau": True}}, "al.tau"),
        ({"sampler": {"step_size": True}}, "sampler.step_size"),
        ({"invariance": {"tau_values": [True]}}, "invariance.tau_values entry"),
        ({"invariance": {"c_values": [0.0, None]}}, "invariance.c_values entry"),
    ])
    def test_float_fields_refuse_other_types(self, tmp_path, doc, name):
        path = write_cfg(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"{name} must be a number"):
            load_config(path)

    @pytest.mark.parametrize("doc,name", [
        ({"paths": {"workdir": 5}}, "paths.workdir"),
        ({"paths": {"artifacts": None}}, "paths.artifacts"),
        ({"model": {"link": 5}}, "model.link"),
        ({"net": {"norm": 5}}, "net.norm"),
        ({"datagen": {"input_dist": ["uniform01"]}}, "datagen.input_dist"),
    ])
    def test_string_fields_refuse_other_types(self, tmp_path, doc, name):
        path = write_cfg(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"{name} must be a string"):
            load_config(path)

    def test_float_fields_take_integers(self, tmp_path):
        path = write_cfg(tmp_path, {"model": {"truth_sigma2": 1},
                                    "invariance": {"c_values": [0, 1]}})
        cfg = load_config(path)
        assert cfg.truth_sigma2 == 1
        assert cfg.invariance.c_values == (0, 1)


class TestSectionsApplied:
    def test_model_section(self, tmp_path):
        path = write_cfg(tmp_path, {"model": {"J": 7, "link": "sine",
                                              "n_observed": 250,
                                              "truth_sigma2": 0.5}})
        cfg = load_config(path)
        assert cfg.spec.J == 7
        assert cfg.spec.link == "sine"
        assert cfg.n_observed == 250
        assert cfg.truth_sigma2 == 0.5

    def test_sampler_and_datagen_sections(self, tmp_path):
        path = write_cfg(tmp_path, {"sampler": {"warmup": 10, "samples": 20},
                                    "datagen": {"I": 64, "tau": 0.6}})
        cfg = load_config(path)
        assert cfg.sampler.warmup == 10
        assert cfg.sampler.samples == 20
        assert cfg.datagen.I == 64
        assert cfg.datagen.tau == 0.6

    def test_bench_overrides_merge_with_defaults(self, tmp_path):
        path = write_cfg(tmp_path, {"bench": {"M": 16, "J_list": [2, 3]}})
        cfg = load_config(path)
        assert cfg.bench.M == 16
        assert cfg.bench.J_list == (2, 3)
        assert cfg.bench.N_test == 5000

    def test_invariance_section_splits_extras(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 11, "invariance": {
            "j": 1, "tau_values": [0.5, 1.0], "c_values": [0.0],
            "grid_points": 5, "train_size": 128, "max_epochs": 3}})
        cfg = load_config(path)
        assert cfg.invariance.j == 1
        assert cfg.invariance.tau_values == (0.5, 1.0)
        assert cfg.invariance.c_values == (0.0,)
        assert cfg.invariance.grid_points == 5
        assert cfg.invariance.train_size == 128
        assert cfg.invariance.max_epochs == 3
        assert cfg.invariance.val_size == 2000
        assert cfg.invariance.intra_patience == 20
        assert cfg.invariance.seed == cfg.seed == 11


class TestNetSection:
    def test_dims_and_kwargs(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 4, "model": {"J": 3},
                                    "sampler": {"samples": 17},
                                    "net": {"hidden_width": 32, "norm": "none"}})
        net_cfg = load_config(path).net
        assert isinstance(net_cfg, NetConfig)
        assert net_cfg.input_dim == 3
        assert net_cfg.output_dim == 17
        assert net_cfg.hidden_width == 32
        assert net_cfg.norm == "none"
        assert net_cfg.seed == 4

    def test_invalid_net_value_becomes_config_error(self, tmp_path):
        path = write_cfg(tmp_path, {"net": {"dropout_rate": 1.5}})
        with pytest.raises(ConfigError, match="dropout_rate"):
            load_config(path)

    def test_returns_runconfig_type(self):
        assert isinstance(load_config(None), RunConfig)


class TestAcceptedKeys:
    """Each section accepts exactly these keys; a dataclass field added or
    renamed later changes the config surface only if this list changes too."""

    def test_section_keys(self):
        assert _SECTION_KEYS == {
            "model": {"J", "link", "n_observed", "prior_alpha_mean", "prior_alpha_var",
                      "prior_beta_mean", "prior_beta_var", "prior_gamma_mean",
                      "prior_gamma_var", "prior_sigma2_scale", "truth_sigma2"},
            "sampler": {"leapfrog_steps", "samples", "step_size", "target_accept", "warmup"},
            "datagen": {"I", "input_dist", "tau"},
            "net": {"activation", "batch_size", "dropout_rate", "hidden_width",
                    "learning_rate", "norm"},
            "al": {"I_al", "I_init", "K", "input_dist", "inter_patience", "intra_patience",
                   "max_epochs", "max_rounds", "pool_size", "tau", "val_size"},
            "invariance": {"c_values", "grid_points", "intra_patience", "j", "max_epochs",
                           "n_mc", "tau_values", "train_size", "val_size"},
            "bench": {"J_list", "M", "N_test", "calibration_K", "calibration_pool",
                      "n_observed", "reps", "warmup"},
            "paths": {"artifacts", "workdir"},
        }

    def test_top_level_keys(self):
        assert _TOP_KEYS == {"al", "bench", "datagen", "invariance", "model", "net",
                             "paths", "sampler", "seed", "threads"}

    def test_readme_example_loads(self, tmp_path):
        text = README.read_text()
        section = text[text.index("### Configuration"):]
        block = section[section.index("```json\n") + len("```json\n"):]
        doc = json.loads(block[:block.index("```")])
        doc["paths"]["workdir"] = str(tmp_path)
        cfg = load_config(write_cfg(tmp_path, doc))
        assert cfg.spec.J == doc["model"]["J"]
        assert cfg.bench.J_list == tuple(doc["bench"]["J_list"])
        assert cfg.artifacts == tmp_path / doc["paths"]["artifacts"]
