import json
import math

import numpy as np
import pytest

from surrogate_forge import (
    DataGenConfig,
    LabeledSet,
    ModelSpec,
    generate,
    generate_at,
    load_labeled_set,
    predict_batch,
    save_labeled_set,
)
from surrogate_forge.serialize import FORMAT_VERSION, ArtifactError

from draw_sets import make_draws


class TestDataGenConfig:
    @pytest.mark.parametrize("kwargs", [
        {"I": 0},
        {"I": 10, "tau": 0.0},
        {"I": 10, "tau": 1.5},
        {"I": 10, "input_dist": "cauchy"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DataGenConfig(**kwargs)

    def test_tau_one_is_allowed(self):
        assert DataGenConfig(I=5, tau=1.0).tau == 1.0


class TestGenerate:
    def test_labels_are_exactly_per_draw_expectations(self, spec3, draws3):
        ls = generate(spec3, draws3, DataGenConfig(I=64, tau=0.7, seed=3))
        assert ls.X.shape == (64, 3)
        assert ls.Y.shape == (64, len(draws3))
        np.testing.assert_array_equal(ls.Y, predict_batch(spec3, draws3, ls.X))

    def test_tau_one_leaves_no_masked_inputs(self, spec3, draws3):
        ls = generate(spec3, draws3, DataGenConfig(I=200, tau=1.0, seed=4))
        assert np.all(ls.X != 0.0)

    def test_mask_rate_matches_tau(self, spec3, draws3):
        I, tau = 4000, 0.4
        ls = generate(spec3, draws3, DataGenConfig(I=I, tau=tau, seed=5))
        zero_frac = float(np.mean(ls.X == 0.0))
        # Bernoulli(1 - tau) with I*J trials; allow five standard deviations
        sd = math.sqrt(tau * (1 - tau) / (I * 3))
        assert abs(zero_frac - (1 - tau)) < 5 * sd

    def test_uniform_inputs_land_in_unit_interval(self, spec3, draws3):
        ls = generate(spec3, draws3, DataGenConfig(I=500, tau=1.0, seed=6))
        assert np.all((ls.X >= 0.0) & (ls.X < 1.0))

    def test_gaussian_input_dist(self, spec3, draws3):
        cfg = DataGenConfig(I=500, tau=0.8, input_dist="standard_gaussian", seed=7)
        ls = generate(spec3, draws3, cfg)
        kept = ls.X[ls.X != 0.0]
        assert np.any(kept < 0.0) and np.any(kept > 1.0)
        np.testing.assert_array_equal(ls.Y, predict_batch(spec3, draws3, ls.X))

    def test_deterministic_per_seed(self, spec3, draws3):
        a = generate(spec3, draws3, DataGenConfig(I=50, tau=0.8, seed=8))
        b = generate(spec3, draws3, DataGenConfig(I=50, tau=0.8, seed=8))
        c = generate(spec3, draws3, DataGenConfig(I=50, tau=0.8, seed=9))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        assert not np.array_equal(a.X, c.X)

    def test_meta_fields(self, tmp_path, spec3, draws3):
        cfg = DataGenConfig(I=20, tau=0.6, seed=10)
        save_labeled_set(generate(spec3, draws3, cfg), tmp_path, cfg, "0" * 64)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["I"] == 20 and doc["J"] == 3 and doc["M"] == len(draws3)
        assert doc["tau"] == 0.6 and doc["seed"] == 10
        assert doc["input_dist"] == "uniform01"
        assert doc["posterior_sha256"] == "0" * 64

    def test_thread_count_moves_no_byte(self, tmp_path):
        spec = ModelSpec(J=20, link="sine")
        draws = make_draws(spec, 50, seed=8)
        cfg = DataGenConfig(I=500, tau=0.7, seed=4)
        stored = []
        for threads in (1, 2):
            save_labeled_set(generate(spec, draws, cfg, threads), tmp_path / str(threads),
                             cfg, "0" * 64)
            stored.append([(tmp_path / str(threads) / name).read_bytes()
                           for name in ("manifest.json", "data.f64")])
        assert stored[0] == stored[1]

    @pytest.mark.parametrize("input_dist", ["uniform01", "standard_gaussian"])
    def test_labels_its_masked_inputs_through_generate_at(self, spec3, draws3, input_dist):
        ls = generate(spec3, draws3, DataGenConfig(I=40, tau=0.7, input_dist=input_dist, seed=12))
        at = generate_at(spec3, draws3, ls.X)
        assert at.X.tobytes() == ls.X.tobytes()
        assert at.Y.tobytes() == ls.Y.tobytes()


class TestGenerateAt:
    def test_inputs_pass_through_unmasked(self, spec3, draws3):
        X = np.random.default_rng(1).random((10, 3)) + 0.5
        ls = generate_at(spec3, draws3, X)
        np.testing.assert_array_equal(ls.X, X)
        np.testing.assert_array_equal(ls.Y, predict_batch(spec3, draws3, X))

    def test_zero_row_hits_sigmoid_midpoint(self, spec3, draws3):
        # sigmoid(0) is exactly 1/2, so each label is gamma_m + sum(beta_m)/2
        ls = generate_at(spec3, draws3, np.zeros((1, 3)))
        want = draws3.gamma + 0.5 * np.sum(draws3.beta, axis=1)
        np.testing.assert_allclose(ls.Y[0], want, rtol=1e-15)

    def test_nonfinite_inputs_rejected(self, spec3, draws3):
        X = np.array([[0.1, np.inf, 0.2]])
        with pytest.raises(ValueError):
            generate_at(spec3, draws3, X)


class TestLabeledSet:
    def test_row_count_must_agree(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((3, 2)), np.zeros((4, 5)))

    def test_len(self, spec3, draws3):
        ls = generate(spec3, draws3, DataGenConfig(I=17, seed=0))
        assert len(ls) == 17


class TestPersistence:
    def _saved(self, tmp_path, spec3, draws3):
        cfg = DataGenConfig(I=30, tau=0.8, seed=2)
        ls = generate(spec3, draws3, cfg)
        save_labeled_set(ls, tmp_path / "data", cfg, "0" * 64)
        return ls, tmp_path / "data"

    def _edit_manifest(self, directory, **changes):
        path = directory / "manifest.json"
        doc = json.loads(path.read_text())
        doc.update(changes)
        path.write_text(json.dumps(doc))

    def test_writes_only_manifest_and_blob(self, tmp_path, spec3, draws3):
        _, d = self._saved(tmp_path, spec3, draws3)
        assert sorted(f.name for f in d.iterdir()) == ["data.f64", "manifest.json"]
        assert (d / "data.f64").stat().st_size == 30 * (3 + len(draws3)) * 8

    def test_round_trip_bitwise(self, tmp_path, spec3, draws3):
        ls, d = self._saved(tmp_path, spec3, draws3)
        back = load_labeled_set(d)
        assert back.X.tobytes() == ls.X.tobytes()
        assert back.Y.tobytes() == ls.Y.tobytes()
        doc = json.loads((d / "manifest.json").read_text())
        assert {k: doc[k] for k in ("I", "J", "M", "tau", "seed", "input_dist")} == {
            "I": 30, "J": 3, "M": len(draws3), "tau": 0.8, "seed": 2, "input_dist": "uniform01"}

    def test_expect_refuses_a_set_of_another_run(self, tmp_path, spec3, draws3):
        ls, d = self._saved(tmp_path, spec3, draws3)
        kept = load_labeled_set(d, {"seed": 2, "posterior_sha256": "0" * 64})
        assert kept.X.tobytes() == ls.X.tobytes()
        with pytest.raises(ArtifactError, match="has seed 2, expected 3"):
            load_labeled_set(d, {"seed": 3})

    def test_dims_mismatch_detected(self, tmp_path, spec3, draws3):
        _, d = self._saved(tmp_path, spec3, draws3)
        self._edit_manifest(d, I=29)
        with pytest.raises(ArtifactError, match="dimensions"):
            load_labeled_set(d)

    def test_truncated_blob_detected(self, tmp_path, spec3, draws3):
        _, d = self._saved(tmp_path, spec3, draws3)
        blob = d / "data.f64"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ArtifactError, match="truncated"):
            load_labeled_set(d)

    def test_trailing_blob_bytes_detected(self, tmp_path, spec3, draws3):
        _, d = self._saved(tmp_path, spec3, draws3)
        blob = d / "data.f64"
        blob.write_bytes(blob.read_bytes() + bytes(64))
        with pytest.raises(ArtifactError, match="covers"):
            load_labeled_set(d)

    def test_layout_with_one_entry_rejected(self, tmp_path, spec3, draws3):
        # one entry spanning the whole blob tiles it, but is not the X, Y pair
        _, d = self._saved(tmp_path, spec3, draws3)
        self._edit_manifest(
            d, layout=[{"name": "X", "shape": [30, 3 + len(draws3)], "offset": 0}])
        with pytest.raises(ArtifactError, match="expected"):
            load_labeled_set(d)

    def test_wrong_kind_rejected(self, tmp_path, spec3, draws3):
        _, d = self._saved(tmp_path, spec3, draws3)
        self._edit_manifest(d, kind="posterior")
        with pytest.raises(ArtifactError, match="kind"):
            load_labeled_set(d)

    def test_wrong_format_version_rejected(self, tmp_path, spec3, draws3):
        _, d = self._saved(tmp_path, spec3, draws3)
        self._edit_manifest(d, format_version=FORMAT_VERSION + 1)
        with pytest.raises(ArtifactError, match="format_version"):
            load_labeled_set(d)
