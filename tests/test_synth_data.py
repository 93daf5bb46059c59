import math

import numpy as np
import pytest

from surrogate_forge import (
    DataGenConfig,
    LabeledSet,
    generate,
    generate_at,
    load_labeled_set,
    predict_batch,
    save_labeled_set,
)

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

    def test_meta_fields(self, spec3, draws3):
        ls = generate(spec3, draws3, DataGenConfig(I=20, tau=0.6, seed=10))
        meta = ls.meta
        assert meta["I"] == 20 and meta["J"] == 3 and meta["M"] == len(draws3)
        assert meta["tau"] == 0.6 and meta["seed"] == 10
        assert meta["input_dist"] == "uniform01"


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
            LabeledSet(np.zeros((3, 2)), np.zeros((4, 5)), {})

    def test_len(self, spec3, draws3):
        ls = generate(spec3, draws3, DataGenConfig(I=17, seed=0))
        assert len(ls) == 17


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, spec3, draws3):
        ls = generate(spec3, draws3, DataGenConfig(I=30, tau=0.8, seed=2))
        save_labeled_set(ls, tmp_path / "data")
        back = load_labeled_set(tmp_path / "data")
        np.testing.assert_array_equal(back.X, ls.X)
        np.testing.assert_array_equal(back.Y, ls.Y)
        assert back.meta["tau"] == 0.8
        assert back.meta["I"] == 30

    def test_sidecar_shape_mismatch_detected(self, tmp_path, spec3, draws3):
        import json

        from surrogate_forge.serialize import ArtifactError

        ls = generate(spec3, draws3, DataGenConfig(I=30, tau=0.8, seed=2))
        save_labeled_set(ls, tmp_path / "data")
        meta_path = tmp_path / "data" / "meta.json"
        doc = json.loads(meta_path.read_text())
        doc["I"] = 29
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError):
            load_labeled_set(tmp_path / "data")
