import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surrogate_forge import (
    ALConfig,
    NetConfig,
    acquire,
    acquisition_probs,
    al_train,
    calibration_data,
    generate_at,
    init_net,
    mc_dropout_predict,
    min_final_dataset_size,
    predict_batch,
    uncertainty,
)
from surrogate_forge.active_learning import (
    RoundRecord,
    UncertaintyReport,
    write_calibration_csv,
    write_history_csv,
)
from surrogate_forge.seeds import substream
from surrogate_forge.surrogate import eval_loss

from draw_sets import make_draws


class TestALConfig:
    @pytest.mark.parametrize("kwargs", [
        {"I_init": 0},
        {"I_al": 0},
        {"K": 1},
        {"pool_size": 0},
        {"inter_patience": 0},
        {"intra_patience": 0},
        {"val_size": 0},
        {"tau": 0.0},
        {"tau": 1.1},
        {"max_rounds": 0},
        {"max_epochs": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ALConfig(**kwargs)

    def test_dataset_floor_defaults(self):
        assert min_final_dataset_size(ALConfig()) == 20000

    def test_dataset_floor_small_example(self):
        cfg = ALConfig(I_init=50, I_al=10, inter_patience=3, K=2)
        assert min_final_dataset_size(cfg) == 80


class TestUncertainty:
    def test_matches_row_by_row_reference(self):
        cfg = NetConfig(input_dim=3, hidden_width=16, output_dim=4,
                        dropout_rate=0.5, seed=0)
        net = init_net(cfg)
        X_pool = np.random.default_rng(1).random((6, 3))
        got = uncertainty(net, X_pool, K=5, rng=np.random.default_rng(42))
        # reference: same rng stream, per-row MC matrix, sample std over
        # passes (ddof 1), averaged over the M outputs
        rng = np.random.default_rng(42)
        want = np.array([
            float(np.mean(np.std(mc_dropout_predict(net, x, 5, rng), axis=1, ddof=1)))
            for x in X_pool])
        np.testing.assert_array_equal(got, want)

    def test_two_pass_std_is_half_gap_times_sqrt2(self):
        # the K=2 sample standard deviation is |a - b| / sqrt(2)
        a, b = 1.25, 0.75
        assert np.std([a, b], ddof=1) == pytest.approx(abs(a - b) / math.sqrt(2),
                                                       rel=1e-15)

    def test_dropout_free_net_reports_zero(self):
        net = init_net(NetConfig(input_dim=2, hidden_width=8, output_dim=3,
                                 dropout_rate=0.0, seed=1))
        X_pool = np.random.default_rng(2).random((4, 2))
        sigma = uncertainty(net, X_pool, K=3, rng=np.random.default_rng(0))
        # identical passes; only the mean's rounding noise remains
        np.testing.assert_allclose(sigma, np.zeros(4), atol=1e-12)

    def test_report_validates_probability_mass(self):
        with pytest.raises(ValueError):
            UncertaintyReport(np.array([1.0, 2.0]), np.array([0.3, 0.3]))
        rep = UncertaintyReport(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
        assert rep.probs[1] == 0.75


class TestAcquisition:
    def test_softmax_worked_examples(self):
        np.testing.assert_allclose(acquisition_probs(np.array([3.0, 3.0])),
                                   [0.5, 0.5], rtol=1e-15)
        np.testing.assert_allclose(acquisition_probs(np.array([0.0, math.log(3.0)])),
                                   [0.25, 0.75], rtol=1e-12)

    def test_probs_sum_to_one_and_order_follows_sigma(self):
        sigma = np.array([0.1, 0.9, 0.5])
        p = acquisition_probs(sigma)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p[1] > p[2] > p[0]

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=10),
           st.floats(-100, 100))
    def test_shift_invariance(self, sigma, shift):
        base = acquisition_probs(np.array(sigma))
        shifted = acquisition_probs(np.array(sigma) + shift)
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_extreme_scores_stay_finite(self):
        p = acquisition_probs(np.array([0.0, 800.0]))
        assert np.all(np.isfinite(p))
        assert p[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.array([]), np.array([1.0, np.nan]),
                                     np.array([np.inf, 0.0])])
    def test_invalid_scores_rejected(self, bad):
        with pytest.raises(ValueError):
            acquisition_probs(bad)

    def test_acquire_one_hot(self):
        probs = np.array([0.0, 0.0, 1.0, 0.0])
        idx = acquire(probs, 25, np.random.default_rng(0))
        np.testing.assert_array_equal(idx, np.full(25, 2))

    def test_acquire_frequencies_with_replacement(self):
        probs = np.array([0.2, 0.8])
        idx = acquire(probs, 4000, np.random.default_rng(1))
        frac = float(np.mean(idx == 1))
        sd = math.sqrt(0.8 * 0.2 / 4000)
        assert abs(frac - 0.8) < 5 * sd
        assert len(np.unique(acquire(np.array([0.5, 0.5]), 100,
                                     np.random.default_rng(2)))) <= 2


def _tiny_al_setup(spec3, draws3, lr=0.0, **al_kwargs):
    al = dict(I_init=40, I_al=10, K=2, pool_size=16, inter_patience=2,
              intra_patience=1, val_size=12, max_rounds=50, max_epochs=3, seed=5)
    al.update(al_kwargs)
    al_cfg = ALConfig(**al)
    net_cfg = NetConfig(input_dim=3, hidden_width=8, output_dim=len(draws3),
                        dropout_rate=0.5, learning_rate=lr, batch_size=16, seed=5)
    return al_cfg, net_cfg


class TestAlTrain:
    def test_frozen_net_hits_exact_dataset_floor(self, spec3, draws3):
        # lr = 0: validation never improves after round 0, so the loop adds
        # exactly inter_patience acquisition batches and stops
        al_cfg, net_cfg = _tiny_al_setup(spec3, draws3, lr=0.0, inter_patience=3)
        net, records = al_train(spec3, draws3, al_cfg, net_cfg)
        assert records[-1].dataset_size == min_final_dataset_size(al_cfg) == 70
        assert [r.round for r in records] == [0, 1, 2, 3]
        sizes = [r.dataset_size for r in records]
        assert sizes == [40, 50, 60, 70]
        assert len({r.val_loss for r in records}) == 1  # frozen → flat

    def test_max_rounds_caps_the_loop(self, spec3, draws3):
        al_cfg, net_cfg = _tiny_al_setup(spec3, draws3, lr=0.0,
                                         inter_patience=10, max_rounds=2)
        _, records = al_train(spec3, draws3, al_cfg, net_cfg)
        assert records[-1].round == 2
        assert records[-1].dataset_size == 60

    def test_returns_overall_best_net(self, spec3, draws3):
        al_cfg, net_cfg = _tiny_al_setup(spec3, draws3, lr=3e-3, max_epochs=6,
                                         intra_patience=2, inter_patience=2)
        net, records = al_train(spec3, draws3, al_cfg, net_cfg)
        X_val = substream(al_cfg.seed, "al-val").random((al_cfg.val_size, 3))
        val = generate_at(spec3, draws3, X_val)
        assert eval_loss(net, val.X, val.Y) == min(r.val_loss for r in records)

    def test_deterministic_per_seed(self, spec3, draws3):
        al_cfg, net_cfg = _tiny_al_setup(spec3, draws3, lr=3e-3)
        n1, r1 = al_train(spec3, draws3, al_cfg, net_cfg)
        n2, r2 = al_train(spec3, draws3, al_cfg, net_cfg)
        np.testing.assert_array_equal(n1.W1, n2.W1)
        assert [r.val_loss for r in r1] == [r.val_loss for r in r2]

    def test_dimension_mismatch_rejected(self, spec3, draws3):
        al_cfg, net_cfg = _tiny_al_setup(spec3, draws3)
        import dataclasses

        bad = dataclasses.replace(net_cfg, input_dim=4)
        with pytest.raises(ValueError):
            al_train(spec3, draws3, al_cfg, bad)

    def test_wall_time_recorded(self, spec3, draws3):
        al_cfg, net_cfg = _tiny_al_setup(spec3, draws3)
        _, records = al_train(spec3, draws3, al_cfg, net_cfg)
        assert all(r.wall_time_s >= 0.0 for r in records)


class TestCalibration:
    def test_dropout_free_net_reduces_to_plain_error(self, spec3, draws3):
        net = init_net(NetConfig(input_dim=3, hidden_width=8,
                                 output_dim=len(draws3), dropout_rate=0.0, seed=2))
        X_pool = np.random.default_rng(3).random((5, 3))
        sigma, mu_rmse = calibration_data(net, spec3, draws3, X_pool, K=4,
                                          rng=np.random.default_rng(0))
        np.testing.assert_allclose(sigma, np.zeros(5), atol=1e-12)
        labels = predict_batch(spec3, draws3, X_pool)
        from surrogate_forge import predict

        preds = predict(net, X_pool)
        want = np.mean(np.abs(preds - labels), axis=1)
        np.testing.assert_allclose(mu_rmse, want, rtol=1e-12)

    def test_shapes_and_nonnegativity(self, spec3, draws3):
        net = init_net(NetConfig(input_dim=3, hidden_width=8,
                                 output_dim=len(draws3), dropout_rate=0.5, seed=2))
        X_pool = np.random.default_rng(4).random((7, 3))
        sigma, mu_rmse = calibration_data(net, spec3, draws3, X_pool, K=3,
                                          rng=np.random.default_rng(1))
        assert sigma.shape == mu_rmse.shape == (7,)
        assert np.all(sigma >= 0) and np.all(mu_rmse >= 0)

    def test_sigma_is_the_acquisition_uncertainty(self, spec3, draws3):
        # same pool, K and rng seed: calibration reports exactly the sigma
        # that acquisition scores
        net = init_net(NetConfig(input_dim=3, hidden_width=8,
                                 output_dim=len(draws3), dropout_rate=0.5, seed=2))
        X_pool = np.random.default_rng(5).random((6, 3))
        sigma, _ = calibration_data(net, spec3, draws3, X_pool, K=4,
                                    rng=np.random.default_rng(9))
        want = uncertainty(net, X_pool, 4, np.random.default_rng(9))
        np.testing.assert_array_equal(sigma, want)


class TestCsvOutputs:
    def test_history_csv_layout(self, tmp_path):
        records = [RoundRecord(0, 40, 0.5, 0.6, 1.25),
                   RoundRecord(1, 50, 0.4, 0.55, 2.5)]
        path = tmp_path / "history.csv"
        write_history_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,dataset_size,train_loss,val_loss,wall_time_s"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "40"
        assert float(first[2]) == 0.5 and float(first[3]) == 0.6

    def test_calibration_csv_layout(self, tmp_path):
        path = tmp_path / "cal.csv"
        write_calibration_csv(np.array([0.1, 0.2]), np.array([0.3, 0.4]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sigma,mu_rmse"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back, [[0.1, 0.3], [0.2, 0.4]])
