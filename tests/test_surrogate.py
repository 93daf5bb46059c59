import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surrogate_forge import (
    NetConfig,
    SurrogateNet,
    TrainingDiverged,
    grad_check,
    init_net,
    load_net,
    mc_dropout_predict,
    predict,
    save_net,
    smooth_l1,
    smooth_l1_grad,
    train,
)
from surrogate_forge.surrogate import (
    NORM_EPS,
    EarlyStopper,
    _backward,
    _forward_batch,
    eval_loss,
)
from surrogate_forge.synth_data import LabeledSet


def tiny_cfg(**kw):
    base = dict(input_dim=2, hidden_width=3, output_dim=2, dropout_rate=0.0,
                norm="none", activation="relu", learning_rate=1e-2,
                batch_size=4, seed=0)
    base.update(kw)
    return NetConfig(**base)


def manual_net(cfg):
    """Fixed small weights chosen so every branch of relu fires."""
    W1 = np.array([[1.0, -1.0], [0.5, 0.25], [-2.0, 1.0]])[: cfg.hidden_width]
    b1 = np.array([0.1, -0.2, 0.3])[: cfg.hidden_width]
    W2 = np.array([[1.0, 0.5, -0.5], [0.25, -1.0, 2.0]])[: cfg.output_dim,
                                                         : cfg.hidden_width]
    b2 = np.array([0.05, -0.1])[: cfg.output_dim]
    gain = np.array([1.5, 0.5, 2.0])[: cfg.hidden_width] if cfg.norm != "none" else None
    bias = np.array([0.2, -0.3, 0.1])[: cfg.hidden_width] if cfg.norm != "none" else None
    return SurrogateNet(cfg, W1, b1, W2, b2, gain=gain, bias=bias)


class TestInit:
    def test_shapes_bounds_and_zero_biases(self):
        cfg = NetConfig(input_dim=4, hidden_width=32, output_dim=6, norm="layer", seed=5)
        net = init_net(cfg)
        assert net.W1.shape == (32, 4) and net.W2.shape == (6, 32)
        assert np.all(np.abs(net.W1) <= math.sqrt(6.0 / 4))
        assert np.all(np.abs(net.W2) <= math.sqrt(6.0 / 32))
        assert np.all(net.b1 == 0.0) and np.all(net.b2 == 0.0)
        np.testing.assert_array_equal(net.gain, np.ones(32))
        np.testing.assert_array_equal(net.bias, np.zeros(32))

    def test_batch_norm_running_stats_start_neutral(self):
        net = init_net(tiny_cfg(norm="batch"))
        np.testing.assert_array_equal(net.running_mean, np.zeros(3))
        np.testing.assert_array_equal(net.running_var, np.ones(3))

    def test_deterministic_per_seed(self):
        a = init_net(tiny_cfg(seed=7))
        b = init_net(tiny_cfg(seed=7))
        c = init_net(tiny_cfg(seed=8))
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)
        assert not np.array_equal(a.W1, c.W1)

    @pytest.mark.parametrize("kwargs", [
        {"input_dim": 0},
        {"dropout_rate": 1.0},
        {"dropout_rate": -0.1},
        {"norm": "group"},
        {"activation": "gelu"},
        {"learning_rate": -1e-3},
        {"batch_size": 0},
        {"optimizer": "rmsprop"},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            tiny_cfg(**kwargs)

    def test_zero_learning_rate_is_legal(self):
        assert tiny_cfg(learning_rate=0.0).learning_rate == 0.0


class TestForward:
    def test_hand_computed_no_norm_relu(self):
        net = manual_net(tiny_cfg())
        X = np.array([[0.5, -1.0], [2.0, 0.25]])
        Z1 = X @ net.W1.T + net.b1
        A = np.maximum(Z1, 0.0)
        want = A @ net.W2.T + net.b2
        np.testing.assert_array_equal(predict(net, X), want)

    def test_hand_computed_layer_norm_tanh(self):
        net = manual_net(tiny_cfg(norm="layer", activation="tanh"))
        X = np.array([[0.5, -1.0], [2.0, 0.25]])
        Z1 = X @ net.W1.T + net.b1
        mu = Z1.mean(axis=1, keepdims=True)
        var = Z1.var(axis=1, keepdims=True)        # population variance
        Zhat = (Z1 - mu) / np.sqrt(var + NORM_EPS)
        A = np.tanh(net.gain * Zhat + net.bias)
        want = A @ net.W2.T + net.b2
        np.testing.assert_allclose(predict(net, X), want, rtol=1e-14)

    def test_batch_norm_eval_uses_running_stats(self):
        net = manual_net(tiny_cfg(norm="batch"))
        net.running_mean = np.array([0.3, -0.2, 0.5])
        net.running_var = np.array([1.5, 0.7, 2.0])
        X = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 0.0]])
        Z1 = X @ net.W1.T + net.b1
        Zhat = (Z1 - net.running_mean) / np.sqrt(net.running_var + NORM_EPS)
        A = np.maximum(net.gain * Zhat + net.bias, 0.0)
        want = A @ net.W2.T + net.b2
        np.testing.assert_allclose(predict(net, X), want, rtol=1e-14)
        # eval-mode predictions ignore the batch dimension entirely
        np.testing.assert_array_equal(predict(net, X)[0], predict(net, X[:1])[0])

    def test_batch_stats_require_two_rows(self):
        net = manual_net(tiny_cfg(norm="batch"))
        one = np.array([[0.5, -1.0]])
        with_stats, cache = _forward_batch(net, one, use_batch_stats=True)
        assert cache["used_batch_stats"] is False
        without, _ = _forward_batch(net, one)
        np.testing.assert_array_equal(with_stats, without)

    def test_zero_output_layer_gives_bias(self):
        net = manual_net(tiny_cfg())
        net.W2 = np.zeros_like(net.W2)
        net.b2 = np.array([0.75, -0.25])
        out = predict(net, np.random.default_rng(0).random((5, 2)))
        np.testing.assert_array_equal(out, np.tile(net.b2, (5, 1)))

    def test_eval_equals_train_without_dropout(self):
        net = manual_net(tiny_cfg(dropout_rate=0.0))
        X = np.array([[0.7, -0.3], [0.1, 0.4]])
        out, _ = _forward_batch(net, X, dropout_rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out, predict(net, X))

    def test_forward_never_mutates_net(self):
        net = init_net(tiny_cfg(norm="batch", dropout_rate=0.5))
        before = net.snapshot()
        X = np.random.default_rng(1).random((6, 2))
        _forward_batch(net, X, dropout_rng=np.random.default_rng(2),
                       use_batch_stats=True)
        predict(net, X)
        after = net.snapshot()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_inverted_dropout_preserves_expectation(self):
        cfg = tiny_cfg(input_dim=3, hidden_width=64, output_dim=1,
                       dropout_rate=0.5, norm="none")
        net = init_net(cfg)
        x = np.array([0.4, -0.2, 0.9])
        outs = mc_dropout_predict(net, x, K=4000, rng=np.random.default_rng(7))[0]
        mean = predict(net, x[None, :])[0, 0]
        assert abs(outs.mean() - mean) < 5 * outs.std() / math.sqrt(len(outs))


class TestSmoothL1:
    def test_unit_suite(self):
        assert smooth_l1(np.array([0.0]), np.array([0.0])) == 0.0
        assert smooth_l1(np.array([0.5]), np.array([0.0])) == 0.125
        assert smooth_l1(np.array([2.0]), np.array([0.0])) == 1.5
        assert smooth_l1(np.array([0.0, 2.0]), np.array([0.0, 0.0])) == 0.75

    def test_symmetry(self):
        y = np.array([1.0, -2.0, 0.3])
        z = np.zeros(3)
        assert smooth_l1(y, z) == smooth_l1(z, y)

    @given(st.floats(-1e-6, 1e-6))
    def test_branch_continuity_at_unit_difference(self, eps):
        inner = smooth_l1(np.array([1.0 - abs(eps)]), np.array([0.0]))
        outer = smooth_l1(np.array([1.0 + abs(eps)]), np.array([0.0]))
        assert abs(outer - inner) < 1e-5
        assert abs(smooth_l1(np.array([1.0]), np.array([0.0])) - 0.5) < 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_matches_per_element_reference(self, diffs):
        y = np.array(diffs)
        z = np.zeros_like(y)
        want = np.mean([0.5 * d * d if abs(d) < 1 else abs(d) - 0.5 for d in diffs])
        assert smooth_l1(y, z) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_gradient_values(self):
        y = np.array([0.0, 0.5, 2.0, -3.0])
        y_hat = np.zeros(4)
        # d loss / d y_hat = clip(y_hat - y, -1, 1) / n
        want = np.array([0.0, -0.5, -1.0, 1.0]) / 4.0
        np.testing.assert_array_equal(smooth_l1_grad(y, y_hat), want)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(6) * 2
        y_hat = rng.standard_normal(6) * 2
        g = smooth_l1_grad(y, y_hat)
        h = 1e-6
        for i in range(6):
            up, dn = y_hat.copy(), y_hat.copy()
            up[i] += h
            dn[i] -= h
            num = (smooth_l1(y, up) - smooth_l1(y, dn)) / (2 * h)
            assert g[i] == pytest.approx(num, abs=1e-8)


class TestGradients:
    @pytest.mark.parametrize("norm", ["none", "layer", "batch"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_grad_check_eval_path(self, norm, activation):
        cfg = NetConfig(input_dim=3, hidden_width=5, output_dim=2, dropout_rate=0.0,
                        norm=norm, activation=activation, seed=13)
        net = init_net(cfg)
        rng = np.random.default_rng(21)
        err = grad_check(net, rng.standard_normal(3), rng.standard_normal(2))
        assert err < 1e-6

    def test_backward_matches_finite_differences_with_batch_stats(self):
        cfg = NetConfig(input_dim=2, hidden_width=4, output_dim=3, dropout_rate=0.0,
                        norm="batch", activation="tanh", seed=3)
        net = init_net(cfg)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((4, 2))
        Y = rng.standard_normal((4, 3))

        def loss():
            out, _ = _forward_batch(net, X, use_batch_stats=True)
            return smooth_l1(Y, out)

        out, cache = _forward_batch(net, X, use_batch_stats=True)
        grads = _backward(net, cache, smooth_l1_grad(Y, out))

        h = 1e-6
        for name in net.param_names():
            θ = getattr(net, name)
            num = np.empty_like(θ)
            for idx in np.ndindex(θ.shape):
                orig = θ[idx]
                θ[idx] = orig + h
                up = loss()
                θ[idx] = orig - h
                dn = loss()
                θ[idx] = orig
                num[idx] = (up - dn) / (2 * h)
            np.testing.assert_allclose(grads[name], num, rtol=1e-4, atol=1e-7)


class TestEarlyStopper:
    def test_strict_improvement_semantics(self):
        snap = {"W": np.zeros(1)}
        stopper = EarlyStopper(patience=2, baseline_loss=1.0, baseline_snapshot=snap)

        class FakeNet:
            def snapshot(self):
                return {"W": np.ones(1)}

        assert stopper.update(1.0, FakeNet()) is False   # equal: no improvement
        assert stopper.epochs_since_best == 1
        assert stopper.update(0.9, FakeNet()) is False   # strictly better: reset
        assert stopper.epochs_since_best == 0
        assert stopper.best_loss == 0.9
        assert stopper.update(0.9, FakeNet()) is False
        assert stopper.update(0.95, FakeNet()) is True   # patience exhausted
        np.testing.assert_array_equal(stopper.best_snapshot["W"], np.ones(1))

    def test_never_improving_keeps_baseline_snapshot(self):
        snap = {"W": np.full(1, 7.0)}
        stopper = EarlyStopper(patience=1, baseline_loss=0.5, baseline_snapshot=snap)

        class FakeNet:
            def snapshot(self):
                return {"W": np.zeros(1)}

        assert stopper.update(0.6, FakeNet()) is True
        np.testing.assert_array_equal(stopper.best_snapshot["W"], np.full(1, 7.0))


def _toy_sets(rng, I=64, J=2, M=2, val=16):
    Xtr = rng.random((I, J))
    Ytr = np.column_stack([Xtr.sum(axis=1), Xtr[:, 0] - Xtr[:, 1]])[:, :M]
    Xv = rng.random((val, J))
    Yv = np.column_stack([Xv.sum(axis=1), Xv[:, 0] - Xv[:, 1]])[:, :M]
    return (LabeledSet(Xtr, Ytr, {"I": I}), LabeledSet(Xv, Yv, {"I": val}))


class TestTrain:
    def test_frozen_net_stops_after_patience_and_restores_start(self):
        train_set, val_set = _toy_sets(np.random.default_rng(0))
        cfg = tiny_cfg(learning_rate=0.0, dropout_rate=0.0)
        net = init_net(cfg)
        start = net.snapshot()
        baseline = eval_loss(net, val_set.X, val_set.Y)
        net, hist = train(net, train_set, val_set, patience=3, max_epochs=50)
        assert hist.epochs_run == 3
        assert hist.stopped_early is True
        assert hist.best_val_loss == baseline
        assert hist.initial_val_loss == baseline
        for name, arr in start.items():
            np.testing.assert_array_equal(getattr(net, name), arr)

    def test_patience_one_stops_after_first_flat_epoch(self):
        train_set, val_set = _toy_sets(np.random.default_rng(1))
        net = init_net(tiny_cfg(learning_rate=0.0))
        net, hist = train(net, train_set, val_set, patience=1, max_epochs=50)
        assert hist.epochs_run == 1

    def test_learns_linear_map(self):
        train_set, val_set = _toy_sets(np.random.default_rng(2), I=256)
        cfg = NetConfig(input_dim=2, hidden_width=32, output_dim=2,
                        dropout_rate=0.0, norm="none", activation="relu",
                        learning_rate=1e-2, batch_size=32, seed=1)
        net = init_net(cfg)
        before = eval_loss(net, val_set.X, val_set.Y)
        net, hist = train(net, train_set, val_set, patience=200, max_epochs=200)
        assert hist.best_val_loss < min(before, 1e-3)
        assert hist.best_val_loss == eval_loss(net, val_set.X, val_set.Y)

    def test_returned_net_is_the_best_epoch_snapshot(self):
        train_set, val_set = _toy_sets(np.random.default_rng(3), I=128)
        cfg = tiny_cfg(hidden_width=8, learning_rate=5e-2, batch_size=16)
        net = init_net(cfg)
        net, hist = train(net, train_set, val_set, patience=5, max_epochs=60)
        assert eval_loss(net, val_set.X, val_set.Y) == hist.best_val_loss
        assert hist.best_val_loss <= hist.initial_val_loss
        assert min(hist.val_loss) == hist.best_val_loss

    def test_deterministic_given_config_seed(self):
        train_set, val_set = _toy_sets(np.random.default_rng(4))
        cfg = tiny_cfg(dropout_rate=0.5, learning_rate=1e-2, seed=11)
        n1, h1 = train(init_net(cfg), train_set, val_set, patience=5, max_epochs=10)
        n2, h2 = train(init_net(cfg), train_set, val_set, patience=5, max_epochs=10)
        np.testing.assert_array_equal(n1.W1, n2.W1)
        assert h1.val_loss == h2.val_loss

    def test_nonfinite_labels_raise_training_diverged(self):
        train_set, val_set = _toy_sets(np.random.default_rng(5))
        train_set.Y[3, 0] = np.inf
        net = init_net(tiny_cfg())
        with pytest.raises(TrainingDiverged):
            train(net, train_set, val_set, patience=5, max_epochs=5)

    def test_batch_norm_running_stats_learned(self):
        train_set, val_set = _toy_sets(np.random.default_rng(6))
        net = init_net(tiny_cfg(norm="batch", learning_rate=1e-3))
        net, _ = train(net, train_set, val_set, patience=50, max_epochs=3)
        assert not np.array_equal(net.running_mean, np.zeros(3))

    def test_empty_training_set_rejected(self):
        _, val_set = _toy_sets(np.random.default_rng(7))
        empty = LabeledSet(np.zeros((0, 2)), np.zeros((0, 2)), {})
        with pytest.raises(ValueError):
            train(init_net(tiny_cfg()), empty, val_set, patience=1, max_epochs=1)

    def test_sgd_optimizer_also_learns(self):
        train_set, val_set = _toy_sets(np.random.default_rng(8), I=256)
        cfg = NetConfig(input_dim=2, hidden_width=32, output_dim=2,
                        dropout_rate=0.0, norm="none", activation="relu",
                        learning_rate=5e-2, batch_size=32, seed=1, optimizer="sgd")
        net = init_net(cfg)
        before = eval_loss(net, val_set.X, val_set.Y)
        net, hist = train(net, train_set, val_set, patience=100, max_epochs=100)
        assert hist.best_val_loss < before


class TestEvalLoss:
    def test_chunking_is_consistent(self):
        rng = np.random.default_rng(9)
        net = init_net(tiny_cfg(hidden_width=8))
        X = rng.random((100, 2))
        Y = rng.random((100, 2))
        a = eval_loss(net, X, Y, chunk=7)
        b = eval_loss(net, X, Y, chunk=4096)
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_smooth_l1_of_predictions(self):
        rng = np.random.default_rng(10)
        net = init_net(tiny_cfg(hidden_width=8))
        X = rng.random((20, 2))
        Y = rng.random((20, 2))
        assert eval_loss(net, X, Y) == pytest.approx(
            smooth_l1(Y, predict(net, X)), rel=1e-12)


class TestMcDropout:
    def test_shape_and_determinism(self):
        cfg = tiny_cfg(input_dim=3, hidden_width=16, output_dim=4, dropout_rate=0.5)
        net = init_net(cfg)
        x = np.array([0.1, 0.5, 0.9])
        a = mc_dropout_predict(net, x, K=6, rng=np.random.default_rng(3))
        b = mc_dropout_predict(net, x, K=6, rng=np.random.default_rng(3))
        assert a.shape == (4, 6)
        np.testing.assert_array_equal(a, b)
        assert np.ptp(a, axis=1).max() > 0  # dropout actually perturbs passes

    def test_zero_rate_gives_identical_passes(self):
        net = init_net(tiny_cfg(input_dim=3, output_dim=4, dropout_rate=0.0))
        x = np.array([0.1, 0.5, 0.9])
        out = mc_dropout_predict(net, x, K=5, rng=np.random.default_rng(0))
        for k in range(1, 5):
            np.testing.assert_array_equal(out[:, k], out[:, 0])
        np.testing.assert_array_equal(out[:, 0], predict(net, x[None, :])[0])

    def test_requires_at_least_two_passes(self):
        net = init_net(tiny_cfg(dropout_rate=0.5))
        with pytest.raises(ValueError):
            mc_dropout_predict(net, np.zeros(2), K=1, rng=np.random.default_rng(0))


class TestPersistence:
    @pytest.mark.parametrize("norm", ["none", "layer", "batch"])
    def test_round_trip_bitwise(self, tmp_path, norm):
        cfg = tiny_cfg(norm=norm, hidden_width=6, seed=2)
        net = init_net(cfg)
        if norm == "batch":
            net.running_mean = np.array([0.1] * 6)
            net.running_var = np.array([1.3] * 6)
        man, blob = tmp_path / "net.json", tmp_path / "net.f64"
        save_net(net, man, blob)
        back = load_net(man, blob)
        assert back.config == cfg
        X = np.random.default_rng(0).random((7, 2))
        np.testing.assert_array_equal(predict(back, X), predict(net, X))
        for name in net.param_names() + net.state_names():
            np.testing.assert_array_equal(getattr(back, name), getattr(net, name))

    def test_wrong_kind_rejected(self, tmp_path):
        from surrogate_forge.serialize import ArtifactError, write_manifest

        write_manifest(tmp_path / "net.json", "posterior", {})
        with pytest.raises(ArtifactError):
            load_net(tmp_path / "net.json", tmp_path / "net.f64")
