import json
import math
import tracemalloc

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
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NORM_EPS,
    EarlyStopper,
    _Adam,
    _backward,
    _forward_batch,
    eval_loss,
)
from surrogate_forge.serialize import ArtifactError
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
    arrays = dict(W1=W1, b1=b1, W2=W2, b2=b2)
    if cfg.norm != "none":
        arrays.update(gain=np.array([1.5, 0.5, 2.0])[: cfg.hidden_width],
                      bias=np.array([0.2, -0.3, 0.1])[: cfg.hidden_width])
    if cfg.norm == "batch":
        arrays.update(running_mean=np.zeros(cfg.hidden_width),
                      running_var=np.ones(cfg.hidden_width))
    return SurrogateNet(cfg, **arrays)


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

    @pytest.mark.parametrize("norm", ["layer", "batch", "none"])
    def test_holds_exactly_the_table(self, norm):
        cfg = tiny_cfg(norm=norm, input_dim=4, hidden_width=5, output_dim=3, seed=1)
        net = init_net(cfg)
        assert {n: a.shape for n, a in net.snapshot().items()} == cfg.shapes()
        for name in ("gain", "bias", "running_mean", "running_var"):
            assert hasattr(net, name) == (name in cfg.shapes())
        starts = {"b1": 0.0, "b2": 0.0, "gain": 1.0, "bias": 0.0,
                  "running_mean": 0.0, "running_var": 1.0}
        for name, shape in cfg.shapes().items():
            if name in starts:
                np.testing.assert_array_equal(getattr(net, name),
                                              np.full(shape, starts[name]))

    @pytest.mark.parametrize("kwargs", [
        {"input_dim": 0},
        {"dropout_rate": 1.0},
        {"dropout_rate": -0.1},
        {"norm": "group"},
        {"activation": "gelu"},
        {"learning_rate": -1e-3},
        {"batch_size": 0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            tiny_cfg(**kwargs)

    def test_zero_learning_rate_is_legal(self):
        assert tiny_cfg(learning_rate=0.0).learning_rate == 0.0


class TestConstructor:
    def test_missing_entry_refused(self):
        cfg = tiny_cfg(norm="batch")
        arrays = init_net(cfg).snapshot()
        del arrays["running_var"]
        with pytest.raises(ValueError, match="holds"):
            SurrogateNet(cfg, **arrays)

    def test_extra_entry_refused(self):
        cfg = tiny_cfg(norm="none")
        arrays = init_net(cfg).snapshot()
        with pytest.raises(ValueError, match="holds"):
            SurrogateNet(cfg, gain=np.ones(cfg.hidden_width), **arrays)

    @pytest.mark.parametrize("name", ["W1", "b1", "gain", "bias", "W2", "b2",
                                      "running_mean", "running_var"])
    def test_reshaped_entry_refused_by_name(self, name):
        cfg = tiny_cfg(norm="batch")
        arrays = init_net(cfg).snapshot()
        arrays[name] = arrays[name].reshape(1, -1)
        with pytest.raises(ValueError, match=f"^{name} has shape"):
            SurrogateNet(cfg, **arrays)


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
        X_before = X.copy()
        _forward_batch(net, X, dropout_rng=np.random.default_rng(2),
                       use_batch_stats=True)
        predict(net, X)
        after = net.snapshot()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        np.testing.assert_array_equal(X, X_before)

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
        for name in net.config.param_names():
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


def _ref_forward(net, X, dropout_rng=None, use_batch_stats=False):
    """The forward pass as plain expressions, one fresh array per stage."""
    cfg = net.config
    Z1 = X @ net.W1.T + net.b1
    cache = {"X": X}
    if cfg.norm == "layer":
        mu = Z1.mean(axis=1, keepdims=True)
        var = Z1.var(axis=1, keepdims=True)
    elif cfg.norm == "batch":
        cache["used_batch_stats"] = use_batch_stats and X.shape[0] >= 2
        if cache["used_batch_stats"]:
            mu, var = Z1.mean(axis=0), Z1.var(axis=0)
            cache.update(batch_mu=mu, batch_var=var)
        else:
            mu, var = net.running_mean, net.running_var
    if cfg.norm == "none":
        Zn = Z1
    else:
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        Zhat = (Z1 - mu) * inv
        Zn = net.gain * Zhat + net.bias
        cache.update(Zhat=Zhat, inv=inv)
    A = np.maximum(Zn, 0.0) if cfg.activation == "relu" else np.tanh(Zn)
    cache.update(Zn=Zn, A=A, mask=None)
    D = A
    if dropout_rng is not None and cfg.dropout_rate > 0.0:
        keep = 1.0 - cfg.dropout_rate
        mask = dropout_rng.random(A.shape) < keep
        D = A * mask / keep
        cache.update(mask=mask, keep=keep)
    cache["D"] = D
    return D @ net.W2.T + net.b2, cache


def _ref_backward(net, cache, dOut):
    """The backward pass as plain expressions, one fresh array per stage."""
    cfg = net.config
    grads = {"W2": dOut.T @ cache["D"], "b2": dOut.sum(axis=0)}
    dA = dOut @ net.W2
    if cache["mask"] is not None:
        dA = dA * cache["mask"] / cache["keep"]
    if cfg.activation == "relu":
        dZn = dA * (cache["Zn"] > 0)
    else:
        dZn = dA * (1.0 - cache["A"] ** 2)
    dZ1 = dZn
    if cfg.norm != "none":
        Zhat, inv = cache["Zhat"], cache["inv"]
        grads["gain"] = (dZn * Zhat).sum(axis=0)
        grads["bias"] = dZn.sum(axis=0)
        dZhat = dZn * net.gain
        if cfg.norm == "layer":
            dZ1 = inv * (dZhat
                         - dZhat.mean(axis=1, keepdims=True)
                         - Zhat * (dZhat * Zhat).mean(axis=1, keepdims=True))
        elif cache["used_batch_stats"]:
            dZ1 = inv * (dZhat - dZhat.mean(axis=0) - Zhat * (dZhat * Zhat).mean(axis=0))
        else:
            dZ1 = dZhat * inv
    grads["W1"] = dZ1.T @ cache["X"]
    grads["b1"] = dZ1.sum(axis=0)
    return grads


def _ref_adam_step(params, m, v, t, lr, grads):
    """One Adam update as plain expressions; returns new params, m and v."""
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    new_p, new_m, new_v = {}, {}, {}
    for n, g in grads.items():
        new_m[n] = ADAM_BETA1 * m[n] + (1.0 - ADAM_BETA1) * g
        new_v[n] = ADAM_BETA2 * v[n] + (1.0 - ADAM_BETA2) * g * g
        update = (new_m[n] / c1) / (np.sqrt(new_v[n] / c2) + ADAM_EPS)
        new_p[n] = params[n] - lr * update
    return new_p, new_m, new_v


class TestInPlaceMatchesExpressionForm:
    """The in-place passes and Adam step are bitwise equal to the plain expressions."""

    @pytest.mark.parametrize("norm", ["layer", "batch", "none"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("use_batch_stats", [False, True])
    def test_bitwise_equal(self, norm, activation, dropout, rows, use_batch_stats):
        cfg = NetConfig(input_dim=3, hidden_width=6, output_dim=4, dropout_rate=dropout,
                        norm=norm, activation=activation, learning_rate=1e-2, seed=3)
        rng = np.random.default_rng(rows)
        net = init_net(cfg)
        for name in cfg.param_names():
            setattr(net, name, rng.standard_normal(getattr(net, name).shape))
        if norm == "batch":
            net.running_mean = rng.standard_normal(6)
            net.running_var = rng.random(6) + 0.5
        X = rng.standard_normal((rows, 3))
        dOut = rng.standard_normal((rows, 4))

        out, cache = _forward_batch(net, X, np.random.default_rng(9), use_batch_stats)
        want, ref_cache = _ref_forward(net, X, np.random.default_rng(9), use_batch_stats)
        np.testing.assert_array_equal(out, want)
        grads = _backward(net, cache, dOut)
        ref_grads = _ref_backward(net, ref_cache, dOut)
        assert set(grads) == set(cfg.param_names())
        for name in cfg.param_names():
            np.testing.assert_array_equal(grads[name], ref_grads[name])

        opt = _Adam(net, cfg.learning_rate)
        opt.t = 4
        for name in cfg.param_names():
            opt.m[name] = rng.standard_normal(opt.m[name].shape)
            opt.v[name] = rng.random(opt.v[name].shape)
        want_p, want_m, want_v = _ref_adam_step(
            net.snapshot(), {n: a.copy() for n, a in opt.m.items()},
            {n: a.copy() for n, a in opt.v.items()}, 5, cfg.learning_rate, ref_grads)
        opt.step(net, grads)
        for name in cfg.param_names():
            np.testing.assert_array_equal(getattr(net, name), want_p[name])
            np.testing.assert_array_equal(opt.m[name], want_m[name])
            np.testing.assert_array_equal(opt.v[name], want_v[name])

    @pytest.mark.parametrize("norm", ["layer", "batch", "none"])
    def test_predict_peak_memory(self, norm):
        # one fresh (rows, H) array per stage peaks near 4.8 x rows * H * 8 bytes
        cfg = NetConfig(input_dim=10, hidden_width=256, output_dim=100, norm=norm, seed=1)
        net = init_net(cfg)
        X = np.random.default_rng(2).random((4096, 10))
        predict(net, X)
        tracemalloc.start()
        try:
            predict(net, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 4096 * 256 * 8

    @pytest.mark.parametrize("norm", ["layer", "batch", "none"])
    def test_eval_loss_peak_memory(self, norm):
        # the loss terms take about five (rows, M) arrays; the forward cache
        # (two (rows, H) arrays) must be gone before they are built
        cfg = NetConfig(input_dim=20, hidden_width=256, output_dim=200, norm=norm, seed=1)
        net = init_net(cfg)
        rng = np.random.default_rng(3)
        X, Y = rng.random((4096, 20)), rng.random((4096, 200))
        eval_loss(net, X, Y)
        tracemalloc.start()
        try:
            eval_loss(net, X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 4096 * 200 * 8


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
    return LabeledSet(Xtr, Ytr), LabeledSet(Xv, Yv)


class TestTrain:
    def test_frozen_net_stops_after_patience_and_restores_start(self):
        train_set, val_set = _toy_sets(np.random.default_rng(0))
        cfg = tiny_cfg(learning_rate=0.0, dropout_rate=0.0)
        net = init_net(cfg)
        start = net.snapshot()
        baseline = eval_loss(net, val_set.X, val_set.Y)
        net, hist = train(net, train_set, val_set, patience=3, max_epochs=50)
        # stopped by patience, well before max_epochs
        assert hist.epochs_run == 3
        assert hist.best_val_loss == baseline
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
        baseline = eval_loss(net, val_set.X, val_set.Y)
        net, hist = train(net, train_set, val_set, patience=5, max_epochs=60)
        assert eval_loss(net, val_set.X, val_set.Y) == hist.best_val_loss
        assert hist.best_val_loss <= baseline
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
        empty = LabeledSet(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            train(init_net(tiny_cfg()), empty, val_set, patience=1, max_epochs=1)

    def test_empty_validation_set_rejected(self):
        train_set, _ = _toy_sets(np.random.default_rng(7))
        empty = LabeledSet(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="validation set is empty"):
            train(init_net(tiny_cfg()), train_set, empty, patience=1, max_epochs=1)

    def test_never_writes_into_the_callers_arrays(self):
        train_set, val_set = _toy_sets(np.random.default_rng(8))
        cfg = tiny_cfg(norm="batch", learning_rate=1e-2)
        held = init_net(cfg).snapshot()
        given = {n: a.copy() for n, a in held.items()}
        net = SurrogateNet(cfg, **held)
        train(net, train_set, val_set, patience=5, max_epochs=1)
        for name, arr in given.items():
            np.testing.assert_array_equal(held[name], arr)


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
        save_net(net, man, blob, "0" * 64)
        back = load_net(man, blob)
        assert back.config == cfg
        assert json.loads(man.read_text())["posterior_sha256"] == "0" * 64
        X = np.random.default_rng(0).random((7, 2))
        np.testing.assert_array_equal(predict(back, X), predict(net, X))
        for name in cfg.shapes():
            np.testing.assert_array_equal(getattr(back, name), getattr(net, name))

    def test_expect_refuses_a_net_of_another_run(self, tmp_path):
        man, blob = tmp_path / "net.json", tmp_path / "net.f64"
        net = init_net(tiny_cfg(hidden_width=6))
        save_net(net, man, blob, "0" * 64)
        kept = load_net(man, blob, {"posterior_sha256": "0" * 64})
        np.testing.assert_array_equal(kept.W1, net.W1)
        with pytest.raises(ArtifactError, match=r"has posterior_sha256 '0+', expected '1+'$"):
            load_net(man, blob, {"posterior_sha256": "1" * 64})

    def test_entries_must_be_the_ones_the_config_needs(self, tmp_path):
        # a batch-norm net's eight entries under a config that says no norm
        man, blob = tmp_path / "net.json", tmp_path / "net.f64"
        save_net(init_net(tiny_cfg(norm="batch", hidden_width=6)), man, blob, "0" * 64)
        doc = json.loads(man.read_text())
        doc["config"]["norm"] = "none"
        man.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="expected"):
            load_net(man, blob)

    def test_wrong_kind_rejected(self, tmp_path):
        from surrogate_forge.serialize import write_manifest

        write_manifest(tmp_path / "net.json", "posterior", {})
        with pytest.raises(ArtifactError):
            load_net(tmp_path / "net.json", tmp_path / "net.f64")
