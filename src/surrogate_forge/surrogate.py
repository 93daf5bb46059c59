"""Feed-forward surrogate g: R^J -> R^M.

One hidden dense layer, then normalization (layer, batch, or none), then
the activation, then inverted dropout, then a dense readout of all M
per-draw expectations. Trained with Smooth-L1 loss, early stopping on a
clean validation set, and snapshot-restore of the best parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seeds import substream
from .serialize import read_blob, read_manifest, write_blob, write_manifest

NORM_KINDS = ("layer", "batch", "none")
ACTIVATIONS = ("relu", "tanh")
OPTIMIZERS = ("adam", "sgd")
NORM_EPS = 1e-5
RUNNING_STAT_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(Exception):
    """Raised when a training loss stops being finite."""


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden_width: int = 512
    output_dim: int = 1
    dropout_rate: float = 0.5
    norm: str = "layer"
    activation: str = "relu"
    learning_rate: float = 3e-4
    batch_size: int = 128
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if min(self.input_dim, self.hidden_width, self.output_dim) < 1:
            raise ValueError("all dimensions must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"norm must be one of {NORM_KINDS}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")


class SurrogateNet:
    """Parameter container. Training mutates it; prediction never does."""

    def __init__(self, config: NetConfig, W1, b1, W2, b2,
                 gain=None, bias=None, running_mean=None, running_var=None):
        H, J, M = config.hidden_width, config.input_dim, config.output_dim
        self.config = config
        self.W1 = np.asarray(W1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.W2 = np.asarray(W2, dtype=float)
        self.b2 = np.asarray(b2, dtype=float)
        if self.W1.shape != (H, J) or self.b1.shape != (H,):
            raise ValueError("W1/b1 shape mismatch with config")
        if self.W2.shape != (M, H) or self.b2.shape != (M,):
            raise ValueError("W2/b2 shape mismatch with config")
        if config.norm != "none":
            self.gain = np.asarray(gain, dtype=float)
            self.bias = np.asarray(bias, dtype=float)
            if self.gain.shape != (H,) or self.bias.shape != (H,):
                raise ValueError("gain/bias shape mismatch with config")
        else:
            self.gain = None
            self.bias = None
        if config.norm == "batch":
            self.running_mean = (np.zeros(H) if running_mean is None
                                 else np.asarray(running_mean, dtype=float))
            self.running_var = (np.ones(H) if running_var is None
                                else np.asarray(running_var, dtype=float))
        else:
            self.running_mean = None
            self.running_var = None

    def param_names(self) -> list[str]:
        names = ["W1", "b1"]
        if self.config.norm != "none":
            names += ["gain", "bias"]
        names += ["W2", "b2"]
        return names

    def state_names(self) -> list[str]:
        return ["running_mean", "running_var"] if self.config.norm == "batch" else []

    def snapshot(self) -> dict:
        return {n: getattr(self, n).copy() for n in self.param_names() + self.state_names()}

    def restore(self, snap: dict) -> None:
        for n in self.param_names() + self.state_names():
            setattr(self, n, snap[n].copy())

    def copy(self) -> "SurrogateNet":
        snap = self.snapshot()
        return SurrogateNet(self.config, snap["W1"], snap["b1"], snap["W2"], snap["b2"],
                            gain=snap.get("gain"), bias=snap.get("bias"),
                            running_mean=snap.get("running_mean"),
                            running_var=snap.get("running_var"))


def init_net(config: NetConfig) -> SurrogateNet:
    """Kaiming-uniform fan-in weights, zero biases, unit norm gains."""
    rng = substream(config.seed, "nn-init")
    J, H, M = config.input_dim, config.hidden_width, config.output_dim
    bound1 = math.sqrt(6.0 / J)
    W1 = rng.uniform(-bound1, bound1, size=(H, J))
    bound2 = math.sqrt(6.0 / H)
    W2 = rng.uniform(-bound2, bound2, size=(M, H))
    gain = np.ones(H) if config.norm != "none" else None
    bias = np.zeros(H) if config.norm != "none" else None
    return SurrogateNet(config, W1, np.zeros(H), W2, np.zeros(M), gain=gain, bias=bias)


def _forward_batch(net: SurrogateNet, X: np.ndarray, dropout_rng=None,
                   use_batch_stats: bool = False) -> tuple[np.ndarray, dict]:
    """Batched forward pass with a cache for backprop.

    Dropout is active iff dropout_rng is given and the rate is positive.
    Batch norm consumes batch statistics only when use_batch_stats is set
    and the batch has at least two rows; otherwise running stats apply.
    Never mutates net.
    """
    cfg = net.config
    B = X.shape[0]
    Z1 = X @ net.W1.T + net.b1
    cache: dict = {"X": X, "Z1": Z1}

    if cfg.norm == "layer":
        mu = Z1.mean(axis=1, keepdims=True)
        var = Z1.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        Zhat = (Z1 - mu) * inv
        Zn = net.gain * Zhat + net.bias
        cache.update(Zhat=Zhat, inv=inv, norm_axis=1)
    elif cfg.norm == "batch":
        if use_batch_stats and B >= 2:
            mu = Z1.mean(axis=0)
            var = Z1.var(axis=0)
            cache.update(batch_mu=mu, batch_var=var, used_batch_stats=True, norm_axis=0)
        else:
            mu = net.running_mean
            var = net.running_var
            cache.update(used_batch_stats=False)
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        Zhat = (Z1 - mu) * inv
        Zn = net.gain * Zhat + net.bias
        cache.update(Zhat=Zhat, inv=inv)
    else:
        Zn = Z1
    cache["Zn"] = Zn

    if cfg.activation == "relu":
        A = np.maximum(Zn, 0.0)
    else:
        A = np.tanh(Zn)
    cache["A"] = A

    if dropout_rng is not None and cfg.dropout_rate > 0.0:
        keep = 1.0 - cfg.dropout_rate
        mask = dropout_rng.random(A.shape) < keep
        D = A * mask / keep
        cache.update(mask=mask, keep=keep)
    else:
        D = A
        cache["mask"] = None
    cache["D"] = D

    out = D @ net.W2.T + net.b2
    return out, cache


def _backward(net: SurrogateNet, cache: dict, dOut: np.ndarray) -> dict:
    """Gradients of a scalar loss wrt every trainable, given dLoss/dOut."""
    cfg = net.config
    grads = {"W2": dOut.T @ cache["D"], "b2": dOut.sum(axis=0)}
    dD = dOut @ net.W2

    if cache["mask"] is not None:
        dA = dD * cache["mask"] / cache["keep"]
    else:
        dA = dD

    if cfg.activation == "relu":
        dZn = dA * (cache["Zn"] > 0)
    else:
        dZn = dA * (1.0 - cache["A"] ** 2)

    if cfg.norm == "none":
        dZ1 = dZn
    else:
        Zhat, inv = cache["Zhat"], cache["inv"]
        grads["gain"] = (dZn * Zhat).sum(axis=0)
        grads["bias"] = dZn.sum(axis=0)
        dZhat = dZn * net.gain
        if cfg.norm == "layer":
            dZ1 = inv * (dZhat
                         - dZhat.mean(axis=1, keepdims=True)
                         - Zhat * (dZhat * Zhat).mean(axis=1, keepdims=True))
        elif cache["used_batch_stats"]:
            dZ1 = inv * (dZhat
                         - dZhat.mean(axis=0)
                         - Zhat * (dZhat * Zhat).mean(axis=0))
        else:
            # running stats make normalization an affine per-unit map
            dZ1 = dZhat * inv

    grads["W1"] = dZ1.T @ cache["X"]
    grads["b1"] = dZ1.sum(axis=0)
    return grads


def predict(net: SurrogateNet, X) -> np.ndarray:
    """Deterministic eval-mode predictions for a batch; shape (N, M)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.config.input_dim:
        raise ValueError(f"X must be (N, {net.config.input_dim})")
    out, _ = _forward_batch(net, X)
    return out


def _smooth_l1_terms(d: np.ndarray) -> np.ndarray:
    """Elementwise smooth-L1 of a difference d: 0.5 d^2 for |d| < 1, |d| - 0.5 otherwise."""
    ad = np.abs(d)
    return np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)


def smooth_l1(y, y_hat) -> float:
    """Mean over elements of the smooth-L1 terms of y_hat - y."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ValueError("y and y_hat must have equal shapes")
    return float(np.mean(_smooth_l1_terms(y_hat - y)))


def smooth_l1_grad(y, y_hat) -> np.ndarray:
    """d(smooth_l1)/d(y_hat): clip(y_hat - y, -1, 1) / element count."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    return np.clip(y_hat - y, -1.0, 1.0) / y.size


class EarlyStopper:
    """Tracks the best validation loss and the parameters that produced it."""

    def __init__(self, patience: int, baseline_loss: float, baseline_snapshot: dict):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best_loss = float(baseline_loss)
        self.epochs_since_best = 0
        self.best_snapshot = baseline_snapshot

    def update(self, loss: float, net: SurrogateNet) -> bool:
        """Record one epoch (or AL round) result; returns True when to stop."""
        if loss < self.best_loss:
            self.best_loss = float(loss)
            self.epochs_since_best = 0
            self.best_snapshot = net.snapshot()
        else:
            self.epochs_since_best += 1
        return self.epochs_since_best >= self.patience


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    initial_val_loss: float = math.nan
    best_val_loss: float = math.nan
    best_epoch: int = 0
    epochs_run: int = 0
    stopped_early: bool = False


class _Adam:
    def __init__(self, net: SurrogateNet, lr: float):
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(getattr(net, n)) for n in net.param_names()}
        self.v = {n: np.zeros_like(getattr(net, n)) for n in net.param_names()}

    def step(self, net: SurrogateNet, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for n in net.param_names():
            g = grads[n]
            self.m[n] = ADAM_BETA1 * self.m[n] + (1.0 - ADAM_BETA1) * g
            self.v[n] = ADAM_BETA2 * self.v[n] + (1.0 - ADAM_BETA2) * g * g
            update = (self.m[n] / c1) / (np.sqrt(self.v[n] / c2) + ADAM_EPS)
            setattr(net, n, getattr(net, n) - self.lr * update)


class _SGD:
    def __init__(self, net: SurrogateNet, lr: float):
        self.lr = lr

    def step(self, net: SurrogateNet, grads: dict) -> None:
        for n in net.param_names():
            setattr(net, n, getattr(net, n) - self.lr * grads[n])


def eval_loss(net: SurrogateNet, X, Y, chunk: int = 4096) -> float:
    """Deterministic eval-mode smooth_l1 over a whole set, chunked."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    total = 0.0
    count = 0
    for lo in range(0, X.shape[0], chunk):
        Xb = X[lo:lo + chunk]
        Yb = Y[lo:lo + chunk]
        out, _ = _forward_batch(net, Xb)
        z = _smooth_l1_terms(out - Yb)
        total += float(np.sum(z))
        count += z.size
    return total / count


def train(net: SurrogateNet, train_set, val_set, patience: int,
          max_epochs: int = 1000, *, shuffle_rng=None, dropout_rng=None
          ) -> tuple[SurrogateNet, TrainHistory]:
    """Mini-batch training with validation-based early stopping.

    The incoming parameters are the stopper's baseline, so a round of
    training can never return a net worse (on the validation set) than the
    one it was given. Improvement means a strictly smaller validation loss.
    """
    cfg = net.config
    Xtr = np.asarray(train_set.X, dtype=float)
    Ytr = np.asarray(train_set.Y, dtype=float)
    if Xtr.shape[0] == 0:
        raise ValueError("training set is empty")
    if Xtr.shape[1] != cfg.input_dim or Ytr.shape[1] != cfg.output_dim:
        raise ValueError("training set dimensions disagree with net config")
    Xval = np.asarray(val_set.X, dtype=float)
    Yval = np.asarray(val_set.Y, dtype=float)
    if shuffle_rng is None:
        shuffle_rng = substream(cfg.seed, "nn-shuffle")
    if dropout_rng is None:
        dropout_rng = substream(cfg.seed, "nn-dropout")

    opt = _Adam(net, cfg.learning_rate) if cfg.optimizer == "adam" else _SGD(net, cfg.learning_rate)
    history = TrainHistory()
    baseline = eval_loss(net, Xval, Yval)
    history.initial_val_loss = baseline
    stopper = EarlyStopper(patience, baseline, net.snapshot())

    I = Xtr.shape[0]
    for epoch in range(1, max_epochs + 1):
        perm = shuffle_rng.permutation(I)
        z_total = 0.0
        n_total = 0
        for lo in range(0, I, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            Xb = Xtr[idx]
            Yb = Ytr[idx]
            out, cache = _forward_batch(net, Xb, dropout_rng=dropout_rng,
                                        use_batch_stats=True)
            z = _smooth_l1_terms(out - Yb)
            batch_loss = float(np.mean(z))
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch starting {lo}")
            z_total += float(np.sum(z))
            n_total += z.size
            grads = _backward(net, cache, smooth_l1_grad(Yb, out))
            opt.step(net, grads)
            if cfg.norm == "batch" and cache.get("used_batch_stats"):
                B = Xb.shape[0]
                unbiased = cache["batch_var"] * B / max(B - 1, 1)
                net.running_mean = ((1 - RUNNING_STAT_MOMENTUM) * net.running_mean
                                    + RUNNING_STAT_MOMENTUM * cache["batch_mu"])
                net.running_var = ((1 - RUNNING_STAT_MOMENTUM) * net.running_var
                                   + RUNNING_STAT_MOMENTUM * unbiased)

        history.train_loss.append(z_total / n_total)
        val = eval_loss(net, Xval, Yval)
        history.val_loss.append(val)
        history.epochs_run = epoch
        stop = stopper.update(val, net)
        if val == stopper.best_loss and stopper.epochs_since_best == 0:
            history.best_epoch = epoch
        if stop:
            history.stopped_early = True
            break

    net.restore(stopper.best_snapshot)
    history.best_val_loss = stopper.best_loss
    return net, history


def grad_check(net: SurrogateNet, x, y, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    of smooth_l1(y, net(x)) over every trainable parameter. Dropout off."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    X = x[None, :]
    Y = y[None, :]

    out, cache = _forward_batch(net, X)
    dOut = smooth_l1_grad(Y, out)
    grads = _backward(net, cache, dOut)

    def loss_now() -> float:
        o, _ = _forward_batch(net, X)
        return smooth_l1(Y, o)

    worst = 0.0
    for name in net.param_names():
        arr = getattr(net, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_now()
            arr[idx] = orig - h
            dn = loss_now()
            arr[idx] = orig
            numeric = (up - dn) / (2.0 * h)
            analytic = grads[name][idx]
            denom = max(abs(numeric), abs(analytic))
            if denom < 1e-8:
                err = abs(numeric - analytic)
            else:
                err = abs(numeric - analytic) / denom
            worst = max(worst, err)
    return worst


def mc_dropout_predict(net: SurrogateNet, x, K: int,
                       rng: np.random.Generator) -> np.ndarray:
    """K dropout-active forward passes at x; column k is pass k. Shape (M, K)."""
    if K < 2:
        raise ValueError("K must be >= 2")
    x = np.asarray(x, dtype=float)
    if x.shape != (net.config.input_dim,):
        raise ValueError(f"x must have shape ({net.config.input_dim},)")
    X = np.broadcast_to(x, (K, x.size)).copy()
    # rows are independent passes; batch norm stays on inference statistics
    out, _ = _forward_batch(net, X, dropout_rng=rng, use_batch_stats=False)
    return out.T.copy()


def save_net(net: SurrogateNet, manifest_path, blob_path) -> None:
    names = net.param_names() + net.state_names()
    arrays = [getattr(net, n) for n in names]
    layout = write_blob(blob_path, arrays)
    entries = [{"name": n, **rec} for n, rec in zip(names, layout)]
    cfg = net.config
    write_manifest(manifest_path, "surrogate_net", {
        "config": {
            "input_dim": cfg.input_dim, "hidden_width": cfg.hidden_width,
            "output_dim": cfg.output_dim, "dropout_rate": cfg.dropout_rate,
            "norm": cfg.norm, "activation": cfg.activation,
            "learning_rate": cfg.learning_rate, "batch_size": cfg.batch_size,
            "seed": cfg.seed, "optimizer": cfg.optimizer,
        },
        "parameters": entries,
    })


def load_net(manifest_path, blob_path) -> SurrogateNet:
    doc = read_manifest(manifest_path, "surrogate_net")
    cfg = NetConfig(**doc["config"])
    entries = doc["parameters"]
    arrays = read_blob(blob_path, entries)
    by_name = {e["name"]: a for e, a in zip(entries, arrays)}
    return SurrogateNet(cfg, by_name["W1"], by_name["b1"], by_name["W2"], by_name["b2"],
                        gain=by_name.get("gain"), bias=by_name.get("bias"),
                        running_mean=by_name.get("running_mean"),
                        running_var=by_name.get("running_var"))
