"""Feed-forward surrogate g: R^J -> R^M.

One hidden dense layer, then normalization (layer, batch, or none), then
the activation, then inverted dropout, then a dense readout of all M
per-draw expectations. Trained with Smooth-L1 loss, early stopping on a
clean validation set, and snapshot-restore of the best parameters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .seeds import substream
from .serialize import ArtifactError, read_blob, read_manifest, write_blob, write_manifest

NORM_KINDS = ("layer", "batch", "none")
ACTIVATIONS = ("relu", "tanh")
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

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every array a net of this config holds, in blob order."""
        J, H, M = self.input_dim, self.hidden_width, self.output_dim
        shapes = {"W1": (H, J), "b1": (H,)}
        if self.norm != "none":
            shapes.update(gain=(H,), bias=(H,))
        shapes.update(W2=(M, H), b2=(M,))
        if self.norm == "batch":
            shapes.update(running_mean=(H,), running_var=(H,))
        return shapes

    def param_names(self) -> list[str]:
        """The trainable entries of shapes(): all but batch norm's running statistics."""
        return [n for n in self.shapes() if n not in ("running_mean", "running_var")]


class SurrogateNet:
    """Parameter container holding copies of the arrays it is given, one
    attribute per entry of config.shapes(). Training updates them in place;
    prediction never does."""

    def __init__(self, config: NetConfig, **arrays):
        shapes = config.shapes()
        if arrays.keys() != shapes.keys():
            raise ValueError(f"a net of this config holds {list(shapes)}; given {list(arrays)}")
        self.config = config
        for name, shape in shapes.items():
            arr = np.array(arrays[name], dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}; the config needs {shape}")
            setattr(self, name, arr)

    def snapshot(self) -> dict:
        return {n: getattr(self, n).copy() for n in self.config.shapes()}

    def restore(self, snap: dict) -> None:
        for n in self.config.shapes():
            setattr(self, n, snap[n].copy())


def init_net(config: NetConfig) -> SurrogateNet:
    """Kaiming-uniform fan-in weights, zero biases, unit norm gains, and
    running statistics at mean 0 and variance 1."""
    rng = substream(config.seed, "nn-init")
    shapes = config.shapes()
    arrays = {n: np.ones(s) if n in ("gain", "running_var") else np.zeros(s)
              for n, s in shapes.items()}
    for name, fan_in in (("W1", config.input_dim), ("W2", config.hidden_width)):
        bound = math.sqrt(6.0 / fan_in)
        arrays[name] = rng.uniform(-bound, bound, size=shapes[name])
    return SurrogateNet(config, **arrays)


def _forward_batch(net: SurrogateNet, X: np.ndarray, dropout_rng=None,
                   use_batch_stats: bool = False) -> tuple[np.ndarray, dict]:
    """Batched forward pass with a cache for backprop.

    Dropout is active iff dropout_rng is given and the rate is positive.
    Batch norm consumes batch statistics only when use_batch_stats is set
    and the batch has at least two rows; otherwise running stats apply.
    Never mutates net or X.

    Each (rows, H) stage is computed in place in one of at most three
    buffers, with the floating-point operations of the plain expressions
    (X @ W1.T + b1, numpy's mean and var, gain * Zhat + bias, A * mask / keep)
    in the same order, so every result is bitwise equal to theirs.
    """
    cfg = net.config
    B = X.shape[0]
    Z = X @ net.W1.T
    Z += net.b1
    cache: dict = {"X": X}

    if cfg.norm == "none":
        A = Z
    else:
        A = np.empty_like(Z)
        batch_stats = cfg.norm == "batch" and use_batch_stats and B >= 2
        if cfg.norm == "layer" or batch_stats:
            axis = 1 if cfg.norm == "layer" else 0
            n = Z.shape[axis]
            mu = Z.sum(axis=axis, keepdims=axis == 1) / n
            Z -= mu
            var = np.square(Z, out=A).sum(axis=axis, keepdims=axis == 1) / n
        else:
            mu, var = net.running_mean, net.running_var
            Z -= mu
        if cfg.norm == "batch":
            cache.update(used_batch_stats=batch_stats, batch_mu=mu, batch_var=var)
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        Z *= inv
        np.multiply(Z, net.gain, out=A)
        A += net.bias
        cache.update(Zhat=Z, inv=inv)

    if cfg.activation == "relu":
        np.maximum(A, 0.0, out=A)
    else:
        np.tanh(A, out=A)
    cache["A"] = A

    if dropout_rng is not None and cfg.dropout_rate > 0.0:
        keep = 1.0 - cfg.dropout_rate
        D = dropout_rng.random(A.shape)
        mask = D < keep
        np.multiply(A, mask, out=D)
        D /= keep
        cache.update(mask=mask, keep=keep)
    else:
        D = A
        cache["mask"] = None
    cache["D"] = D

    out = D @ net.W2.T
    out += net.b2
    return out, cache


def _backward(net: SurrogateNet, cache: dict, dOut: np.ndarray) -> dict:
    """Gradients of a scalar loss wrt every trainable, given dLoss/dOut.

    One (rows, H) buffer holds dD, then dA, dZn, dZhat and dZ1 in turn; a
    second holds the products the norm and tanh terms need. The operations
    and their order are those of the plain expressions, so every gradient
    is bitwise equal to theirs.
    """
    cfg = net.config
    A = cache["A"]
    grads = {"W2": dOut.T @ cache["D"], "b2": dOut.sum(axis=0)}
    G = dOut @ net.W2
    T = np.empty_like(G)

    if cache["mask"] is not None:
        G *= cache["mask"]
        G /= cache["keep"]

    if cfg.activation == "relu":
        G *= A > 0  # A > 0 exactly where the pre-activation is > 0
    else:
        np.square(A, out=T)
        np.subtract(1.0, T, out=T)
        G *= T

    if cfg.norm != "none":
        Zhat, inv = cache["Zhat"], cache["inv"]
        grads["gain"] = np.multiply(G, Zhat, out=T).sum(axis=0)
        grads["bias"] = G.sum(axis=0)
        G *= net.gain
        if cfg.norm == "layer" or cache["used_batch_stats"]:
            axis = 1 if cfg.norm == "layer" else 0
            n = G.shape[axis]
            m1 = G.sum(axis=axis, keepdims=axis == 1) / n
            m2 = np.multiply(G, Zhat, out=T).sum(axis=axis, keepdims=axis == 1) / n
            G -= m1
            G -= np.multiply(Zhat, m2, out=T)
        # dZ1 = inv * (dZhat - m1 - Zhat * m2) with the statistics of the
        # batch; running stats make normalization affine, so dZ1 = dZhat * inv
        G *= inv

    grads["W1"] = G.T @ cache["X"]
    grads["b1"] = G.sum(axis=0)
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
    best_val_loss: float = math.nan
    epochs_run: int = 0


class _Adam:
    def __init__(self, net: SurrogateNet, lr: float):
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(getattr(net, n)) for n in net.config.param_names()}
        self.v = {n: np.zeros_like(getattr(net, n)) for n in net.config.param_names()}

    def step(self, net: SurrogateNet, grads: dict) -> None:
        """One update of every parameter, moment and parameter in place, with
        the operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        p = p - lr * (m/c1) / (sqrt(v/c2) + eps) in the same order."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for n in net.config.param_names():
            g, m, v, p = grads[n], self.m[n], self.v[n], getattr(net, n)
            tmp = (1.0 - ADAM_BETA1) * g
            m *= ADAM_BETA1
            m += tmp
            np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
            tmp *= g
            v *= ADAM_BETA2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            update = m / c1
            update /= tmp
            update *= self.lr
            p -= update


def eval_loss(net: SurrogateNet, X, Y, chunk: int = 4096) -> float:
    """Deterministic eval-mode smooth_l1 over a whole set, chunked."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    total = 0.0
    count = 0
    for lo in range(0, X.shape[0], chunk):
        Xb = X[lo:lo + chunk]
        Yb = Y[lo:lo + chunk]
        # index the pair so the forward cache is freed before the loss terms
        z = _smooth_l1_terms(_forward_batch(net, Xb)[0] - Yb)
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
    if Xval.shape[0] == 0:
        raise ValueError("validation set is empty")
    if shuffle_rng is None:
        shuffle_rng = substream(cfg.seed, "nn-shuffle")
    if dropout_rng is None:
        dropout_rng = substream(cfg.seed, "nn-dropout")

    opt = _Adam(net, cfg.learning_rate)
    history = TrainHistory()
    stopper = EarlyStopper(patience, eval_loss(net, Xval, Yval), net.snapshot())

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
        if stopper.update(val, net):
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
    for name in net.config.param_names():
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


def save_net(net: SurrogateNet, manifest_path, blob_path, posterior_sha256: str) -> None:
    cfg = net.config
    layout = write_blob(blob_path, {n: getattr(net, n) for n in cfg.shapes()})
    write_manifest(manifest_path, "surrogate_net", {"config": asdict(cfg), "parameters": layout,
                                                    "posterior_sha256": posterior_sha256})


def load_net(manifest_path, blob_path, expect: dict | None = None) -> SurrogateNet:
    """The stored net, refused unless its manifest holds expect's values."""
    doc = read_manifest(manifest_path, "surrogate_net", ("config", "parameters"), expect)
    try:
        cfg = NetConfig(**doc["config"])
        arrays = read_blob(blob_path, doc["parameters"], list(cfg.shapes()))
        return SurrogateNet(cfg, **arrays)
    except (TypeError, ValueError) as e:
        raise ArtifactError(f"net manifest {manifest_path} does not describe a net: {e}") from e
