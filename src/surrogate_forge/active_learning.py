"""Active learning loop: grow the training set where the net is least sure.

Each round scores a fresh uniform candidate pool by MC-dropout uncertainty,
samples acquisition points from a softmax over those scores, labels them
with the reference predictor, and retrains from the current parameters.
Two early-stopping levels: intra (epochs within a round) and inter (rounds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .bm_predict import predict_batch
from .model_core import ModelSpec
from .posterior import PosteriorDraws
from .seeds import substream
from .serialize import write_csv
from .surrogate import (EarlyStopper, NetConfig, SurrogateNet, TrainHistory,
                        init_net, mc_dropout_predict, train)
from .synth_data import INPUT_DISTS, DataGenConfig, LabeledSet, generate, generate_at


@dataclass(frozen=True)
class ALConfig:
    I_init: int = 10000
    I_al: int = 1000
    K: int = 50
    pool_size: int = 10000
    inter_patience: int = 10
    intra_patience: int = 20
    seed: int = 0
    val_size: int = 5000
    tau: float = 0.8
    input_dist: str = "uniform01"
    max_rounds: int = 1000
    max_epochs: int = 1000

    def __post_init__(self):
        for name in ("I_init", "I_al", "K", "pool_size", "inter_patience",
                     "intra_patience", "val_size", "max_rounds", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.input_dist not in INPUT_DISTS:
            raise ValueError(f"input_dist must be one of {INPUT_DISTS}")


@dataclass
class RoundRecord:
    round: int
    dataset_size: int
    train_loss: float
    val_loss: float
    wall_time_s: float


def _dropout_sigma(mat: np.ndarray) -> float:
    """Sample std (ddof 1) over the K passes of an (M, K) dropout block,
    then the mean of those M standard deviations."""
    return float(np.mean(np.std(mat, axis=1, ddof=1)))


def uncertainty(net: SurrogateNet, X_pool, K: int, rng) -> np.ndarray:
    """Per-row predictive uncertainty: the dropout sigma of K passes."""
    X_pool = np.asarray(X_pool, dtype=float)
    if X_pool.ndim != 2:
        raise ValueError("X_pool must be 2-D")
    if K < 2:
        raise ValueError("K must be >= 2")
    sigma = np.empty(X_pool.shape[0])
    for i in range(X_pool.shape[0]):
        sigma[i] = _dropout_sigma(mc_dropout_predict(net, X_pool[i], K, rng))
    return sigma


def acquisition_probs(sigma) -> np.ndarray:
    """Softmax over uncertainties, max-shifted for stability."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        raise ValueError("sigma is empty")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite")
    e = np.exp(sigma - sigma.max())
    return e / e.sum()


def acquire(probs, I_al: int, rng) -> np.ndarray:
    """I_al categorical draws with replacement; duplicates permitted."""
    probs = np.asarray(probs, dtype=float)
    return rng.choice(probs.size, size=I_al, replace=True, p=probs)


def min_final_dataset_size(cfg: ALConfig) -> int:
    """Smallest training-set size the loop can stop at: the initial set plus
    one acquisition batch per patience round when validation never improves."""
    return cfg.I_init + cfg.inter_patience * cfg.I_al


def train_new(spec: ModelSpec, draws: PosteriorDraws, train_set: LabeledSet, net_cfg: NetConfig,
              cfg, stream: str = "al-val", *, shuffle_rng=None, dropout_rng=None,
              threads: int = 1) -> tuple[SurrogateNet, TrainHistory, LabeledSet]:
    """Train a fresh net on train_set, stopping early on cfg.val_size clean uniform
    rows of stream `stream` of cfg.seed, labelled by the reference predictor on
    `threads` threads. cfg (ALConfig or InvarianceConfig) also gives
    intra_patience and max_epochs."""
    X_val = substream(cfg.seed, stream).random((cfg.val_size, spec.J))
    val_set = generate_at(spec, draws, X_val, threads)
    net, hist = train(init_net(net_cfg), train_set, val_set, cfg.intra_patience,
                      cfg.max_epochs, shuffle_rng=shuffle_rng, dropout_rng=dropout_rng)
    return net, hist, val_set


def al_train(spec: ModelSpec, draws: PosteriorDraws, cfg: ALConfig,
             net_cfg: NetConfig, threads: int = 1) -> tuple[SurrogateNet, list[RoundRecord]]:
    """Run the full loop, labelling on `threads` threads; returns the
    overall-best net and per-round history.

    Round 0 trains on a fresh masked set of I_init rows. Every later round
    appends I_al acquired rows and retrains warm-start. The inter level
    tracks the best per-round validation loss and restores that snapshot.
    """
    if net_cfg.input_dim != spec.J or net_cfg.output_dim != len(draws):
        raise ValueError("net_cfg dimensions must match spec.J and draw count")

    train_set = generate(spec, draws, DataGenConfig(I=cfg.I_init, tau=cfg.tau,
                                                    input_dist=cfg.input_dist, seed=cfg.seed),
                         threads)

    shuffle_rng = substream(net_cfg.seed, "nn-shuffle")
    dropout_rng = substream(net_cfg.seed, "nn-dropout")
    pool_rng = substream(cfg.seed, "al-pool")
    score_rng = substream(cfg.seed, "al-score")
    acq_rng = substream(cfg.seed, "al-acquire")

    records: list[RoundRecord] = []
    t0 = time.perf_counter()
    net, hist, val_set = train_new(spec, draws, train_set, net_cfg, cfg,
                                   shuffle_rng=shuffle_rng, dropout_rng=dropout_rng,
                                   threads=threads)
    records.append(RoundRecord(0, len(train_set), hist.train_loss[-1],
                               hist.best_val_loss, time.perf_counter() - t0))

    stopper = EarlyStopper(cfg.inter_patience, hist.best_val_loss, net.snapshot())

    for r in range(1, cfg.max_rounds + 1):
        t0 = time.perf_counter()
        X_pool = pool_rng.random((cfg.pool_size, spec.J))
        sigma = uncertainty(net, X_pool, cfg.K, score_rng)
        idx = acquire(acquisition_probs(sigma), cfg.I_al, acq_rng)
        acquired = generate_at(spec, draws, X_pool[idx], threads)
        train_set = LabeledSet(np.vstack([train_set.X, acquired.X]),
                               np.vstack([train_set.Y, acquired.Y]))
        net, hist = train(net, train_set, val_set, cfg.intra_patience, cfg.max_epochs,
                          shuffle_rng=shuffle_rng, dropout_rng=dropout_rng)
        records.append(RoundRecord(r, len(train_set), hist.train_loss[-1],
                                   hist.best_val_loss, time.perf_counter() - t0))
        if stopper.update(hist.best_val_loss, net):
            break

    net.restore(stopper.best_snapshot)
    return net, records


def calibration_data(net: SurrogateNet, spec: ModelSpec, draws: PosteriorDraws,
                     X_pool, K: int, rng, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per pool row: Eq.-style uncertainty sigma and mu_rmse, the mean over
    all K x M dropout predictions of the absolute error against the label,
    which the reference predictor computes on `threads` threads."""
    X_pool = np.asarray(X_pool, dtype=float)
    labels = predict_batch(spec, draws, X_pool, threads)
    n = X_pool.shape[0]
    sigma = np.empty(n)
    mu_rmse = np.empty(n)
    for i in range(n):
        mat = mc_dropout_predict(net, X_pool[i], K, rng)
        sigma[i] = _dropout_sigma(mat)
        mu_rmse[i] = float(np.mean(np.abs(mat - labels[i][:, None])))
    return sigma, mu_rmse


def write_history_csv(records: list[RoundRecord], path) -> None:
    write_csv(path, {f.name: [getattr(rec, f.name) for rec in records]
                     for f in fields(RoundRecord)})
