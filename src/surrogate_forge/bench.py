"""Benchmark harness: timing sweep, crossover arithmetic, effect curves,
and the dropout-invariance comparison suite."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from .active_learning import ALConfig, al_train, train_new
from .bm_predict import predict_batch, predict_batch_timed
from .model_core import ModelSpec, ParamDraw, sample_ground_truth, generate_observed
from .posterior import PosteriorDraws, SamplerConfig, sample_posterior
from .seeds import derive_seed, substream
from .surrogate import NetConfig, predict
from .synth_data import DataGenConfig, generate
from .serialize import write_csv


def crossover(kappa: int, m: int) -> int:
    """Smallest integer n with n >= kappa*m/(m-1), by exact rational ceil."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    return math.ceil(Fraction(kappa * m, m - 1))


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    env: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows = sorted(self.rows, key=lambda r: r["J"])


def run_speed_sweep(J_list, M: int, N_test: int, net_cfg: NetConfig,
                    al_cfg: ALConfig, *, seed: int = 0, threads: int = 1,
                    reps: int = 5, n_observed: int = 1000,
                    sampler: SamplerConfig, link: str = "sigmoid") -> BenchReport:
    """Fresh ground truth, posterior, and surrogate per J; then timed
    reference predictions vs timed surrogate forward passes on one test set."""
    built = []
    for J in sorted(J_list):
        child = derive_seed(seed, f"sweep-j{J}")
        spec = ModelSpec(J=J, link=link)
        truth = sample_ground_truth(spec, substream(child, "bm-truth"))
        X_obs, y_obs = generate_observed(spec, truth, n_observed, substream(child, "bm-data"))
        scfg = replace(sampler, samples=M, seed=child)
        draws = sample_posterior(spec, X_obs, y_obs, scfg)

        ncfg = replace(net_cfg, input_dim=J, output_dim=M, seed=child)
        acfg = replace(al_cfg, seed=child)
        net, records = al_train(spec, draws, acfg, ncfg, threads)

        X_test = substream(child, "bench").random((N_test, J))
        labels = predict_batch(spec, draws, X_test, threads)
        test_mse = float(np.mean((predict(net, X_test) - labels) ** 2))
        built.append((spec, draws, net, X_test, test_mse, records[-1]))

    # every rep times every J back to back, so a change in machine speed
    # during the timing falls on all J alike rather than on one J's block
    for spec, draws, net, X_test, *_ in built:
        predict_batch_timed(spec, draws, X_test, threads)  # warm-up, untimed
        predict(net, X_test)
    bm_times = [[] for _ in built]
    nn_times = [[] for _ in built]
    for _ in range(reps):
        for k, (spec, draws, net, X_test, *_) in enumerate(built):
            bm_times[k].append(predict_batch_timed(spec, draws, X_test, threads).wall_time)
            t0 = time.perf_counter()
            predict(net, X_test)
            nn_times[k].append(time.perf_counter() - t0)

    rows = []
    for (spec, _, _, _, test_mse, last), bm, nn in zip(built, bm_times, nn_times):
        rows.append({
            "J": spec.J,
            "bm_time_s": float(np.median(bm)),
            "nn_time_s": float(np.median(nn)),
            "bm_time_min_s": float(np.min(bm)),
            "nn_time_min_s": float(np.min(nn)),
            "test_mse": test_mse,
            "final_dataset_size": last.dataset_size,
            "al_rounds": last.round,
        })
    env = {"threads": threads, "precision": "float64", "reps": reps,
           "M": M, "N_test": N_test, "n_observed": n_observed}
    return BenchReport(rows, env)


def timing_regression(report: BenchReport) -> dict:
    """Least-squares fit bm_time_s ~ J: slope, intercept, and R^2."""
    J = np.array([r["J"] for r in report.rows], dtype=float)
    t = np.array([r["bm_time_s"] for r in report.rows], dtype=float)
    A = np.column_stack([J, np.ones_like(J)])
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((t - pred) ** 2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "r2": r2}


@dataclass
class EffectCurve:
    x: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray


def effect_curve(predictor, J: int, j: int, x_j_grid, mode: str = "fixed", *,
                 c: float = 0.0, n_mc: int = 1000, rng=None) -> EffectCurve:
    """Relative effect of predictor j: g'(x) = g(x) - g(x with x_j = 0).

    predictor maps an (N, J) input block to an (N, M) output block. In
    fixed mode the other coordinates sit at the constant c; in marginalized
    mode they are averaged over n_mc uniform draws. The band is the mean
    over the M outputs plus/minus 1.96 sample standard deviations.
    """
    grid = np.asarray(x_j_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("x_j_grid is empty")
    if not 0 <= j < J:
        raise ValueError("j must index a predictor column")
    G = grid.size

    if mode == "fixed":
        base = np.full(J, float(c))
        base[j] = 0.0
        X = np.repeat(base[None, :], G, axis=0)
        X[:, j] = grid
        preds = predictor(np.vstack([X, base[None, :]]))
        diff = preds[:G] - preds[G]
    elif mode == "marginalized":
        if n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        if rng is None:
            raise ValueError("marginalized mode needs an rng")
        ctx = rng.random((n_mc, J))
        base = ctx.copy()
        base[:, j] = 0.0
        pred_base = predictor(base)
        M = pred_base.shape[1]
        diff = np.empty((G, M))
        for g in range(G):
            Xg = ctx.copy()
            Xg[:, j] = grid[g]
            diff[g] = np.mean(predictor(Xg) - pred_base, axis=0)
    else:
        raise ValueError("mode must be 'fixed' or 'marginalized'")

    mean = diff.mean(axis=1)
    if diff.shape[1] >= 2:
        std = diff.std(axis=1, ddof=1)
    else:
        std = np.zeros(G)
    return EffectCurve(grid, mean, std, mean - 1.96 * std, mean + 1.96 * std)


def make_weak_truth(spec: ModelSpec, weak_j: int, rng,
                    sigma2: float = 0.01) -> ParamDraw:
    """Ground truth with one deliberately weak predictor: gamma and alpha as
    sample_ground_truth draws them, beta at the range minimum for weak_j and
    the range maximum elsewhere."""
    if not 0 <= weak_j < spec.J:
        raise ValueError("weak_j must index a predictor column")
    beta = np.ones(spec.J)
    beta[weak_j] = 0.1
    return replace(sample_ground_truth(spec, rng, sigma2), beta=beta)


@dataclass(frozen=True)
class InvarianceConfig:
    j: int = 0
    tau_values: tuple = (0.8, 1.0)
    c_values: tuple = (0.0, 0.5, 1.0)
    n_mc: int = 1000
    grid_points: int = 21
    train_size: int = 10000
    val_size: int = 2000
    intra_patience: int = 20
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("j must be >= 0")
        if len(self.tau_values) == 0 or len(self.c_values) == 0:
            raise ValueError("tau_values and c_values must be nonempty")
        for tau in self.tau_values:
            if not isinstance(tau, (int, float)) or not 0.0 < tau <= 1.0:
                raise ValueError(f"tau_values entries must be numbers in (0, 1], got {tau!r}")
        for c in self.c_values:
            if not isinstance(c, (int, float)) or not math.isfinite(c):
                raise ValueError(f"c_values entries must be finite numbers, got {c!r}")
        for name in ("n_mc", "train_size", "val_size", "intra_patience", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_points)


@dataclass(frozen=True)
class BenchConfig:
    J_list: tuple = (2, 5, 10, 20)
    M: int = 200
    N_test: int = 5000
    n_observed: int = 1000
    reps: int = 5
    warmup: int = 500
    calibration_pool: int = 2000
    calibration_K: int = 50

    def __post_init__(self):
        # type(J) is int also refuses a bool, which isinstance would let through
        if len(self.J_list) == 0 or any(type(J) is not int or J < 1 for J in self.J_list):
            raise ValueError(f"J_list must be a nonempty list of integers >= 1, "
                             f"got {list(self.J_list)!r}")
        for name in ("M", "N_test", "n_observed", "reps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        # a rank correlation needs 2 rows, a dropout σ 2 passes
        if min(self.calibration_pool, self.calibration_K) < 2:
            raise ValueError("calibration_pool and calibration_K must be >= 2")


@dataclass
class InvarianceResult:
    curves: dict
    summary: dict
    files: list


def run_invariance_suite(spec: ModelSpec, draws: PosteriorDraws,
                         inv_cfg: InvarianceConfig, net_cfg: NetConfig, *,
                         out_dir=None, threads: int = 1) -> InvarianceResult:
    """Train one surrogate per tau from net_cfg on train_size-row sets, then
    compare every net's effect curves against the reference predictor's,
    which labels and predicts on `threads` threads.

    curves keys: (name, mode, c) with name 'bm' or 'tau<value>'; c is None
    for marginalized mode. summary keys: (tau, mode, c) -> max abs gap
    between the net's mean curve and the reference mean curve.
    """
    if inv_cfg.j >= spec.J:
        raise ValueError("inv_cfg.j must be < spec.J")

    grid = inv_cfg.grid()
    settings = [("fixed", c) for c in inv_cfg.c_values] + [("marginalized", None)]

    def curves_of(predictor) -> dict:
        # fixed mode ignores the rng and marginalized mode ignores c
        return {(mode, c): effect_curve(predictor, spec.J, inv_cfg.j, grid, mode,
                                        c=c, n_mc=inv_cfg.n_mc,
                                        rng=substream(inv_cfg.seed, "inv-mc"))
                for mode, c in settings}

    ref = curves_of(partial(predict_batch, spec, draws, threads=threads))
    curves = {("bm", *key): cur for key, cur in ref.items()}
    summary = {}
    for tau in inv_cfg.tau_values:
        dcfg = DataGenConfig(I=inv_cfg.train_size, tau=tau, input_dist="uniform01",
                             seed=derive_seed(inv_cfg.seed, f"inv-data-{tau}"))
        dset = generate(spec, draws, dcfg, threads)
        net, _, _ = train_new(spec, draws, dset, net_cfg, inv_cfg, "inv-val",
                              threads=threads)
        for key, cur in curves_of(partial(predict, net)).items():
            curves[(f"tau{tau:g}", *key)] = cur
            summary[(tau, *key)] = float(np.max(np.abs(cur.mean - ref[key].mean)))

    files = []
    if out_dir is not None:
        for (name, mode, c), cur in curves.items():
            tail = f"fixed_{c:g}" if mode == "fixed" else "marginalized"
            path = Path(out_dir) / f"invariance_{name}_{tail}.csv"
            write_csv(path, {"x_j": cur.x, "mean": cur.mean, "lo95": cur.lo95, "hi95": cur.hi95})
            files.append(str(path))
    return InvarianceResult(curves, summary, files)

