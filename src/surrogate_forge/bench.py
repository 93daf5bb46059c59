"""Benchmark harness: timing sweep, crossover arithmetic, effect curves,
and the dropout-invariance comparison suite."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .active_learning import ALConfig, al_train
from .bm_predict import predict_batch, predict_batch_timed
from .model_core import (
    TRUTH_ALPHA_RANGE,
    TRUTH_GAMMA_RANGE,
    GroundTruth,
    ModelSpec,
    ParamDraw,
    sample_ground_truth,
    generate_observed,
)
from .posterior import PosteriorDraws, SamplerConfig, sample_posterior
from .seeds import derive_seed, substream
from .surrogate import NetConfig, init_net, predict, train
from .synth_data import DataGenConfig, generate, generate_at
from .serialize import write_csv, write_manifest


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
                    sampler: SamplerConfig | None = None,
                    link: str = "sigmoid") -> BenchReport:
    """Fresh ground truth, posterior, and surrogate per J; then timed
    reference predictions vs timed surrogate forward passes on one test set."""
    if sampler is None:
        sampler = SamplerConfig()
    rows = []
    for J in sorted(J_list):
        child = derive_seed(seed, f"sweep-j{J}")
        spec = ModelSpec(J=J, link=link)
        truth = sample_ground_truth(spec, substream(child, "bm-truth"))
        X_obs, y_obs = generate_observed(spec, truth, n_observed, substream(child, "bm-data"))
        scfg = replace(sampler, samples=M, seed=child)
        draws = sample_posterior(spec, X_obs, y_obs, scfg)

        ncfg = replace(net_cfg, input_dim=J, output_dim=M, seed=child)
        acfg = replace(al_cfg, seed=child)
        net, records = al_train(spec, draws, acfg, ncfg)

        X_test = substream(child, "bench").random((N_test, J))
        labels = predict_batch(spec, draws, X_test)

        predict_batch_timed(spec, draws, X_test, threads)  # warm-up, untimed
        bm_times = [predict_batch_timed(spec, draws, X_test, threads).wall_time
                    for _ in range(reps)]

        predict(net, X_test)  # warm-up
        nn_times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            preds = predict(net, X_test)
            nn_times.append(time.perf_counter() - t0)

        test_mse = float(np.mean((preds - labels) ** 2))
        rows.append({
            "J": J,
            "bm_time_s": float(np.median(bm_times)),
            "nn_time_s": float(np.median(nn_times)),
            "bm_time_min_s": float(np.min(bm_times)),
            "nn_time_min_s": float(np.min(nn_times)),
            "test_mse": test_mse,
            "final_dataset_size": records[-1].dataset_size,
            "al_rounds": records[-1].round,
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
                    sigma2: float = 0.01) -> GroundTruth:
    """Ground truth with one deliberately weak predictor: beta at the range
    minimum for weak_j, the range maximum elsewhere."""
    if not 0 <= weak_j < spec.J:
        raise ValueError("weak_j must index a predictor column")
    gamma = rng.uniform(*TRUTH_GAMMA_RANGE)
    alpha = rng.uniform(*TRUTH_ALPHA_RANGE, size=spec.J)
    beta = np.ones(spec.J)
    beta[weak_j] = 0.1
    return GroundTruth(ParamDraw(alpha=alpha, beta=beta, gamma=float(gamma),
                                 sigma2=float(sigma2)))


@dataclass(frozen=True)
class InvarianceConfig:
    j: int = 0
    tau_values: tuple = (0.8, 1.0)
    c_values: tuple = (0.0, 0.5, 1.0)
    n_mc: int = 1000
    grid_points: int = 21

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("j must be >= 0")
        if len(self.tau_values) == 0 or len(self.c_values) == 0:
            raise ValueError("tau_values and c_values must be nonempty")
        if self.n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_points)


@dataclass
class InvarianceResult:
    curves: dict
    summary: dict
    files: list


def run_invariance_suite(spec: ModelSpec, draws: PosteriorDraws,
                         inv_cfg: InvarianceConfig, net_cfgs: dict, *,
                         train_size: int = 10000, val_size: int = 2000,
                         intra_patience: int = 20, max_epochs: int = 200,
                         seed: int = 0, out_dir=None) -> InvarianceResult:
    """Train one surrogate per tau on equal-sized sets, then compare every
    net's effect curves against the reference predictor's.

    curves keys: (name, mode, c) with name 'bm' or 'tau<value>'; c is None
    for marginalized mode. summary keys: (tau, mode, c) -> max abs gap
    between the net's mean curve and the reference mean curve.
    """
    if inv_cfg.j >= spec.J:
        raise ValueError("inv_cfg.j must be < spec.J")
    missing = [t for t in inv_cfg.tau_values if t not in net_cfgs]
    if missing:
        raise ValueError(f"net_cfgs missing tau values: {missing}")

    grid = inv_cfg.grid()
    j = inv_cfg.j
    J = spec.J

    def bm_predictor(X):
        return predict_batch(spec, draws, X)

    curves = {}
    for c in inv_cfg.c_values:
        curves[("bm", "fixed", c)] = effect_curve(bm_predictor, J, j, grid,
                                                  "fixed", c=c)
    curves[("bm", "marginalized", None)] = effect_curve(
        bm_predictor, J, j, grid, "marginalized", n_mc=inv_cfg.n_mc,
        rng=substream(seed, "inv-mc"))

    val_rng = substream(seed, "inv-val")
    X_val = val_rng.random((val_size, J))
    val_set = generate_at(spec, draws, X_val)

    summary = {}
    for tau in inv_cfg.tau_values:
        dcfg = DataGenConfig(I=train_size, tau=tau, input_dist="uniform01",
                             seed=derive_seed(seed, f"inv-data-{tau}"))
        dset = generate(spec, draws, dcfg)
        net = init_net(net_cfgs[tau])
        net, _ = train(net, dset, val_set, intra_patience, max_epochs)

        def net_predictor(X, net=net):
            return predict(net, X)

        name = f"tau{tau:g}"
        for c in inv_cfg.c_values:
            cur = effect_curve(net_predictor, J, j, grid, "fixed", c=c)
            curves[(name, "fixed", c)] = cur
            ref = curves[("bm", "fixed", c)]
            summary[(tau, "fixed", c)] = float(np.max(np.abs(cur.mean - ref.mean)))
        cur = effect_curve(net_predictor, J, j, grid, "marginalized",
                           n_mc=inv_cfg.n_mc, rng=substream(seed, "inv-mc"))
        curves[(name, "marginalized", None)] = cur
        ref = curves[("bm", "marginalized", None)]
        summary[(tau, "marginalized", None)] = float(np.max(np.abs(cur.mean - ref.mean)))

    files = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for (name, mode, c), cur in curves.items():
            if mode == "fixed":
                fname = f"invariance_{name}_fixed_{c:g}.csv"
            else:
                fname = f"invariance_{name}_marginalized.csv"
            path = out_dir / fname
            write_effect_csv(cur, path)
            files.append(str(path))
    return InvarianceResult(curves, summary, files)


def write_effect_csv(curve: EffectCurve, path) -> None:
    write_csv(path, "x_j,mean,lo95,hi95",
              (f"{curve.x[k]:.17g},{curve.mean[k]:.17g},"
               f"{curve.lo95[k]:.17g},{curve.hi95[k]:.17g}" for k in range(curve.x.size)))


def write_speed_csv(report: BenchReport, path) -> None:
    write_csv(path, "J,bm_time_s,nn_time_s,test_mse,dataset_size",
              (f"{r['J']},{r['bm_time_s']:.6f},{r['nn_time_s']:.6f},"
               f"{r['test_mse']:.17g},{r['final_dataset_size']}" for r in report.rows))


def write_report_json(path, payload: dict) -> None:
    write_manifest(path, "bench_report", payload)
