"""Reference Monte Carlo predictor over posterior draws.

The slow path every surrogate is judged against: per-draw conditional
expectations for one input, their average (the risk-minimizing estimate),
and a timed batch evaluator that parallelizes over the draw axis.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model_core import ModelSpec, link_apply
from .posterior import PosteriorDraws


@dataclass(frozen=True)
class TimedBatchResult:
    predictions: np.ndarray
    wall_time: float
    threads_used: int


def predict_draws(spec: ModelSpec, draws: PosteriorDraws, x) -> np.ndarray:
    """E[Y | x, phi_m] for every draw m, in draw order. Length M."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.J,):
        raise ValueError(f"x must have shape ({spec.J},), got {x.shape}")
    psi = link_apply(spec.link, draws.alpha * x)
    return draws.gamma + np.sum(psi * draws.beta, axis=1)


def predict_risk_min(spec: ModelSpec, draws: PosteriorDraws, x) -> float:
    """Posterior-predictive mean estimate: average of the per-draw expectations.

    fsum keeps the average exactly rounded, so degenerate draw sets recover
    the single-draw expectation to within one ulp regardless of M.
    """
    per_draw = predict_draws(spec, draws, x)
    return math.fsum(per_draw) / per_draw.size


def _fill_columns(spec, draws, X, out, m_lo, m_hi):
    # one column per draw, written disjointly, so the result cannot depend
    # on how draws were partitioned across threads
    for m in range(m_lo, m_hi):
        psi = link_apply(spec.link, X * draws.alpha[m])
        out[:, m] = draws.gamma[m] + np.sum(psi * draws.beta[m], axis=1)


def predict_batch(spec: ModelSpec, draws: PosteriorDraws, X, threads: int = 1) -> np.ndarray:
    """Full N x M expectation matrix, draw axis partitioned across threads."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.J:
        raise ValueError(f"X must be (N, {spec.J})")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    N = X.shape[0]
    M = len(draws)
    out = np.empty((N, M), dtype=float)
    if N == 0:
        return out
    workers = min(threads, M)
    if workers == 1:
        _fill_columns(spec, draws, X, out, 0, M)
        return out
    bounds = np.linspace(0, M, workers + 1).astype(int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_fill_columns, spec, draws, X, out, bounds[k], bounds[k + 1])
            for k in range(workers)
        ]
        for fut in futures:
            fut.result()
    return out


def predict_batch_timed(spec: ModelSpec, draws: PosteriorDraws, X,
                        threads: int = 1, mode: str = "draws") -> TimedBatchResult:
    """Timed batch prediction. mode 'draws' keeps the N x M matrix,
    'risk_min' averages over draws to an N vector. Timing excludes I/O."""
    if mode not in ("draws", "risk_min"):
        raise ValueError("mode must be 'draws' or 'risk_min'")
    X = np.asarray(X, dtype=float)
    t0 = time.perf_counter()
    mat = predict_batch(spec, draws, X, threads)
    if mode == "risk_min":
        predictions = np.mean(mat, axis=1)
    else:
        predictions = mat
    wall = time.perf_counter() - t0
    return TimedBatchResult(predictions, wall, min(threads, len(draws)))

