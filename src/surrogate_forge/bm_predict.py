"""Reference Monte Carlo predictor over posterior draws.

The slow path every surrogate is judged against: per-draw conditional
expectations for one input, their average (the risk-minimizing estimate),
and a timed batch evaluator. One row and a cache-sized block of rows are
evaluated the same way: the J terms of every (row, draw) pair as one
C-order (J, rows, M) array, added by model_core.sum_terms. So every batch
value equals predict_draws, and a single draw's eval_mean, bit for bit,
whatever the thread count. The cost is still O(N*M*J).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model_core import ModelSpec, link_apply, sum_terms
from .posterior import PosteriorDraws


@dataclass(frozen=True)
class TimedBatchResult:
    predictions: np.ndarray
    wall_time: float
    threads_used: int


# Rows per block are chosen so one (J, rows, M) term block holds about this
# many float64 values, which keeps the block in cache while it is summed
_BLOCK_VALUES = 100_000


def _fill_rows(link, draws: PosteriorDraws, X, out) -> None:
    """out[i, m] = gamma_m + sum_j beta_mj * psi(X[i, j] * alpha_mj), for the
    rows of X, through one C-order (J, rows, M) block of terms."""
    terms = np.empty((X.shape[1], X.shape[0], len(draws)))
    np.multiply(X.T[:, :, None], draws.alpha_t[:, None, :], out=terms)
    link_apply(link, terms, out=terms)
    terms *= draws.beta_t[:, None, :]
    np.add(sum_terms(terms), draws.gamma, out=out)


def predict_draws(spec: ModelSpec, draws: PosteriorDraws, x) -> np.ndarray:
    """E[Y | x, phi_m] for every draw m, in draw order. Length M."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.J,):
        raise ValueError(f"x must have shape ({spec.J},), got {x.shape}")
    out = np.empty((1, len(draws)))
    _fill_rows(spec.link, draws, x[None, :], out)
    return out[0]


def predict_risk_min(spec: ModelSpec, draws: PosteriorDraws, x) -> float:
    """Posterior-predictive mean estimate: average of the per-draw expectations.

    fsum keeps the average exactly rounded, so degenerate draw sets recover
    the single-draw expectation to within one ulp regardless of M.
    """
    per_draw = predict_draws(spec, draws, x)
    return math.fsum(per_draw.tolist()) / per_draw.size


def _fill_blocks(link, draws, X, out, blocks):
    # takes (lo, hi) row blocks off the shared list until it is empty, so a
    # thread that gets less CPU takes fewer blocks; each value is computed
    # the same way whichever thread takes it, so the result cannot depend
    # on the thread count
    while True:
        try:
            lo, hi = blocks.pop()  # atomic, so no two threads get one block
        except IndexError:
            return
        _fill_rows(link, draws, X[lo:hi], out[lo:hi])


def predict_batch(spec: ModelSpec, draws: PosteriorDraws, X, threads: int = 1) -> np.ndarray:
    """Full N x M expectation matrix, blocks of rows shared out to threads.
    Row i equals predict_draws(spec, draws, X[i]) bit for bit."""
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
    workers = min(threads, N)
    n_blocks = min(N, max(workers, math.ceil(N * spec.J * M / _BLOCK_VALUES)))
    bounds = np.linspace(0, N, n_blocks + 1).astype(int)
    args = (spec.link, draws, X, out, list(zip(bounds[:-1], bounds[1:])))
    if workers == 1:
        _fill_blocks(*args)
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for fut in [pool.submit(_fill_blocks, *args) for _ in range(workers)]:
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
    return TimedBatchResult(predictions, wall, min(threads, X.shape[0]))

