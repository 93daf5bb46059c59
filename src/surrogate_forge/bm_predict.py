"""Reference Monte Carlo predictor over posterior draws.

The slow path every surrogate is judged against: per-draw conditional
expectations for one input, their average (the risk-minimizing estimate),
and a timed batch evaluator. The batch kernel splits the rows across
threads and sweeps cache-sized blocks of rows once per input, adding the J
terms in numpy's pairwise-sum order, so every value equals predict_draws
bit for bit. The cost is still O(N*M*J), in fewer passes over memory.
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


# Rows per block are chosen so one (rows, M) scratch array holds about this
# many float64 values: the J passes over a block then stay in cache.
_BLOCK_VALUES = 50_000
_PAIRWISE_LEAF = 128  # numpy's pairwise-sum block size


def _scratch_count(n: int) -> int:
    """Scratch arrays _sum_terms needs besides its target to sum n terms."""
    if n < 8:
        return 1
    if n <= _PAIRWISE_LEAF:
        return 4
    n2 = n // 2 - (n // 2) % 8
    return max(_scratch_count(n2), 1 + _scratch_count(n - n2))


def _term(link, xb, alpha_t, beta_t, j, dst):
    # beta_mj * psi(x_ij * alpha_mj) for every row i of the block and draw m
    np.multiply.outer(xb[:, j], alpha_t[j], out=dst)
    link_apply(link, dst, out=dst)
    dst *= beta_t[j]


def _strided_sum(link, xb, alpha_t, beta_t, js, dst, tmp):
    # terms js summed left to right into dst
    _term(link, xb, alpha_t, beta_t, js[0], dst)
    for j in js[1:]:
        _term(link, xb, alpha_t, beta_t, j, tmp)
        dst += tmp


def _sum_terms(link, xb, alpha_t, beta_t, j0, n, dst, scratch):
    """dst = terms j0 .. j0+n-1 summed in the order numpy's pairwise sum
    adds a contiguous row of n values, so the result equals np.sum over
    the J axis bit for bit. The accumulators are built one after another,
    depth first, which keeps only len(scratch) blocks alive."""
    args = (link, xb, alpha_t, beta_t)
    if n < 8:
        _strided_sum(*args, range(j0, j0 + n), dst, scratch[0])
        return
    if n > _PAIRWISE_LEAF:
        n2 = n // 2 - (n // 2) % 8
        _sum_terms(*args, j0, n2, dst, scratch)
        _sum_terms(*args, j0 + n2, n - n2, scratch[0], scratch[1:])
        dst += scratch[0]
        return
    # eight stride-8 accumulators r0..r7, combined as
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in order
    tmp, a, b, c = scratch[:4]
    stop = j0 + n - n % 8
    for k0, acc in ((0, dst), (4, a)):
        _strided_sum(*args, range(j0 + k0, stop, 8), acc, tmp)
        _strided_sum(*args, range(j0 + k0 + 1, stop, 8), b, tmp)
        acc += b
        _strided_sum(*args, range(j0 + k0 + 2, stop, 8), b, tmp)
        _strided_sum(*args, range(j0 + k0 + 3, stop, 8), c, tmp)
        b += c
        acc += b
    dst += a
    for j in range(stop, j0 + n):
        _term(*args, j, tmp)
        dst += tmp


def _fill_blocks(link, alpha_t, beta_t, gamma, X, out, blocks, rows):
    # takes (lo, hi) row blocks off the shared list until it is empty, so a
    # thread that gets less CPU takes fewer blocks; each value is computed
    # the same way whichever thread takes it, so the result cannot depend
    # on the thread count
    scratch = [np.empty((rows, out.shape[1])) for _ in range(_scratch_count(X.shape[1]))]
    while True:
        try:
            lo, hi = blocks.pop()  # atomic, so no two threads get one block
        except IndexError:
            return
        dst = out[lo:hi]
        _sum_terms(link, X[lo:hi], alpha_t, beta_t, 0, X.shape[1], dst,
                   [s[:hi - lo] for s in scratch])
        dst += gamma


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
    n_blocks = min(N, max(workers, math.ceil(N * M / _BLOCK_VALUES)))
    bounds = np.linspace(0, N, n_blocks + 1).astype(int)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    # np.sum adds its row to a starting +0.0, which only turns a -0.0 sum
    # into +0.0; adding that 0.0 to gamma instead gives the same final bits
    args = (spec.link, np.ascontiguousarray(draws.alpha.T), np.ascontiguousarray(draws.beta.T),
            draws.gamma + 0.0, X, out, blocks, int(np.max(np.diff(bounds))))
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

