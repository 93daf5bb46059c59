import gc
import tracemalloc

import numpy as np
import pytest

from surrogate_forge import (
    ModelSpec,
    ParamDraw,
    eval_mean,
    predict_batch,
    predict_batch_timed,
    predict_draws,
    predict_risk_min,
)

from surrogate_forge.bm_predict import _BLOCK_VALUES
from surrogate_forge.model_core import VALID_LINKS

from draw_sets import make_draws, tile_draws

# numpy sums a row of n < 8 values in order, 8..128 values in eight stride-8
# accumulators, and longer rows in halves; these J cover every branch
PAIRWISE_JS = (1, 7, 8, 9, 15, 16, 17, 20, 129)


def _gaussian_inputs(N, J, seed):
    """Standard Gaussian rows with a fifth of the entries set to 0."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, J))
    X[rng.random((N, J)) < 0.2] = 0.0
    return X


class TestPredictDraws:
    def test_matches_per_draw_loop_bitwise(self, spec3, draws3):
        x = np.random.default_rng(0).random(3)
        got = predict_draws(spec3, draws3, x)
        per_draw = [ParamDraw(alpha=draws3.alpha[m], beta=draws3.beta[m],
                              gamma=float(draws3.gamma[m]), sigma2=float(draws3.sigma2[m]))
                    for m in range(len(draws3))]
        want = np.array([eval_mean(spec3, d, x) for d in per_draw])
        np.testing.assert_array_equal(got, want)

    def test_risk_min_is_exactly_rounded_mean_of_draws(self, spec3, draws3):
        import math

        x = np.random.default_rng(1).random(3)
        per_draw = predict_draws(spec3, draws3, x)
        got = predict_risk_min(spec3, draws3, x)
        assert got == math.fsum(per_draw) / per_draw.size
        assert got == pytest.approx(float(np.mean(per_draw)), rel=1e-14)

    def test_degenerate_dyadic_case_is_exact(self):
        # identity link with dyadic parameters: every per-draw value and
        # every partial sum is representable, so the average is exact
        spec = ModelSpec(J=2, link="identity")
        draw = ParamDraw(alpha=np.array([1.0, 2.0]), beta=np.array([0.5, 0.25]),
                         gamma=0.125, sigma2=0.01)
        x = np.array([2.0, 4.0])
        for M in (3, 37, 200):
            draws = tile_draws(spec, draw, M)
            assert predict_risk_min(spec, draws, x) == eval_mean(spec, draw, x)

    @pytest.mark.parametrize("seed,M", [(0, 37), (2, 200), (6, 200), (9, 37)])
    def test_degenerate_draws_recover_eval_mean_to_one_ulp(self, spec3, seed, M):
        rng = np.random.default_rng(seed)
        draw = ParamDraw(alpha=rng.uniform(0.3, 3, 3), beta=rng.uniform(0.1, 1, 3),
                         gamma=0.2, sigma2=0.01)
        draws = tile_draws(spec3, draw, M)
        x = rng.random(3)
        got = predict_risk_min(spec3, draws, x)
        want = eval_mean(spec3, draw, x)
        assert abs(got - want) <= np.spacing(abs(want))

    def test_input_validation(self, spec3, draws3):
        with pytest.raises(ValueError):
            predict_draws(spec3, draws3, np.zeros(4))


class TestPredictBatch:
    def test_rows_match_single_draw_vector_bitwise(self, spec3, draws3):
        # predict_draws reduces with np.sum, so this pins the batch kernel's
        # accumulation order to numpy's pairwise one, across two row blocks
        X = np.random.default_rng(3).random((9, 3))
        out = predict_batch(spec3, draws3, X)
        assert out.shape == (9, len(draws3))
        for i in range(9):
            np.testing.assert_array_equal(out[i], predict_draws(spec3, draws3, X[i]))
        M = 257
        N = _BLOCK_VALUES // M + 3
        for link in VALID_LINKS:
            for J in PAIRWISE_JS:
                spec = ModelSpec(J=J, link=link)
                draws = make_draws(spec, M, seed=J)
                X = _gaussian_inputs(N, J, seed=J)
                for threads in (1, 2, 3):
                    out = predict_batch(spec, draws, X, threads)
                    for i in range(0, N, 7):
                        np.testing.assert_array_equal(
                            out[i], predict_draws(spec, draws, X[i]),
                            err_msg=f"{link} J={J} threads={threads} row {i}")

    @pytest.mark.parametrize("threads", [2, 3, 5, 16])
    def test_thread_count_invariance_bitwise(self, spec3, draws3, threads):
        X = np.random.default_rng(4).random((50, 3))
        base = predict_batch(spec3, draws3, X, threads=1)
        np.testing.assert_array_equal(predict_batch(spec3, draws3, X, threads=threads), base)
        for link in VALID_LINKS:
            for J in PAIRWISE_JS:
                spec = ModelSpec(J=J, link=link)
                draws = make_draws(spec, 97, seed=J + 1)
                X = _gaussian_inputs(50, J, seed=J + 1)
                np.testing.assert_array_equal(
                    predict_batch(spec, draws, X, threads=threads),
                    predict_batch(spec, draws, X, threads=1), err_msg=f"{link} J={J}")

    def test_more_threads_than_draws(self, spec3, draws3):
        X = np.random.default_rng(5).random((4, 3))
        np.testing.assert_array_equal(
            predict_batch(spec3, draws3, X, threads=len(draws3) + 7),
            predict_batch(spec3, draws3, X, threads=1))

    def test_empty_batch(self, spec3, draws3):
        out = predict_batch(spec3, draws3, np.zeros((0, 3)))
        assert out.shape == (0, len(draws3))

    def test_thread_validation(self, spec3, draws3):
        with pytest.raises(ValueError):
            predict_batch(spec3, draws3, np.zeros((2, 3)), threads=0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_is_the_output_plus_scratch(self, threads):
        # no (N, M, J) temporary, and no block buffers left for the garbage
        # collector: with it off, buffers held in cycles would pile up
        spec = ModelSpec(J=20)
        draws = make_draws(spec, M=200, seed=5)
        X = _gaussian_inputs(5000, 20, seed=5)
        predict_batch(spec, draws, X, threads)
        gc.disable()
        tracemalloc.start()
        try:
            predict_batch(spec, draws, X, threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak <= 5000 * 200 * 8 + 4 * 2**20


class TestPredictBatchTimed:
    def test_draws_mode_matches_untimed(self, spec3, draws3):
        X = np.random.default_rng(6).random((12, 3))
        res = predict_batch_timed(spec3, draws3, X, threads=2)
        np.testing.assert_array_equal(res.predictions, predict_batch(spec3, draws3, X))
        assert res.wall_time >= 0.0
        assert res.threads_used == 2

    def test_one_row_batch_uses_one_worker(self, spec3, draws3):
        res = predict_batch_timed(spec3, draws3, np.ones((1, 3)), threads=4)
        assert res.threads_used == 1
        np.testing.assert_array_equal(res.predictions[0], predict_draws(spec3, draws3, np.ones(3)))

    def test_risk_min_mode_reduces_over_draws(self, spec3, draws3):
        X = np.random.default_rng(7).random((12, 3))
        res = predict_batch_timed(spec3, draws3, X, threads=1, mode="risk_min")
        np.testing.assert_array_equal(
            res.predictions, predict_batch(spec3, draws3, X).mean(axis=1))

    def test_unknown_mode_rejected(self, spec3, draws3):
        with pytest.raises(ValueError):
            predict_batch_timed(spec3, draws3, np.zeros((2, 3)), mode="median")
