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
from surrogate_forge.model_core import VALID_LINKS, link_apply

from draw_sets import halving_sum, make_draws, tile_draws

# J around powers of two, where the halving tree changes shape, and M
# down to one draw, where every term block has a single column
SWEPT_JS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 20, 129)
SWEPT_MS = (1, 2, 257)


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

    def test_risk_min_is_exactly_rounded_mean_of_draws(self, spec3):
        from fractions import Fraction

        # at M = 257, np.sum and a left-to-right sum miss the exact sum on some rows
        X = np.random.default_rng(1).random((20, 3))
        for M in SWEPT_MS:
            draws = make_draws(spec3, M, seed=M)
            for x in X:
                per_draw = predict_draws(spec3, draws, x)
                got = predict_risk_min(spec3, draws, x)
                # the exactly rounded sum of the M values, then one division by M
                assert got == float(sum(map(Fraction, per_draw.tolist()))) / M, f"M={M}"
                assert got == pytest.approx(float(np.mean(per_draw)), rel=1e-14), f"M={M}"

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

    def test_single_draw_column_equals_eval_mean_bitwise(self):
        # eval_mean sums a (J, 1) block, predict_draws a (J, 1, M) one; both
        # must add the J terms in the same order, the pure-Python one
        for link in VALID_LINKS:
            for J in SWEPT_JS:
                spec = ModelSpec(J=J, link=link)
                src = make_draws(spec, 3, seed=J)
                X = _gaussian_inputs(4, J, seed=J)
                for m in range(3):
                    draw = ParamDraw(alpha=src.alpha[m], beta=src.beta[m],
                                     gamma=float(src.gamma[m]), sigma2=float(src.sigma2[m]))
                    tiled = tile_draws(spec, draw, 5)
                    for x in X:
                        want = eval_mean(spec, draw, x)
                        terms = link_apply(link, x * draw.alpha) * draw.beta
                        assert want == draw.gamma + halving_sum(terms), f"{link} J={J}"
                        np.testing.assert_array_equal(
                            predict_draws(spec, tiled, x), np.full(5, want),
                            err_msg=f"{link} J={J}")
                        assert predict_draws(spec, src, x)[m] == want, f"{link} J={J}"

    def test_input_validation(self, spec3, draws3):
        with pytest.raises(ValueError):
            predict_draws(spec3, draws3, np.zeros(4))


class TestPredictBatch:
    def test_rows_match_single_draw_vector_bitwise(self, spec3, draws3):
        # a row's terms are summed the same way in a block of many rows as
        # alone, across at least two row blocks
        X = np.random.default_rng(3).random((9, 3))
        out = predict_batch(spec3, draws3, X)
        assert out.shape == (9, len(draws3))
        for i in range(9):
            np.testing.assert_array_equal(out[i], predict_draws(spec3, draws3, X[i]))
        for link in VALID_LINKS:
            for J in SWEPT_JS:
                for M in SWEPT_MS:
                    spec = ModelSpec(J=J, link=link)
                    draws = make_draws(spec, M, seed=J)
                    N = _BLOCK_VALUES // (J * M) + 3
                    X = _gaussian_inputs(N, J, seed=J)
                    for threads in (1, 2, 3):
                        out = predict_batch(spec, draws, X, threads)
                        for i in [*range(0, N, max(1, N // 20)), N - 1]:
                            np.testing.assert_array_equal(
                                out[i], predict_draws(spec, draws, X[i]),
                                err_msg=f"{link} J={J} M={M} threads={threads} row {i}")

    @pytest.mark.parametrize("threads", [2, 3, 5, 16])
    def test_thread_count_invariance_bitwise(self, spec3, draws3, threads):
        X = np.random.default_rng(4).random((50, 3))
        base = predict_batch(spec3, draws3, X, threads=1)
        np.testing.assert_array_equal(predict_batch(spec3, draws3, X, threads=threads), base)
        for link in VALID_LINKS:
            for J in SWEPT_JS:
                for M in SWEPT_MS:
                    spec = ModelSpec(J=J, link=link)
                    draws = make_draws(spec, M, seed=J + 1)
                    X = _gaussian_inputs(50, J, seed=J + 1)
                    np.testing.assert_array_equal(
                        predict_batch(spec, draws, X, threads=threads),
                        predict_batch(spec, draws, X, threads=1),
                        err_msg=f"{link} J={J} M={M}")

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
        # no (N, M, J) temporary, only one (J, rows, M) term block per thread,
        # and none left for the garbage collector: with it off, blocks held
        # in cycles would pile up
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
