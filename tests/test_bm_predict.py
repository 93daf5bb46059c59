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
from surrogate_forge.bm_predict import export_predictions_csv

from draw_sets import make_draws, tile_draws


class TestPredictDraws:
    def test_matches_per_draw_loop_bitwise(self, spec3, draws3):
        x = np.random.default_rng(0).random(3)
        got = predict_draws(spec3, draws3, x)
        want = np.array([eval_mean(spec3, draws3[m], x) for m in range(len(draws3))])
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
        X = np.random.default_rng(3).random((9, 3))
        out = predict_batch(spec3, draws3, X)
        assert out.shape == (9, len(draws3))
        for i in range(9):
            np.testing.assert_array_equal(out[i], predict_draws(spec3, draws3, X[i]))

    @pytest.mark.parametrize("threads", [2, 3, 5, 16])
    def test_thread_count_invariance_bitwise(self, spec3, draws3, threads):
        X = np.random.default_rng(4).random((50, 3))
        base = predict_batch(spec3, draws3, X, threads=1)
        np.testing.assert_array_equal(predict_batch(spec3, draws3, X, threads=threads), base)

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


class TestPredictBatchTimed:
    def test_draws_mode_matches_untimed(self, spec3, draws3):
        X = np.random.default_rng(6).random((12, 3))
        res = predict_batch_timed(spec3, draws3, X, threads=2)
        np.testing.assert_array_equal(res.predictions, predict_batch(spec3, draws3, X))
        assert res.wall_time >= 0.0
        assert res.threads_used == 2

    def test_risk_min_mode_reduces_over_draws(self, spec3, draws3):
        X = np.random.default_rng(7).random((12, 3))
        res = predict_batch_timed(spec3, draws3, X, threads=1, mode="risk_min")
        np.testing.assert_array_equal(
            res.predictions, predict_batch(spec3, draws3, X).mean(axis=1))

    def test_unknown_mode_rejected(self, spec3, draws3):
        with pytest.raises(ValueError):
            predict_batch_timed(spec3, draws3, np.zeros((2, 3)), mode="median")


class TestExportCsv:
    def test_draw_matrix_round_trip(self, tmp_path, spec3):
        draws = make_draws(spec3, M=4, seed=9)
        X = np.random.default_rng(8).random((6, 3))
        preds = predict_batch(spec3, draws, X)
        path = tmp_path / "p.csv"
        export_predictions_csv(path, X, preds)
        header = path.read_text().splitlines()[0]
        assert header == "x_0,x_1,x_2,y_0,y_1,y_2,y_3"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, :3], X)
        np.testing.assert_array_equal(back[:, 3:], preds)

    def test_mean_vector_header(self, tmp_path, spec3):
        draws = make_draws(spec3, M=4, seed=9)
        X = np.random.default_rng(8).random((5, 3))
        means = predict_batch(spec3, draws, X).mean(axis=1)
        path = tmp_path / "p.csv"
        export_predictions_csv(path, X, means)
        assert path.read_text().splitlines()[0] == "x_0,x_1,x_2,y_mean"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 3], means)
