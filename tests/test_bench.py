"""Benchmark harness: crossover arithmetic, effect curves, the weak-truth
builder, the invariance suite plumbing, and report serialization."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from surrogate_forge import (
    ALConfig,
    BenchConfig,
    BenchReport,
    EffectCurve,
    InvarianceConfig,
    ModelSpec,
    NetConfig,
    SamplerConfig,
    crossover,
    effect_curve,
    make_weak_truth,
    run_invariance_suite,
    run_speed_sweep,
    timing_regression,
)
import surrogate_forge.cli as cli
from surrogate_forge.config import WORKDIR_ENV
from surrogate_forge.model_core import TRUTH_ALPHA_RANGE, TRUTH_GAMMA_RANGE

from draw_sets import make_draws


class TestCrossover:
    def test_headline_value(self):
        assert crossover(20000, 2000) == 20011

    @pytest.mark.parametrize("kappa,m,expected", [
        (2, 2, 4),
        (5, 2, 10),
        (10, 11, 11),
        (1, 2, 2),
        (100, 101, 101),
        (1000, 2, 2000),
    ])
    def test_hand_values(self, kappa, m, expected):
        assert crossover(kappa, m) == expected

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            crossover(0, 5)
        with pytest.raises(ValueError):
            crossover(10, 1)
        with pytest.raises(ValueError):
            crossover(10, 0)

    @given(st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=2, max_value=10**6))
    def test_minimality_against_rational_oracle(self, kappa, m):
        n = crossover(kappa, m)
        bound = Fraction(kappa * m, m - 1)
        assert n >= bound
        assert n - 1 < bound

    def test_returns_python_int(self):
        assert isinstance(crossover(7, 3), int)


class TestEffectCurve:
    def test_identity_link_fixed_mode_closed_form(self, spec2_identity):
        # identity link: f(x) = gamma + sum_j beta_j alpha_j x_j, so the
        # relative effect of coordinate j is beta_j alpha_j x_j regardless of c
        draws = make_draws(spec2_identity, 6, seed=11)
        def predictor(X):
            from surrogate_forge import predict_batch
            return predict_batch(spec2_identity, draws, X)
        grid = np.linspace(0.0, 1.0, 9)
        for c in (0.0, 0.5, 1.0):
            cur = effect_curve(predictor, 2, 0, grid, "fixed", c=c)
            expect = np.mean(draws.beta[:, 0] * draws.alpha[:, 0]) * grid
            np.testing.assert_allclose(cur.mean, expect, rtol=1e-12, atol=1e-15)

    def test_grid_zero_gives_exact_zero(self, spec2_identity):
        draws = make_draws(spec2_identity, 4, seed=3)
        def predictor(X):
            from surrogate_forge import predict_batch
            return predict_batch(spec2_identity, draws, X)
        cur = effect_curve(predictor, 2, 1, np.array([0.0, 0.5]), "fixed", c=0.7)
        # x_j = 0 makes the probe row bitwise equal to the base row
        assert cur.mean[0] == 0.0
        assert cur.std[0] == 0.0

    def test_single_predictor_fixed_equals_marginalized(self, spec3):
        spec1 = ModelSpec(J=1, link="sine")
        draws = make_draws(spec1, 5, seed=8)
        def predictor(X):
            from surrogate_forge import predict_batch
            return predict_batch(spec1, draws, X)
        grid = np.linspace(0.0, 1.0, 7)
        fixed = effect_curve(predictor, 1, 0, grid, "fixed", c=0.3)
        marg = effect_curve(predictor, 1, 0, grid, "marginalized", n_mc=16,
                            rng=np.random.default_rng(0))
        # no other coordinates exist, so marginalizing changes nothing
        np.testing.assert_allclose(marg.mean, fixed.mean, rtol=1e-12)

    def test_band_matches_hand_computed_std(self):
        # two output columns g and 2g: mean 1.5g, ddof=1 std |g|/sqrt(2)
        def predictor(X):
            z = X[:, 0]
            return np.column_stack([z, 2.0 * z])
        grid = np.array([0.25, 0.5, 1.0])
        cur = effect_curve(predictor, 3, 0, grid, "fixed", c=0.0)
        np.testing.assert_allclose(cur.mean, 1.5 * grid, rtol=1e-15)
        np.testing.assert_allclose(cur.std, grid / math.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(cur.lo95, cur.mean - 1.96 * cur.std, rtol=1e-15)
        np.testing.assert_allclose(cur.hi95, cur.mean + 1.96 * cur.std, rtol=1e-15)

    def test_single_output_column_collapses_band(self):
        def predictor(X):
            return X[:, :1] ** 2
        grid = np.linspace(0.1, 0.9, 5)
        cur = effect_curve(predictor, 2, 0, grid, "fixed")
        np.testing.assert_array_equal(cur.std, np.zeros(5))
        np.testing.assert_array_equal(cur.lo95, cur.mean)
        np.testing.assert_array_equal(cur.hi95, cur.mean)

    def test_marginalized_averages_context(self):
        # predictor depends on the context coordinate, so marginalized mode
        # must average it out while fixed mode pins it at c
        def predictor(X):
            return (X[:, 0] * X[:, 1])[:, None]
        grid = np.array([1.0])
        rng = np.random.default_rng(42)
        ctx_mean_probe = np.random.default_rng(42).random((400, 2))[:, 1].mean()
        cur = effect_curve(predictor, 2, 0, grid, "marginalized", n_mc=400, rng=rng)
        np.testing.assert_allclose(cur.mean[0], ctx_mean_probe, rtol=1e-12)
        fixed = effect_curve(predictor, 2, 0, grid, "fixed", c=0.25)
        np.testing.assert_allclose(fixed.mean[0], 0.25, rtol=1e-15)

    def test_rejects_bad_arguments(self):
        predictor = lambda X: X[:, :1]
        with pytest.raises(ValueError):
            effect_curve(predictor, 2, 0, [], "fixed")
        with pytest.raises(ValueError):
            effect_curve(predictor, 2, 2, [0.5], "fixed")
        with pytest.raises(ValueError):
            effect_curve(predictor, 2, -1, [0.5], "fixed")
        with pytest.raises(ValueError):
            effect_curve(predictor, 2, 0, [0.5], "sideways")
        with pytest.raises(ValueError):
            effect_curve(predictor, 2, 0, [0.5], "marginalized", n_mc=0,
                         rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            effect_curve(predictor, 2, 0, [0.5], "marginalized", n_mc=10)


class TestWeakTruth:
    def test_beta_pattern(self, spec3):
        truth = make_weak_truth(spec3, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(truth.beta, [1.0, 0.1, 1.0])

    def test_other_params_in_truth_ranges(self, spec3):
        truth = make_weak_truth(spec3, 0, np.random.default_rng(5))
        lo, hi = TRUTH_ALPHA_RANGE
        assert np.all((truth.alpha >= lo) & (truth.alpha <= hi))
        glo, ghi = TRUTH_GAMMA_RANGE
        assert glo <= truth.gamma <= ghi
        assert truth.sigma2 == 0.01

    def test_sigma2_override(self, spec3):
        truth = make_weak_truth(spec3, 0, np.random.default_rng(5), sigma2=0.25)
        assert truth.sigma2 == 0.25

    def test_rejects_out_of_range_index(self, spec3):
        with pytest.raises(ValueError):
            make_weak_truth(spec3, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            make_weak_truth(spec3, -1, np.random.default_rng(0))


class TestInvarianceConfig:
    def test_grid_is_unit_linspace(self):
        cfg = InvarianceConfig(grid_points=5)
        np.testing.assert_array_equal(cfg.grid(), np.linspace(0.0, 1.0, 5))

    def test_defaults(self):
        cfg = InvarianceConfig()
        assert cfg.tau_values == (0.8, 1.0)
        assert cfg.c_values == (0.0, 0.5, 1.0)
        assert cfg.grid_points == 21

    @pytest.mark.parametrize("kw", [
        {"j": -1},
        {"tau_values": ()},
        {"c_values": ()},
        {"n_mc": 0},
        {"grid_points": 1},
        {"train_size": 0},
        {"val_size": 0},
        {"intra_patience": 0},
        {"max_epochs": 0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            InvarianceConfig(**kw)


class TestBenchConfig:
    def test_defaults(self):
        cfg = BenchConfig()
        assert cfg.J_list == (2, 5, 10, 20)
        assert (cfg.M, cfg.N_test, cfg.reps) == (200, 5000, 5)
        assert (cfg.warmup, cfg.calibration_pool) == (500, 2000)

    def test_warmup_may_be_zero(self):
        assert BenchConfig(warmup=0).warmup == 0

    @pytest.mark.parametrize("kw", [
        {"J_list": ()},
        {"J_list": (2, 0)},
        {"J_list": (2, 2.5)},
        {"J_list": (True,)},
        {"M": 0},
        {"N_test": 0},
        {"reps": 0},
        {"warmup": -1},
        {"calibration_pool": 1},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            BenchConfig(**kw)


def _tiny_net_cfg(J):
    return NetConfig(input_dim=J, hidden_width=8, output_dim=4,
                     dropout_rate=0.0, norm="none", learning_rate=1e-2,
                     batch_size=16)


class TestInvarianceSuite:
    def test_smoke_produces_curves_summary_and_files(self, tmp_path, spec2_identity):
        draws = make_draws(spec2_identity, 4, seed=2)
        inv = InvarianceConfig(j=0, tau_values=(0.5, 1.0), c_values=(0.0,),
                               n_mc=8, grid_points=5, train_size=64, val_size=16,
                               intra_patience=2, max_epochs=2, seed=9)
        res = run_invariance_suite(spec2_identity, draws, inv, _tiny_net_cfg(2),
                                   out_dir=tmp_path)
        for key in [("bm", "fixed", 0.0), ("bm", "marginalized", None),
                    ("tau0.5", "fixed", 0.0), ("tau1", "fixed", 0.0),
                    ("tau0.5", "marginalized", None)]:
            assert key in res.curves
            assert isinstance(res.curves[key], EffectCurve)
        assert set(res.summary) == {(0.5, "fixed", 0.0), (0.5, "marginalized", None),
                                    (1.0, "fixed", 0.0), (1.0, "marginalized", None)}
        assert all(v >= 0.0 for v in res.summary.values())
        assert len(res.files) == len(res.curves)
        for f in res.files:
            lines = open(f).read().splitlines()
            assert lines[0] == "x_j,mean,lo95,hi95"
            assert len(lines) == 1 + inv.grid_points

    def test_rejects_j_outside_spec(self, spec2_identity):
        draws = make_draws(spec2_identity, 4, seed=2)
        inv = InvarianceConfig(j=2, tau_values=(1.0,), c_values=(0.0,), n_mc=4)
        with pytest.raises(ValueError):
            run_invariance_suite(spec2_identity, draws, inv, _tiny_net_cfg(2))


class TestTimingRegression:
    def test_exact_linear_rows(self):
        rows = [{"J": J, "bm_time_s": 0.125 * J + 0.5, "nn_time_s": 0.01,
                 "test_mse": 0.0, "final_dataset_size": 10}
                for J in (2, 5, 10, 20)]
        fit = timing_regression(BenchReport(rows))
        assert fit["r2"] > 1.0 - 1e-12
        np.testing.assert_allclose(fit["slope"], 0.125, rtol=1e-10)
        np.testing.assert_allclose(fit["intercept"], 0.5, rtol=1e-10)

    def test_rows_sorted_by_J(self):
        rows = [{"J": J, "bm_time_s": 0.0} for J in (10, 2, 20, 5)]
        report = BenchReport(rows)
        assert [r["J"] for r in report.rows] == [2, 5, 10, 20]


class TestSpeedSweepSmoke:
    def test_tiny_sweep_row_contents(self):
        net_cfg = NetConfig(input_dim=1, hidden_width=8, output_dim=1,
                            dropout_rate=0.5, norm="none", learning_rate=1e-2,
                            batch_size=16)
        al_cfg = ALConfig(I_init=40, I_al=10, K=3, pool_size=20,
                          inter_patience=1, intra_patience=2, val_size=16,
                          max_rounds=1, max_epochs=2)
        sampler = SamplerConfig(warmup=20, samples=8, seed=0)
        report = run_speed_sweep([2], 8, 50, net_cfg, al_cfg, seed=12,
                                 threads=1, reps=2, n_observed=40,
                                 sampler=sampler)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["J"] == 2
        assert row["bm_time_s"] > 0.0
        assert row["nn_time_s"] > 0.0
        assert row["test_mse"] >= 0.0
        assert row["final_dataset_size"] >= al_cfg.I_init
        assert report.env["threads"] == 1
        assert report.env["M"] == 8


class TestReportFiles:
    def test_speed_csv_layout(self, tmp_path, monkeypatch):
        # bench speed writes one line per row of the sweep's report
        rows = [{"J": 2, "bm_time_s": 0.5, "nn_time_s": 0.25,
                 "test_mse": 1e-3, "final_dataset_size": 120},
                {"J": 5, "bm_time_s": 1.0, "nn_time_s": 0.3,
                 "test_mse": 2e-3, "final_dataset_size": 140}]
        monkeypatch.delenv(WORKDIR_ENV, raising=False)
        monkeypatch.setattr(cli.bench_mod, "run_speed_sweep", lambda *a, **kw: BenchReport(rows))
        assert cli.main(["bench", "speed", "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "bench" / "speed_sweep.csv").read_text().splitlines()
        assert lines[0] == "J,bm_time_s,nn_time_s,test_mse,dataset_size"
        assert lines[1].startswith("2,0.5,0.25,")
        assert lines[1].endswith(",120")
        assert len(lines) == 3

    def test_effect_csv_round_trips(self, tmp_path, spec2_identity):
        # each invariance file holds its curve's x_j, mean and 95% band
        draws = make_draws(spec2_identity, 4, seed=2)
        inv = InvarianceConfig(j=0, tau_values=(1.0,), c_values=(0.0,), n_mc=8,
                               grid_points=5, train_size=64, val_size=16,
                               intra_patience=2, max_epochs=2, seed=9)
        res = run_invariance_suite(spec2_identity, draws, inv, _tiny_net_cfg(2),
                                   out_dir=tmp_path)
        assert len(res.files) == len(res.curves)
        for path, cur in zip(res.files, res.curves.values()):
            assert open(path).readline() == "x_j,mean,lo95,hi95\n"
            got = np.loadtxt(path, delimiter=",", skiprows=1)
            np.testing.assert_array_equal(got[:, 0], cur.x)
            np.testing.assert_array_equal(got[:, 1], cur.mean)
            np.testing.assert_array_equal(got[:, 2], cur.lo95)
            np.testing.assert_array_equal(got[:, 3], cur.hi95)
