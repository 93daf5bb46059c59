"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL line straight to the terminal
(bypassing capture) so the gate's verdict is visible in any run log.
Budgets assume a 4-core desk machine; this suite also fits on one core.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import spearmanr

import surrogate_forge as sf
from surrogate_forge.cli import EXIT_OK, main as cli_main
from surrogate_forge.config import WORKDIR_ENV
from surrogate_forge.posterior import effective_sample_size

from draw_sets import make_draws, tile_draws


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(num: int, name: str):
        ok = False
        t0 = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            dt = time.perf_counter() - t0
            with capsys.disabled():
                print(f"[criterion {num:02d}] {name}: "
                      f"{'PASS' if ok else 'FAIL'} ({dt:.1f}s)")
    return _criterion


# one sweep feeds criteria 1 and 2; cached so a rerun of either test is free
_SWEEP = {}


def _sweep_report() -> sf.BenchReport:
    if "report" not in _SWEEP:
        net_cfg = sf.NetConfig(input_dim=2, hidden_width=256, output_dim=200,
                               dropout_rate=0.5, learning_rate=3e-3,
                               batch_size=256)
        al_cfg = sf.ALConfig(I_init=6000, I_al=800, K=12, pool_size=800,
                             inter_patience=2, intra_patience=6, val_size=1200,
                             max_rounds=6, max_epochs=40)
        sampler = sf.SamplerConfig(warmup=400, samples=200)
        _SWEEP["report"] = sf.run_speed_sweep(
            [2, 5, 10, 20], 200, 5000, net_cfg, al_cfg, seed=17, threads=1,
            reps=5, n_observed=1000, sampler=sampler)
    return _SWEEP["report"]


def test_01_reference_time_linear_in_J_surrogate_flat(criterion):
    with criterion(1, "timing shape: reference linear in J, surrogate flat"):
        report = _sweep_report()
        fit = sf.timing_regression(report)
        assert fit["slope"] > 0.0, f"slope {fit['slope']} not positive"
        assert fit["r2"] > 0.9, f"R^2 {fit['r2']} <= 0.9"
        times = {r["J"]: r["nn_time_s"] for r in report.rows}
        ratio = times[20] / times[2]
        assert ratio <= 1.5, f"surrogate J=20/J=2 time ratio {ratio} > 1.5"


def test_02_surrogate_fidelity_across_sweep(criterion):
    with criterion(2, "surrogate test MSE <= 5e-3 for every J"):
        report = _sweep_report()
        for row in report.rows:
            assert row["test_mse"] <= 5e-3, (
                f"J={row['J']} test MSE {row['test_mse']:.3e} > 5e-3")


def test_03_active_learning_dataset_floor(criterion, spec2_identity):
    with criterion(3, "AL floor: default final size >= 20000, equality reachable"):
        # exact integer arithmetic on the default loop bounds
        default = sf.ALConfig()
        assert default.I_init == 10000
        assert default.I_al == 1000
        assert default.inter_patience == 10
        floor = sf.min_final_dataset_size(default)
        assert floor == 20000
        assert floor == default.I_init + default.inter_patience * default.I_al
        # equality is reached when validation never improves: freeze the
        # optimizer so every round ties and the loop stops at the floor
        draws = make_draws(spec2_identity, 3, seed=1)
        cfg = sf.ALConfig(I_init=40, I_al=10, K=2, pool_size=20,
                          inter_patience=3, intra_patience=2, val_size=16,
                          max_rounds=50, max_epochs=5, seed=4)
        net_cfg = sf.NetConfig(input_dim=2, hidden_width=4, output_dim=3,
                               dropout_rate=0.5, norm="none",
                               learning_rate=0.0, batch_size=16, seed=4)
        net, records = sf.al_train(spec2_identity, draws, cfg, net_cfg)
        assert records[-1].dataset_size == sf.min_final_dataset_size(cfg) == 70
        sizes = [r.dataset_size for r in records]
        assert all(s >= cfg.I_init for s in sizes)


def test_04_uncertainty_tracks_prediction_error(criterion):
    with criterion(4, "Spearman(sigma, mu_RMSE) > 0.2 on 2000-row pool"):
        spec = sf.ModelSpec(J=5)
        truth = sf.sample_ground_truth(spec, sf.substream(5, "bm-truth"))
        X, y = sf.generate_observed(spec, truth, 800, sf.substream(5, "bm-data"))
        draws = sf.sample_posterior(
            spec, X, y, sf.SamplerConfig(warmup=300, samples=100, seed=5))
        dset = sf.generate(spec, draws, sf.DataGenConfig(I=4000, tau=0.8, seed=5))
        ncfg = sf.NetConfig(input_dim=5, hidden_width=128, output_dim=100,
                            dropout_rate=0.5, learning_rate=3e-3,
                            batch_size=256, seed=5)
        net, _, _ = sf.train_new(spec, draws, dset, ncfg,
                                 sf.ALConfig(val_size=1000, intra_patience=8,
                                             max_epochs=60, seed=5))
        pool = sf.substream(5, "al-pool").random((2000, 5))
        sigma, mu_rmse = sf.calibration_data(net, spec, draws, pool, 25,
                                             sf.substream(5, "al-score"))
        rho = float(spearmanr(sigma, mu_rmse).statistic)
        assert rho > 0.2, f"spearman {rho:.4f} <= 0.2"


def test_05_crossover_exact_arithmetic(criterion):
    with criterion(5, "crossover(20000, 2000) == 20011 by rational bound"):
        n = sf.crossover(20000, 2000)
        assert n == 20011
        bound = Fraction(20000 * 2000, 2000 - 1)
        assert n >= bound
        assert n - 1 < bound
        # same statement in pure integers: n(m-1) >= km and (n-1)(m-1) < km
        assert 20011 * 1999 >= 20000 * 2000
        assert 20010 * 1999 < 20000 * 2000


def test_06_loss_unit_suite_and_branch_continuity(criterion):
    with criterion(6, "smooth L1 values and branch continuity at |d| = 1"):
        assert sf.smooth_l1(np.zeros(1), np.zeros(1)) == 0.0
        assert sf.smooth_l1(np.array([0.5]), np.array([0.0])) == 0.125
        assert sf.smooth_l1(np.array([2.0]), np.array([0.0])) == 1.5
        assert sf.smooth_l1(np.array([0.0, 2.0]), np.array([0.0, 0.0])) == 0.75
        # both branch formulas agree at the switch point
        assert abs(0.5 * 1.0 ** 2 - (1.0 - 0.5)) <= 1e-12
        at = sf.smooth_l1(np.array([1.0]), np.array([0.0]))
        assert abs(at - 0.5) <= 1e-12
        below = sf.smooth_l1(np.array([1.0 - 1e-13]), np.array([0.0]))
        above = sf.smooth_l1(np.array([1.0 + 1e-13]), np.array([0.0]))
        assert abs(below - at) <= 1e-12
        assert abs(above - at) <= 1e-12


def test_07_gradients_match_finite_differences(criterion):
    with criterion(7, "grad check < 1e-5 on 20 random toy nets"):
        rng = np.random.default_rng(0)
        norms = ("none", "layer", "batch")
        acts = ("relu", "tanh")
        worst = 0.0
        for i in range(20):
            J = int(rng.integers(1, 5))
            H = int(rng.integers(2, 9))
            M = int(rng.integers(1, 6))
            cfg = sf.NetConfig(input_dim=J, hidden_width=H, output_dim=M,
                               dropout_rate=0.0,
                               norm=norms[i % 3], activation=acts[i % 2],
                               seed=int(rng.integers(0, 2 ** 31)))
            net = sf.init_net(cfg)
            x = rng.random(J)
            y = rng.standard_normal(M)
            err = sf.grad_check(net, x, y)
            worst = max(worst, err)
            assert err < 1e-5, f"net {i}: gradient error {err:.3e}"
        assert worst < 1e-5


def test_08_sampler_matches_conjugate_oracle(criterion):
    with criterion(8, "posterior mean within 3 MCSE, variance within 20%"):
        spec = sf.ModelSpec(J=3, link="identity")
        rng = np.random.default_rng(42)
        X = rng.standard_normal((500, 3))
        beta_true = np.array([0.6, 0.2, 0.9])
        s2 = 0.05
        y = 0.1 + X @ beta_true + rng.standard_normal(500) * np.sqrt(s2)
        cfg = sf.SamplerConfig(warmup=2000, samples=2000, seed=3)
        draws = sf.sample_posterior(spec, X, y, cfg,
                                    fix_alpha=np.ones(3), fix_sigma2=s2)
        # with alpha and sigma^2 pinned, (beta, gamma) is Gaussian-linear
        Phi = np.column_stack([X, np.ones(500)])
        m0 = np.array([0.5, 0.5, 0.5, 0.0])
        v0 = np.array([0.25, 0.25, 0.25, 0.5])
        mean, cov = sf.analytic_conjugate_posterior(Phi, y, s2, m0, v0)
        samp = np.column_stack([draws.beta, draws.gamma])
        for k in range(4):
            ess = effective_sample_size(samp[:, k])
            mcse = samp[:, k].std(ddof=1) / np.sqrt(ess)
            dev = abs(samp[:, k].mean() - mean[k])
            assert dev <= 3.0 * mcse, (
                f"coordinate {k}: |mean error| {dev:.2e} > 3 MCSE {3 * mcse:.2e}")
            var_rel = abs(samp[:, k].var(ddof=1) - cov[k, k]) / cov[k, k]
            assert var_rel <= 0.20, (
                f"coordinate {k}: variance off by {var_rel:.1%} > 20%")


def test_09_degenerate_draws_and_thread_invariance(criterion, spec3, draws3):
    with criterion(9, "identical draws reproduce the single-draw mean to 1 ulp; "
                      "thread count never changes bits"):
        for seed, M in ((0, 37), (2, 200), (6, 200), (9, 37)):
            src = make_draws(spec3, 1, seed=seed)
            draw = sf.ParamDraw(alpha=src.alpha[0], beta=src.beta[0],
                                gamma=float(src.gamma[0]),
                                sigma2=float(src.sigma2[0]))
            dup = tile_draws(spec3, draw, M)
            x = np.random.default_rng(seed + 100).random(3)
            expected = sf.eval_mean(spec3, draw, x)
            got = sf.predict_risk_min(spec3, dup, x)
            assert abs(got - expected) <= np.spacing(abs(expected)), (
                f"seed {seed} M {M}: off by "
                f"{abs(got - expected) / np.spacing(abs(expected)):.1f} ulp")
        X = np.random.default_rng(7).random((101, 3))
        base = sf.predict_batch_timed(spec3, draws3, X, 1)
        for threads in (2, 3, 4):
            other = sf.predict_batch_timed(spec3, draws3, X, threads)
            np.testing.assert_array_equal(other.predictions, base.predictions)
            assert other.threads_used == min(threads, X.shape[0])


def test_10_masking_teaches_weak_predictor_effects(criterion):
    with criterion(10, "tau=0.8 net beats tau=1.0 net on the weak-predictor "
                       "fixed curve in >= 4 of 5 reps"):
        def one_rep(rep_seed: int) -> bool:
            spec = sf.ModelSpec(J=3)
            truth = sf.make_weak_truth(spec, 0, sf.substream(rep_seed, "bm-truth"))
            X, y = sf.generate_observed(spec, truth, 800,
                                        sf.substream(rep_seed, "bm-data"))
            draws = sf.sample_posterior(
                spec, X, y,
                sf.SamplerConfig(warmup=300, samples=100, seed=rep_seed))
            inv = sf.InvarianceConfig(j=0, tau_values=(0.8, 1.0),
                                      c_values=(0.0,), n_mc=200, grid_points=21,
                                      train_size=12000, val_size=1500,
                                      intra_patience=12, max_epochs=150, seed=rep_seed)
            ncfg = sf.NetConfig(input_dim=3, hidden_width=128, output_dim=100,
                                dropout_rate=0.5, learning_rate=3e-3,
                                batch_size=256, seed=rep_seed)
            res = sf.run_invariance_suite(spec, draws, inv, ncfg)
            return res.summary[(0.8, "fixed", 0.0)] < res.summary[(1.0, "fixed", 0.0)]

        wins = sum(one_rep(s) for s in (301, 302, 303, 304, 305))
        assert wins >= 4, f"masked net won only {wins} of 5 repetitions"


def test_11_artifacts_reproduce_byte_for_byte(criterion, tmp_path, monkeypatch):
    with criterion(11, "fit-bm and train byte-identical across same-seed runs"):
        monkeypatch.delenv(WORKDIR_ENV, raising=False)
        doc = {
            "seed": 7,
            "threads": 1,
            "model": {"J": 2, "n_observed": 60, "truth_sigma2": 0.01},
            "sampler": {"warmup": 50, "samples": 20},
            "datagen": {"I": 64, "tau": 0.8},
            "net": {"hidden_width": 8, "norm": "none", "learning_rate": 1e-2,
                    "batch_size": 16},
            "al": {"I_init": 40, "I_al": 10, "K": 3, "pool_size": 20,
                   "inter_patience": 1, "intra_patience": 2, "val_size": 16,
                   "max_rounds": 2, "max_epochs": 3},
            "paths": {"workdir": str(tmp_path), "artifacts": "arts"},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc))

        for out in ("a", "b"):
            rc = cli_main(["fit-bm", "--config", str(cfg_path),
                           "--out", str(tmp_path / out)])
            assert rc == EXIT_OK
        for name in ("manifest.json", "draws.f64"):
            a = (tmp_path / "a" / "posterior" / name).read_bytes()
            b = (tmp_path / "b" / "posterior" / name).read_bytes()
            assert a == b, f"posterior {name} differs between runs"

        nets = {}
        for out in ("a", "b"):
            rc = cli_main(["train", "--config", str(cfg_path),
                           "--out", str(tmp_path / out)])
            assert rc == EXIT_OK
            nets[out] = {
                name: (tmp_path / out / "net" / name).read_bytes()
                for name in ("manifest.json", "params.f64")
            }
        assert nets["a"] == nets["b"], "net artifacts differ between runs"
