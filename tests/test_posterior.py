import json
import math
import warnings

import numpy as np
import pytest

from surrogate_forge import (
    ModelSpec,
    PosteriorDraws,
    SamplerConfig,
    SamplerInitError,
    analytic_conjugate_posterior,
    effective_sample_size,
    load_posterior,
    run_hmc,
    sample_posterior,
    save_posterior,
)
import surrogate_forge.posterior as posterior_module
from surrogate_forge.model_core import (VALID_LINKS, ParamDraw, eval_mean_batch,
                                       generate_observed, sample_ground_truth)
from surrogate_forge.posterior import _make_target

from draw_sets import make_draws


class TestConjugateOracle:
    """The analytic posterior is itself checked against independent algebra
    before it is trusted as the sampler's reference."""

    def test_single_parameter_by_hand(self):
        x = np.array([[1.0], [2.0], [0.5]])
        y = np.array([1.1, 2.3, 0.4])
        sigma2, m0, v0 = 0.1, 0.2, 2.0
        mean, cov = analytic_conjugate_posterior(x, y, sigma2, [m0], [v0])
        prec = 1.0 / v0 + float(np.sum(x**2)) / sigma2
        want_var = 1.0 / prec
        want_mean = want_var * (m0 / v0 + float(np.sum(x[:, 0] * y)) / sigma2)
        assert math.isclose(mean[0], want_mean, rel_tol=1e-12)
        assert math.isclose(cov[0, 0], want_var, rel_tol=1e-12)

    def test_matches_direct_linear_solve(self):
        rng = np.random.default_rng(3)
        Phi = rng.standard_normal((40, 4))
        y = rng.standard_normal(40)
        sigma2 = 0.3
        m0 = rng.standard_normal(4)
        v0 = rng.uniform(0.2, 2.0, 4)
        mean, cov = analytic_conjugate_posterior(Phi, y, sigma2, m0, v0)
        P = np.diag(1.0 / v0) + Phi.T @ Phi / sigma2
        want_cov = np.linalg.inv(P)
        want_mean = np.linalg.solve(P, m0 / v0 + Phi.T @ y / sigma2)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-10)
        np.testing.assert_allclose(cov, want_cov, rtol=1e-10)

    def test_matrix_prior_variance_equivalent_to_vector(self):
        rng = np.random.default_rng(4)
        Phi = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        v0 = np.array([0.5, 1.0, 2.0])
        m0 = np.zeros(3)
        mv, cv = analytic_conjugate_posterior(Phi, y, 0.2, m0, v0)
        mm, cm = analytic_conjugate_posterior(Phi, y, 0.2, m0, np.diag(v0))
        np.testing.assert_allclose(mv, mm, rtol=1e-12)
        np.testing.assert_allclose(cv, cm, rtol=1e-12)

    def test_no_data_returns_prior(self):
        m0 = np.array([1.0, -2.0])
        v0 = np.array([0.5, 3.0])
        mean, cov = analytic_conjugate_posterior(
            np.zeros((0, 2)), np.zeros(0), 0.1, m0, v0)
        np.testing.assert_allclose(mean, m0)
        np.testing.assert_allclose(cov, np.diag(v0))


class TestRunHmc:
    @staticmethod
    def _std_normal(q):
        return -0.5 * float(q @ q), -q

    def test_detailed_balance_smoke_standard_gaussian(self):
        # chain must reproduce the exact target: mean 0, variance 1
        cfg = SamplerConfig(warmup=500, samples=3000, step_size=0.2, seed=0)
        draws, info = run_hmc(self._std_normal, np.zeros(1), cfg,
                              np.random.default_rng(1234))
        chain = draws[:, 0]
        ess = effective_sample_size(chain)
        assert ess >= 400
        assert abs(chain.mean()) < 4.0 / math.sqrt(ess)
        assert abs(chain.var() - 1.0) < 0.2
        assert 0.5 < info["mean_accept"] <= 1.0

    def test_deterministic_given_seeded_rng(self):
        cfg = SamplerConfig(warmup=50, samples=40, seed=0)
        d1, _ = run_hmc(self._std_normal, np.zeros(2), cfg, np.random.default_rng(9))
        d2, _ = run_hmc(self._std_normal, np.zeros(2), cfg, np.random.default_rng(9))
        d3, _ = run_hmc(self._std_normal, np.zeros(2), cfg, np.random.default_rng(10))
        np.testing.assert_array_equal(d1, d2)
        assert not np.array_equal(d1, d3)

    def test_warmup_draws_are_discarded(self):
        cfg = SamplerConfig(warmup=30, samples=17, seed=0)
        draws, _ = run_hmc(self._std_normal, np.zeros(1), cfg, np.random.default_rng(0))
        assert draws.shape == (17, 1)

    def test_zero_warmup_uses_configured_step_size(self):
        cfg = SamplerConfig(warmup=0, samples=5, step_size=0.035, seed=0)
        _, info = run_hmc(self._std_normal, np.zeros(1), cfg, np.random.default_rng(0))
        assert info["step_size"] == 0.035

    def test_kinetic_energy_overflow_is_a_silent_rejection(self):
        # flat target with a finite but huge gradient: pn @ pn overflows to inf
        def steep(q):
            return 0.0, np.full_like(q, 1e200)

        cfg = SamplerConfig(warmup=5, samples=20, step_size=0.1, seed=0)
        q0 = np.array([0.25, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws, info = run_hmc(steep, q0, cfg, np.random.default_rng(0))
        assert np.all(draws == q0)
        assert info["mean_accept"] == 0.0

    def test_one_link_call_per_gradient_evaluation(self, monkeypatch):
        calls = {"link": 0, "evals": 0}
        link_apply = posterior_module.link_apply

        def counting_link(kind, z):
            calls["link"] += 1
            return link_apply(kind, z)

        monkeypatch.setattr(posterior_module, "link_apply", counting_link)
        spec = ModelSpec(J=3)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        # sigma2 pinned: a free one can leave the 1e150 cap, where the target
        # returns before evaluating the link
        q0, logp_and_grad, _ = _make_target(spec, X, y, None, 0.5)

        def counted(q):
            calls["evals"] += 1
            return logp_and_grad(q)

        cfg = SamplerConfig(warmup=10, samples=10, leapfrog_steps=5, seed=0)
        run_hmc(counted, q0, cfg, np.random.default_rng(0))
        assert calls["evals"] > 0
        assert calls["link"] == calls["evals"]

    def test_nonfinite_start_raises(self):
        def bad(q):
            return -math.inf, np.zeros_like(q)

        cfg = SamplerConfig(warmup=10, samples=5, seed=0)
        with pytest.raises(SamplerInitError):
            run_hmc(bad, np.zeros(1), cfg, np.random.default_rng(0))


def _assert_gradient_matches_differences(logp_and_grad, q, link):
    _, grad = logp_and_grad(q)
    h = 1e-6
    for k, e in enumerate(np.eye(q.size)):
        numeric = (logp_and_grad(q + h * e)[0] - logp_and_grad(q - h * e)[0]) / (2 * h)
        err = abs(numeric - grad[k]) / max(abs(numeric), abs(grad[k]))
        assert err < 1e-6, (link, k, numeric, grad[k])


class TestTargetGradient:
    @pytest.mark.parametrize("link", VALID_LINKS)
    def test_gradient_matches_central_differences(self, link):
        # alpha and sigma2 free, so the link_deriv and log-sigma2 terms count
        spec = ModelSpec(J=3, link=link)
        rng = np.random.default_rng(21)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        _, logp_and_grad, _ = _make_target(spec, X, y, None, None)
        q = np.concatenate([rng.uniform(0.3, 3.0, 3), rng.uniform(0.1, 1.0, 3),
                            [0.2, math.log(0.3)]])
        _assert_gradient_matches_differences(logp_and_grad, q, link)

    @pytest.mark.parametrize("link", VALID_LINKS)
    def test_target_at_benchmark_size_matches_scipy_and_differences(self, link):
        # the fit workload's size: J = 10, N = 1000
        from scipy.stats import halfnorm, norm

        J, N = 10, 1000
        spec = ModelSpec(J=J, link=link)
        rng = np.random.default_rng(22)
        X = rng.standard_normal((N, J))
        draw = ParamDraw(alpha=rng.uniform(0.3, 3.0, J), beta=rng.uniform(0.1, 1.0, J),
                         gamma=0.2, sigma2=0.3)
        # data from the model keeps the residuals, and so the cancellation in
        # the differences, at the noise scale
        f = eval_mean_batch(spec, draw, X)
        y = f + rng.standard_normal(N)
        _, logp_and_grad, _ = _make_target(spec, X, y, None, None)
        q = np.concatenate([draw.alpha, draw.beta, [draw.gamma, math.log(draw.sigma2)]])
        want = (norm.logpdf(y, f, math.sqrt(draw.sigma2)).sum()
                + norm.logpdf(draw.alpha, 1.5, 1.0).sum()
                + norm.logpdf(draw.beta, 0.5, 0.5).sum()
                + norm.logpdf(draw.gamma, 0.0, math.sqrt(0.5))
                + halfnorm.logpdf(draw.sigma2, scale=1.0) + math.log(draw.sigma2))
        assert math.isclose(logp_and_grad(q)[0], want, rel_tol=1e-12)
        _assert_gradient_matches_differences(logp_and_grad, q, link)


class TestSamplerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"samples": 0},
        {"warmup": -1},
        {"step_size": 0.0},
        {"leapfrog_steps": 0},
        {"target_accept": 0.0},
        {"target_accept": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestPosteriorDraws:
    def test_container_semantics(self, spec3, draws3):
        assert len(draws3) == 8

    def test_arrays_are_immutable(self, draws3):
        with pytest.raises(ValueError):
            draws3.alpha[0, 0] = 99.0
        with pytest.raises(ValueError):
            draws3.sigma2[0] = 99.0

    def test_shape_validation(self, spec3):
        with pytest.raises(ValueError):
            PosteriorDraws(spec3, np.ones((4, 2)), np.ones((4, 3)),
                           np.ones(4), np.ones(4))
        with pytest.raises(ValueError):
            PosteriorDraws(spec3, np.ones((4, 3)), np.ones((4, 3)),
                           np.ones(5), np.ones(4))
        with pytest.raises(ValueError, match="at least one draw"):
            PosteriorDraws(spec3, np.ones((0, 3)), np.ones((0, 3)),
                           np.ones(0), np.ones(0))


class TestSamplePosterior:
    def test_conjugate_case_matches_analytic_posterior(self):
        # identity link with alpha and sigma2 fixed is exactly Bayesian
        # linear regression in (beta, gamma)
        spec = ModelSpec(J=2, link="identity")
        rng = np.random.default_rng(77)
        X = rng.standard_normal((200, 2))
        y = X @ np.array([0.6, 0.3]) + 0.2 + rng.standard_normal(200) * math.sqrt(0.05)

        Phi = np.column_stack([X, np.ones(len(X))])
        m0 = np.array([spec.prior_beta_mean] * 2 + [spec.prior_gamma_mean])
        v0 = np.array([spec.prior_beta_var] * 2 + [spec.prior_gamma_var])
        mean, cov = analytic_conjugate_posterior(Phi, y, 0.05, m0, v0)

        d = sample_posterior(spec, X, y, SamplerConfig(warmup=600, samples=600, seed=3),
                             fix_alpha=np.ones(2), fix_sigma2=0.05)
        sampled = np.column_stack([d.beta, d.gamma])
        for k in range(3):
            chain = sampled[:, k]
            ess = effective_sample_size(chain)
            assert ess > 50
            mcse = chain.std(ddof=1) / math.sqrt(ess)
            assert abs(chain.mean() - mean[k]) < 4.0 * mcse
            assert abs(chain.var(ddof=1) - cov[k, k]) / cov[k, k] < 0.25

    def test_fixed_parameters_are_pinned(self, spec3):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        alpha0 = np.array([1.0, 2.0, 0.5])
        d = sample_posterior(spec3, X, y, SamplerConfig(warmup=40, samples=20, seed=1),
                             fix_alpha=alpha0, fix_sigma2=0.07)
        np.testing.assert_array_equal(d.alpha, np.tile(alpha0, (20, 1)))
        np.testing.assert_array_equal(d.sigma2, np.full(20, 0.07))
        assert np.ptp(d.beta[:, 0]) > 0  # free coordinates still move

    def test_sigma2_draws_stay_positive(self, spec3):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        d = sample_posterior(spec3, X, y, SamplerConfig(warmup=100, samples=60, seed=2))
        assert np.all(d.sigma2 > 0)

    def test_deterministic_per_seed(self, spec3):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        cfg = SamplerConfig(warmup=30, samples=15, seed=11)
        d1 = sample_posterior(spec3, X, y, cfg)
        d2 = sample_posterior(spec3, X, y, cfg)
        np.testing.assert_array_equal(d1.alpha, d2.alpha)
        np.testing.assert_array_equal(d1.sigma2, d2.sigma2)

    def test_diagnostics_contents(self, spec3):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        d = sample_posterior(spec3, X, y, SamplerConfig(warmup=30, samples=15, seed=0))
        diag = d.diagnostics
        assert 0.0 <= diag["mean_accept"] <= 1.0
        assert diag["adapted_step_size"] > 0
        assert len(diag["ess"]) == 2 * spec3.J + 2
        assert isinstance(diag["warnings"], list)

    def test_nonfinite_data_raises_sampler_error(self, spec3):
        X = np.zeros((5, 3))
        y = np.array([0.0, 1.0, np.nan, 0.0, 1.0])
        with pytest.raises(SamplerInitError):
            sample_posterior(spec3, X, y, SamplerConfig(warmup=10, samples=5, seed=0))

    @pytest.mark.parametrize("seed", [1100, 2100, 3100])
    def test_benchmark_fit_check_holds(self, seed):
        # the benchmark's fit workload: its sizes, and truth and data drawn as
        # it draws them; it refuses a fit with non-finite draws or a warning
        spec = ModelSpec(J=10)
        truth = sample_ground_truth(spec, np.random.default_rng([seed, 1]))
        X, y = generate_observed(spec, truth, 1000, np.random.default_rng([seed, 2]))
        cfg = SamplerConfig(warmup=150, samples=200, leapfrog_steps=10, seed=seed)
        d = sample_posterior(spec, X, y, cfg)
        assert all(np.all(np.isfinite(a)) for a in (d.alpha, d.beta, d.gamma, d.sigma2))
        assert d.diagnostics["warnings"] == []


class TestEffectiveSampleSize:
    def test_iid_chain_is_near_n(self):
        chain = np.random.default_rng(0).standard_normal(4000)
        assert effective_sample_size(chain) > 3000

    def test_ar1_chain_is_discounted(self):
        rho, n = 0.9, 8000
        rng = np.random.default_rng(1)
        x = np.empty(n)
        x[0] = 0.0
        for t in range(1, n):
            x[t] = rho * x[t - 1] + math.sqrt(1 - rho * rho) * rng.standard_normal()
        ess = effective_sample_size(x)
        # theory: n (1 - rho) / (1 + rho) = 421
        assert 150 < ess < 800

    def test_alternating_chain_truncates_at_first_negative_lag(self):
        chain = np.tile([1.0, -1.0], 2000)
        assert effective_sample_size(chain) == 4000

    def test_constant_chain_is_clamped(self):
        ess = effective_sample_size(np.ones(100))
        assert 1.0 <= ess <= 100.0


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, spec3, draws3):
        man, blob = tmp_path / "m.json", tmp_path / "d.f64"
        save_posterior(draws3, man, blob)
        back = load_posterior(man, blob, spec3)
        np.testing.assert_array_equal(back.alpha, draws3.alpha)
        np.testing.assert_array_equal(back.beta, draws3.beta)
        np.testing.assert_array_equal(back.gamma, draws3.gamma)
        np.testing.assert_array_equal(back.sigma2, draws3.sigma2)
        assert back.spec == spec3

    def test_spec_mismatch_rejected(self, tmp_path, draws3):
        from surrogate_forge.serialize import ArtifactError

        man, blob = tmp_path / "m.json", tmp_path / "d.f64"
        save_posterior(draws3, man, blob)
        with pytest.raises(ArtifactError):
            load_posterior(man, blob, ModelSpec(J=4))

    def test_layout_with_two_entries_rejected(self, tmp_path, spec3, draws3):
        from surrogate_forge.serialize import ArtifactError

        man, blob = tmp_path / "m.json", tmp_path / "d.f64"
        save_posterior(draws3, man, blob)
        doc = json.loads(man.read_text())
        doc["layout"] = doc["layout"][:2]
        man.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="expected"):
            load_posterior(man, blob, spec3)

    def test_layout_with_alpha_and_beta_swapped_rejected(self, tmp_path, spec3, draws3):
        # both are (M, J), so the blob still tiles; only the names tell them apart
        from surrogate_forge.serialize import ArtifactError

        man, blob = tmp_path / "m.json", tmp_path / "d.f64"
        save_posterior(draws3, man, blob)
        doc = json.loads(man.read_text())
        doc["layout"][0]["name"], doc["layout"][1]["name"] = "beta", "alpha"
        man.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="expected"):
            load_posterior(man, blob, spec3)

    def test_saved_bytes_are_deterministic(self, tmp_path, spec3):
        draws = make_draws(spec3, M=6, seed=1)
        for name in ("a", "b"):
            save_posterior(draws, tmp_path / f"{name}.json", tmp_path / f"{name}.f64")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.f64").read_bytes() == (tmp_path / "b.f64").read_bytes()
