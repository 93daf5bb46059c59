import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surrogate_forge import (
    ModelSpec,
    ParamDraw,
    eval_mean,
    eval_mean_batch,
    generate_observed,
    link_apply,
    link_deriv,
    sample_ground_truth,
)
from surrogate_forge import model_core
from surrogate_forge.model_core import (
    TRUTH_ALPHA_RANGE,
    TRUTH_BETA_RANGE,
    TRUTH_GAMMA_RANGE,
    VALID_LINKS,
    sum_terms,
)
from surrogate_forge.posterior import _make_target

from draw_sets import halving_sum


def _reference_link(kind, z):
    # independent scalar formulas; sqrt and log1p act on |z|
    if kind == "sigmoid":
        return 1.0 / (1.0 + math.exp(-z))
    if kind == "sine":
        return math.sin(z)
    if kind == "sqrt":
        return math.sqrt(abs(z))
    if kind == "log1p":
        return math.log1p(abs(z))
    return z


class TestLinks:
    def test_sigmoid_at_zero_is_exactly_half(self):
        assert float(link_apply("sigmoid", np.array(0.0))) == 0.5

    def test_values_match_reference_formulas(self):
        z = np.linspace(-4.0, 4.0, 41)
        for kind in VALID_LINKS:
            got = link_apply(kind, z)
            want = np.array([_reference_link(kind, v) for v in z])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_sigmoid_stable_at_extreme_arguments(self):
        got = link_apply("sigmoid", np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(got))
        assert got[0] >= 0.0 and got[1] <= 1.0
        np.testing.assert_allclose(got, [0.0, 1.0], atol=1e-12)

    def test_absolute_value_links_are_even(self):
        z = np.array([0.25, 1.5, 3.0])
        for kind in ("sqrt", "log1p"):
            np.testing.assert_array_equal(
                link_apply(kind, z), link_apply(kind, -z))

    def test_derivatives_match_central_differences(self):
        # keep |z| away from 0 where the |.| links are not differentiable
        z = np.concatenate([np.linspace(-3.0, -0.3, 12), np.linspace(0.3, 3.0, 12)])
        h = 1e-6
        for kind in VALID_LINKS:
            got = link_deriv(kind, z)
            want = (link_apply(kind, z + h) - link_apply(kind, z - h)) / (2 * h)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_derivative_from_value_is_bitwise_equal(self):
        z = np.random.default_rng(3).normal(scale=5.0, size=(200, 4))
        for kind in VALID_LINKS:
            from_value = link_deriv(kind, z, link_apply(kind, z))
            assert from_value.tobytes() == link_deriv(kind, z).tobytes(), kind

    def test_in_place_result_is_bitwise_equal(self):
        z = np.random.default_rng(4).normal(scale=5.0, size=(50, 6))
        z[0, :4] = [-800.0, 800.0, 0.0, -0.0]
        for kind in VALID_LINKS:
            want = link_apply(kind, z).tobytes()
            buf = z.copy()
            assert link_apply(kind, buf, out=buf) is buf
            assert buf.tobytes() == want, kind
            other = np.empty_like(z)
            assert link_apply(kind, z, out=other).tobytes() == want, kind

    def test_sigmoid_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = link_apply("sigmoid", np.array([-800.0, 800.0]))
            at_zero = link_apply("sigmoid", np.array(0.0))
            link_deriv("sigmoid", np.array([-800.0, 800.0]), wide)
        np.testing.assert_array_equal(wide, [0.0, 1.0])
        assert at_zero == 0.5 and np.ndim(at_zero) == 0

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError):
            link_apply("cube", np.array(1.0))
        with pytest.raises(ValueError):
            link_deriv("cube", np.array(1.0))


def _peak_bytes(fn, *args):
    """fn(*args) run under tracemalloc: (its result, its peak allocation)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSumTerms:
    @pytest.mark.parametrize("J", [1, 2, 3, 7, 8, 9, 129])
    @pytest.mark.parametrize("layout", ["C", "F", "J1", "J11"])
    def test_equals_python_halving_sum_bitwise(self, J, layout):
        # magnitudes spread over 16 decades, so another order rounds differently
        rng = np.random.default_rng(J)
        base = rng.standard_normal((J, 6)) * 10.0 ** rng.uniform(-8, 8, (J, 6))
        terms = {"C": base.copy(), "F": np.asfortranarray(base),
                 "J1": base[:, :1].copy(), "J11": base[:, :1, None].copy()}[layout]
        got = sum_terms(terms).reshape(-1)
        want = [halving_sum(base[:, k]) for k in range(got.size)]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(2, 1000), (3, 1000), (9, 1000), (129, 10, 100)])
    def test_c_order_is_summed_without_a_copy(self, shape):
        # one copied slab would be 8 kB; the views it slices take a few hundred bytes
        terms = np.random.default_rng(0).standard_normal(shape)
        _, peak = _peak_bytes(sum_terms, terms)
        assert peak < 1024


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec(J=4)
        assert spec.link == "sigmoid"
        assert spec.prior_alpha_mean == 1.5
        assert spec.prior_beta_var == 0.25
        assert spec.prior_gamma_var == 0.5
        assert spec.prior_sigma2_scale == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"J": 0},
        {"J": 3, "link": "nope"},
        {"J": 3, "prior_alpha_var": 0.0},
        {"J": 3, "prior_sigma2_scale": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    def test_param_draw_validation(self):
        with pytest.raises(ValueError):
            ParamDraw(alpha=np.ones(2), beta=np.ones(3), gamma=0.0, sigma2=0.01)
        with pytest.raises(ValueError):
            ParamDraw(alpha=np.ones(2), beta=np.ones(2), gamma=0.0, sigma2=-1.0)


class TestEvalMean:
    def test_hand_example_identity_link(self):
        spec = ModelSpec(J=2, link="identity")
        draw = ParamDraw(alpha=np.array([1.0, 2.0]), beta=np.array([0.5, 0.25]),
                         gamma=0.1, sigma2=0.01)
        # 0.1 + 0.5*(1*2) + 0.25*(2*3), all terms dyadic except gamma
        got = eval_mean(spec, draw, np.array([2.0, 3.0]))
        assert got == 0.1 + 2.5

    def test_hand_example_sigmoid_at_zero(self, spec3):
        draw = ParamDraw(alpha=np.array([2.0, 1.0, 0.5]),
                         beta=np.array([0.5, 0.25, 0.125]),
                         gamma=0.25, sigma2=0.01)
        # sigmoid(0) = 1/2 exactly, so the mean is gamma + sum(beta)/2
        got = eval_mean(spec3, draw, np.zeros(3))
        assert got == 0.25 + (0.25 + 0.125 + 0.0625)

    def test_batch_row_agrees_with_single_bitwise(self, spec3):
        rng = np.random.default_rng(1)
        draw = ParamDraw(alpha=rng.uniform(0.3, 3, 3), beta=rng.uniform(0.1, 1, 3),
                         gamma=0.3, sigma2=0.01)
        X = rng.standard_normal((20, 3))
        batch = eval_mean_batch(spec3, draw, X)
        singles = np.array([eval_mean(spec3, draw, x) for x in X])
        np.testing.assert_array_equal(batch, singles)

    def test_terms_reach_sum_terms_in_c_order(self, monkeypatch):
        # a transposed (N, J) view would make each halving add copy its
        # operand (121 kB here); the only other temporaries allowed are the
        # term array, the output and numpy's ufunc buffers (two of
        # np.getbufsize() values at most)
        spec = ModelSpec(J=10)
        rng = np.random.default_rng(2)
        draw = ParamDraw(alpha=rng.uniform(0.3, 3, 10), beta=rng.uniform(0.1, 1, 10),
                         gamma=0.3, sigma2=0.01)
        X = rng.standard_normal((1000, 10))
        sum_peaks = []

        def traced(terms):
            assert terms.flags.c_contiguous
            result, peak = _peak_bytes(sum_terms, terms)
            sum_peaks.append(peak)
            return result

        eval_mean_batch(spec, draw, X)
        _, peak = _peak_bytes(eval_mean_batch, spec, draw, X)
        monkeypatch.setattr(model_core, "sum_terms", traced)
        eval_mean_batch(spec, draw, X)
        assert len(sum_peaks) == 1 and sum_peaks[0] < 1024
        assert peak <= (10 + 1) * 1000 * 8 + 2 * np.getbufsize() * 8 + 4096

    @given(st.integers(0, 2**32 - 1))
    def test_row_permutation_permutes_outputs(self, seed):
        spec = ModelSpec(J=2)
        rng = np.random.default_rng(seed)
        draw = ParamDraw(alpha=rng.uniform(0.3, 3, 2), beta=rng.uniform(0.1, 1, 2),
                         gamma=float(rng.uniform(-0.5, 0.5)), sigma2=0.01)
        X = rng.standard_normal((7, 2))
        perm = rng.permutation(7)
        np.testing.assert_array_equal(
            eval_mean_batch(spec, draw, X)[perm],
            eval_mean_batch(spec, draw, X[perm]))

    def test_shape_validation(self, spec3):
        draw = ParamDraw(alpha=np.ones(3), beta=np.ones(3), gamma=0.0, sigma2=0.01)
        with pytest.raises(ValueError):
            eval_mean(spec3, draw, np.zeros(4))
        with pytest.raises(ValueError):
            eval_mean_batch(spec3, draw, np.zeros((5, 2)))
        wrong = ParamDraw(alpha=np.ones(2), beta=np.ones(2), gamma=0.0, sigma2=0.01)
        with pytest.raises(ValueError):
            eval_mean_batch(spec3, wrong, np.zeros((5, 3)))


class TestGroundTruth:
    def test_ranges_and_determinism(self, spec3):
        t1 = sample_ground_truth(spec3, np.random.default_rng(5))
        t2 = sample_ground_truth(spec3, np.random.default_rng(5))
        d = t1
        assert TRUTH_GAMMA_RANGE[0] <= d.gamma <= TRUTH_GAMMA_RANGE[1]
        assert np.all((d.alpha >= TRUTH_ALPHA_RANGE[0]) & (d.alpha <= TRUTH_ALPHA_RANGE[1]))
        assert np.all((d.beta >= TRUTH_BETA_RANGE[0]) & (d.beta <= TRUTH_BETA_RANGE[1]))
        assert d.sigma2 == 0.01
        np.testing.assert_array_equal(d.alpha, t2.alpha)
        assert d.gamma == t2.gamma

    def test_generate_observed_noise_free_when_sigma2_zero(self, spec3):
        truth = sample_ground_truth(spec3, np.random.default_rng(2), sigma2=0.0)
        X, y = generate_observed(spec3, truth, 50, np.random.default_rng(3))
        np.testing.assert_array_equal(y, eval_mean_batch(spec3, truth, X))

    def test_generate_observed_noise_scale(self, spec3):
        truth = sample_ground_truth(spec3, np.random.default_rng(2), sigma2=0.04)
        X, y = generate_observed(spec3, truth, 4000, np.random.default_rng(3))
        resid = y - eval_mean_batch(spec3, truth, X)
        assert abs(resid.std() - 0.2) < 0.02
        assert abs(resid.mean()) < 0.02

    def test_generate_observed_rejects_empty(self, spec3):
        truth = sample_ground_truth(spec3, np.random.default_rng(2))
        with pytest.raises(ValueError):
            generate_observed(spec3, truth, 0, np.random.default_rng(3))


def _logp(spec, draw, X, y):
    """The HMC target's log density at q = [alpha, beta, gamma, log sigma2]."""
    _, logp_and_grad, _ = _make_target(spec, X, y, None, None)
    q = np.concatenate([draw.alpha, draw.beta, [draw.gamma, math.log(draw.sigma2)]])
    return logp_and_grad(q)[0]


def _no_data(J):
    return np.zeros((0, J)), np.zeros(0)


class TestDensities:
    """The sampler's target is the one definition of the log posterior."""

    def _draw(self, rng, J=3):
        return ParamDraw(alpha=rng.uniform(0.3, 3, J), beta=rng.uniform(0.1, 1, J),
                         gamma=float(rng.uniform(-0.5, 0.5)), sigma2=0.05)

    def _scipy_prior(self, draw):
        from scipy.stats import halfnorm, norm

        return (norm.logpdf(draw.alpha, 1.5, 1.0).sum()
                + norm.logpdf(draw.beta, 0.5, 0.5).sum()
                + norm.logpdf(draw.gamma, 0.0, math.sqrt(0.5))
                + halfnorm.logpdf(draw.sigma2, scale=1.0)
                + math.log(draw.sigma2))  # log-scale Jacobian

    def test_log_likelihood_matches_reference(self, spec3):
        # data term = target on the data minus target on no data
        rng = np.random.default_rng(11)
        draw = self._draw(rng)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        resid = y - eval_mean_batch(spec3, draw, X)
        want = sum(
            -0.5 * math.log(2 * math.pi * draw.sigma2) - r * r / (2 * draw.sigma2)
            for r in resid)
        got = _logp(spec3, draw, X, y) - _logp(spec3, draw, *_no_data(3))
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_log_likelihood_additive_over_blocks(self, spec3):
        rng = np.random.default_rng(12)
        draw = self._draw(rng)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        prior = _logp(spec3, draw, *_no_data(3))
        whole = _logp(spec3, draw, X, y) - prior
        parts = ((_logp(spec3, draw, X[:17], y[:17]) - prior)
                 + (_logp(spec3, draw, X[17:], y[17:]) - prior))
        assert math.isclose(whole, parts, rel_tol=1e-12)

    def test_log_prior_matches_scipy(self, spec3):
        rng = np.random.default_rng(13)
        draw = self._draw(rng)
        assert math.isclose(_logp(spec3, draw, *_no_data(3)), self._scipy_prior(draw),
                            rel_tol=1e-12)

    def test_log_posterior_is_likelihood_plus_prior(self):
        from scipy.stats import norm

        rng = np.random.default_rng(14)
        draw = self._draw(rng)
        X = rng.standard_normal((25, 3))
        y = rng.standard_normal(25)
        for link in VALID_LINKS:
            spec = ModelSpec(J=3, link=link)
            f = eval_mean_batch(spec, draw, X)
            want = (norm.logpdf(y, f, math.sqrt(draw.sigma2)).sum()
                    + self._scipy_prior(draw))
            assert math.isclose(_logp(spec, draw, X, y), want, rel_tol=1e-12), link

    def test_log_posterior_empty_data_is_prior(self):
        # with no data the link plays no part and the target is the prior
        draw = self._draw(np.random.default_rng(15))
        want = self._scipy_prior(draw)
        for link in VALID_LINKS:
            got = _logp(ModelSpec(J=3, link=link), draw, *_no_data(3))
            assert math.isclose(got, want, rel_tol=1e-12), link

    def test_sigma2_must_be_positive(self, spec3):
        X, y = np.zeros((1, 3)), np.zeros(1)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                _make_target(spec3, X, y, None, bad)
        # log sigma2 = -inf puts sigma2 at 0, outside the support
        _, logp_and_grad, _ = _make_target(spec3, X, y, None, None)
        lp, grad = logp_and_grad(np.array([1.0] * 6 + [0.0, -np.inf]))
        assert lp == -np.inf and np.all(grad == 0.0)
