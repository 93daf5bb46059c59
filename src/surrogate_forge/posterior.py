"""Posterior inference for the regression family via Hamiltonian Monte Carlo.

A single-chain HMC sampler with fixed leapfrog count and dual-averaging
step-size adaptation produces the M parameter draws that every downstream
predictor consumes. A closed-form Gaussian-conjugate posterior is provided
as a validation oracle for the linear-in-beta special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_core import ModelSpec, link_apply, link_deriv
from .seeds import substream
from .serialize import ArtifactError, read_blob, read_manifest, write_blob, write_manifest

DUAL_AVG_GAMMA = 0.05
DUAL_AVG_T0 = 10.0
DUAL_AVG_KAPPA = 0.75
# the arrays of a stored posterior, by name, in blob order
DRAW_FIELDS = ("alpha", "beta", "gamma", "sigma2")


class SamplerInitError(Exception):
    """Raised when the chain cannot start (non-finite target at q0)."""


@dataclass(frozen=True)
class SamplerConfig:
    warmup: int = 2000
    samples: int = 2000
    step_size: float = 0.1
    leapfrog_steps: int = 20
    target_accept: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if not self.step_size > 0:
            raise ValueError("step_size must be > 0")
        if self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be >= 1")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")


class PosteriorDraws:
    """M immutable posterior draws plus sampler diagnostics."""

    def __init__(self, spec: ModelSpec, alpha, beta, gamma, sigma2, diagnostics=None):
        alpha = np.array(alpha, dtype=float)
        beta = np.array(beta, dtype=float)
        gamma = np.array(gamma, dtype=float)
        sigma2 = np.array(sigma2, dtype=float)
        if alpha.ndim != 2 or beta.ndim != 2 or gamma.ndim != 1 or sigma2.ndim != 1:
            raise ValueError("alpha/beta must be (M, J); gamma/sigma2 must be (M,)")
        M = alpha.shape[0]
        if M < 1:
            raise ValueError("there must be at least one draw")
        if beta.shape != (M, spec.J) or alpha.shape != (M, spec.J):
            raise ValueError("alpha/beta shape mismatch with spec.J")
        if gamma.shape != (M,) or sigma2.shape != (M,):
            raise ValueError("gamma/sigma2 length mismatch")
        if np.any(sigma2 < 0):
            raise ValueError("sigma2 draws must be nonnegative")
        # J-major copies, so bm_predict multiplies by contiguous rows
        alpha_t = np.ascontiguousarray(alpha.T)
        beta_t = np.ascontiguousarray(beta.T)
        for arr in (alpha, beta, gamma, sigma2, alpha_t, beta_t):
            arr.setflags(write=False)
        self.spec = spec
        self.alpha = alpha
        self.beta = beta
        self.alpha_t = alpha_t
        self.beta_t = beta_t
        self.gamma = gamma
        self.sigma2 = sigma2
        self.diagnostics = dict(diagnostics) if diagnostics else {}

    def __len__(self) -> int:
        return self.alpha.shape[0]


def run_hmc(logp_and_grad, q0, cfg: SamplerConfig, rng) -> tuple[np.ndarray, dict]:
    """Generic HMC chain over a differentiable unnormalized log density.

    logp_and_grad(q) -> (log density, gradient). Step size adapts during
    warmup by dual averaging toward cfg.target_accept; sampling uses the
    averaged step size. Identity mass matrix.
    """
    q = np.asarray(q0, dtype=float).copy()
    dim = q.size
    lp, grad = logp_and_grad(q)
    if not (np.isfinite(lp) and np.all(np.isfinite(grad))):
        raise SamplerInitError(f"log density not finite at initial point (logp={lp!r})")

    eps = float(cfg.step_size)
    mu = math.log(10.0 * eps)
    log_eps = math.log(eps)
    # with no warmup there is no adaptation, so sampling uses cfg.step_size
    log_eps_bar = math.log(eps) if cfg.warmup == 0 else 0.0
    h_bar = 0.0

    draws = np.empty((cfg.samples, dim), dtype=float)
    accept_sum = 0.0
    total = cfg.warmup + cfg.samples
    for it in range(total):
        warming = it < cfg.warmup
        step = math.exp(log_eps) if warming else math.exp(log_eps_bar)
        p = rng.standard_normal(dim)
        h0 = lp - 0.5 * float(p @ p)

        qn = q.copy()
        lpn, gn = lp, grad
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pn = p + 0.5 * step * grad
            for leap in range(cfg.leapfrog_steps):
                qn = qn + step * pn
                lpn, gn = logp_and_grad(qn)
                if not np.all(np.isfinite(gn)):
                    lpn = -np.inf
                    break
                if leap < cfg.leapfrog_steps - 1:
                    pn = pn + step * gn
            else:
                pn = pn + 0.5 * step * gn
            # pn @ pn may overflow to inf: an infinite kinetic energy is a rejection
            h1 = lpn - 0.5 * float(pn @ pn) if np.isfinite(lpn) else -np.inf

        if np.isfinite(h1):
            accept_prob = min(1.0, math.exp(min(0.0, h1 - h0)))
        else:
            accept_prob = 0.0
        if rng.random() < accept_prob:
            q, lp, grad = qn, lpn, gn

        if warming:
            m = it + 1
            frac = 1.0 / (m + DUAL_AVG_T0)
            h_bar = (1.0 - frac) * h_bar + frac * (cfg.target_accept - accept_prob)
            log_eps = mu - math.sqrt(m) / DUAL_AVG_GAMMA * h_bar
            eta = m ** (-DUAL_AVG_KAPPA)
            log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
        else:
            accept_sum += accept_prob
            draws[it - cfg.warmup] = q

    mean_accept = accept_sum / cfg.samples
    info = {"mean_accept": float(mean_accept), "step_size": math.exp(log_eps_bar)}
    return draws, info


def _make_target(spec: ModelSpec, X, y, fix_alpha, fix_sigma2):
    """Build (q0, logp_and_grad, unpack) over the unconstrained space.

    Layout of q: [alpha (if free), beta, gamma, log sigma2 (if free)].
    """
    J = spec.J
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    N = X.shape[0]
    free_alpha = fix_alpha is None
    free_sigma = fix_sigma2 is None
    alpha_fixed = None if free_alpha else np.broadcast_to(np.asarray(fix_alpha, float), (J,)).copy()
    if not free_sigma and not fix_sigma2 > 0:
        raise ValueError("fix_sigma2 must be > 0")

    parts = []
    if free_alpha:
        parts.append(np.full(J, spec.prior_alpha_mean))
    parts.append(np.full(J, spec.prior_beta_mean))
    parts.append(np.array([spec.prior_gamma_mean]))
    if free_sigma:
        parts.append(np.array([math.log(0.1)]))
    q0 = np.concatenate(parts)

    a_var = spec.prior_alpha_var
    b_var = spec.prior_beta_var
    g_var = spec.prior_gamma_var
    s_scale = spec.prior_sigma2_scale
    # offsets of beta and gamma in q and in the gradient
    b0 = J if free_alpha else 0
    g0 = b0 + J

    def unpack(q):
        alpha = q[:J] if free_alpha else alpha_fixed
        beta = q[b0:g0]
        gamma = q[g0]
        if free_sigma:
            t = q[g0 + 1]
            sigma2 = math.exp(t) if t < 700 else math.inf
        else:
            t = None
            sigma2 = float(fix_sigma2)
        return alpha, beta, gamma, sigma2, t

    def logp_and_grad(q):
        alpha, beta, gamma, sigma2, t = unpack(q)
        # 1e150 cap keeps sigma2**2 representable; the density out there is
        # vanishing anyway, so the trajectory is simply rejected
        if not np.isfinite(sigma2) or sigma2 <= 0 or sigma2 > 1e150:
            return -np.inf, np.zeros_like(q)
        Z = X * alpha
        psi = link_apply(spec.link, Z)
        f = gamma + psi @ beta
        r = y - f
        rss = float(r @ r)

        lp = -0.5 * N * math.log(2.0 * math.pi * sigma2) - rss / (2.0 * sigma2)
        lp += -0.5 * float(np.sum((alpha - spec.prior_alpha_mean) ** 2)) / a_var \
              - 0.5 * J * math.log(2.0 * math.pi * a_var)
        lp += -0.5 * float(np.sum((beta - spec.prior_beta_mean) ** 2)) / b_var \
              - 0.5 * J * math.log(2.0 * math.pi * b_var)
        lp += -0.5 * (gamma - spec.prior_gamma_mean) ** 2 / g_var \
              - 0.5 * math.log(2.0 * math.pi * g_var)
        if free_sigma:
            # half-Gaussian prior on sigma2 plus log-scale Jacobian
            lp += math.log(2.0) - math.log(s_scale) - 0.5 * math.log(2.0 * math.pi) \
                  - sigma2 ** 2 / (2.0 * s_scale ** 2)
            lp += t
        if not np.isfinite(lp):
            return -np.inf, np.zeros_like(q)

        grad = np.empty_like(q)
        if free_alpha:
            dpsi = link_deriv(spec.link, Z, psi)
            grad[:J] = beta * (r @ (dpsi * X)) / sigma2 - (alpha - spec.prior_alpha_mean) / a_var
        grad[b0:g0] = (r @ psi) / sigma2 - (beta - spec.prior_beta_mean) / b_var
        grad[g0] = float(np.sum(r)) / sigma2 - (gamma - spec.prior_gamma_mean) / g_var
        if free_sigma:
            grad[g0 + 1] = -0.5 * N + rss / (2.0 * sigma2) - sigma2 ** 2 / s_scale ** 2 + 1.0
        return lp, grad

    return q0, logp_and_grad, unpack


def sample_posterior(spec: ModelSpec, X, y, cfg: SamplerConfig,
                     *, fix_alpha=None, fix_sigma2=None) -> PosteriorDraws:
    """Run one HMC chain and return M draws with diagnostics.

    fix_alpha / fix_sigma2 pin those blocks instead of sampling them,
    which is how the conjugate validation case is expressed.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.J:
        raise ValueError(f"X must be (N, {spec.J})")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match X rows")
    if X.shape[0] == 0:
        raise ValueError("dataset must be nonempty")

    q0, logp_and_grad, unpack = _make_target(spec, X, y, fix_alpha, fix_sigma2)
    rng = substream(cfg.seed, "mcmc")
    draws, info = run_hmc(logp_and_grad, q0, cfg, rng)

    M = cfg.samples
    J = spec.J
    alpha = np.empty((M, J))
    beta = np.empty((M, J))
    gamma = np.empty(M)
    sigma2 = np.empty(M)
    for m in range(M):
        a, b, g, s2, _ = unpack(draws[m])
        alpha[m] = a
        beta[m] = b
        gamma[m] = g
        sigma2[m] = s2

    ess = np.array([effective_sample_size(draws[:, k]) for k in range(draws.shape[1])])
    warnings = []
    if info["mean_accept"] < 0.1:
        warnings.append(f"mean acceptance rate {info['mean_accept']:.3f} below 0.1")
    diagnostics = {
        "mean_accept": info["mean_accept"],
        "adapted_step_size": info["step_size"],
        "ess": ess,
        "warnings": warnings,
    }
    return PosteriorDraws(spec, alpha, beta, gamma, sigma2, diagnostics)


def analytic_conjugate_posterior(X, y, sigma2: float, prior_mean, prior_var):
    """Exact Gaussian posterior for a model linear in its coefficients.

    X is the design matrix (callers append an intercept column themselves),
    prior_var may be a vector of per-coefficient variances or a full
    covariance matrix. Returns (mean, covariance).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    prior_mean = np.asarray(prior_mean, dtype=float)
    if not sigma2 > 0:
        raise ValueError("sigma2 must be > 0")
    d = prior_mean.size
    prior_var = np.asarray(prior_var, dtype=float)
    if prior_var.ndim == 1:
        prior_cov = np.diag(prior_var)
    else:
        prior_cov = prior_var
    prior_prec = np.linalg.inv(prior_cov)
    if X.size == 0:
        return prior_mean.copy(), prior_cov.copy()
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] != d:
        raise ValueError("design matrix width must match prior dimension")
    post_prec = prior_prec + X.T @ X / sigma2
    post_cov = np.linalg.inv(post_prec)
    post_mean = post_cov @ (prior_prec @ prior_mean + X.T @ y / sigma2)
    return post_mean, post_cov


def effective_sample_size(chain) -> float:
    """ESS from the autocorrelation sum truncated at the first negative lag."""
    x = np.asarray(chain, dtype=float)
    n = x.size
    if n < 2:
        return float(n)
    x = x - x.mean()
    acov0 = float(x @ x) / n
    if acov0 == 0.0:
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    rho = acov / acov0
    s = 0.0
    for k in range(1, n):
        if rho[k] < 0:
            break
        s += rho[k]
    ess = n / (1.0 + 2.0 * s)
    return float(min(max(ess, 1.0), n))


def save_posterior(draws: PosteriorDraws, manifest_path, blob_path) -> None:
    layout = write_blob(blob_path, {n: getattr(draws, n) for n in DRAW_FIELDS})
    write_manifest(manifest_path, "posterior", {
        "J": draws.spec.J,
        "M": len(draws),
        "link": draws.spec.link,
        "layout": layout,
        "mean_accept": draws.diagnostics.get("mean_accept"),
        "warnings": draws.diagnostics.get("warnings", []),
    })


def load_posterior(manifest_path, blob_path, spec: ModelSpec) -> PosteriorDraws:
    """The stored draws, refused unless they were fitted under spec's J and link."""
    doc = read_manifest(manifest_path, "posterior", ("M", "layout"),
                        {"J": spec.J, "link": spec.link})
    arrays = read_blob(blob_path, doc["layout"], DRAW_FIELDS)
    if arrays["gamma"].shape != (doc["M"],):
        raise ArtifactError("posterior blob shape mismatch with manifest")
    diagnostics = {"mean_accept": doc.get("mean_accept"), "warnings": doc.get("warnings", [])}
    try:
        return PosteriorDraws(spec, **arrays, diagnostics=diagnostics)
    except ValueError as e:
        raise ArtifactError(f"posterior {blob_path} does not hold valid draws: {e}") from e
