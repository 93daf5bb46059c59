"""The generalized Bayesian regression family.

The model for a single example x in R^J is

    f(x) = gamma + sum_j beta_j * psi(x_j * alpha_j),      Y ~ N(f(x), sigma2)

with Gaussian priors on alpha, beta, gamma and a half-Gaussian prior on
sigma2. psi is a per-feature link; sqrt and log1p are applied to |z| so the
family is total on Gaussian inputs. The log posterior that HMC samples is
defined once, next to the sampler, in posterior._make_target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALID_LINKS = ("sigmoid", "sine", "sqrt", "log1p", "identity")

# Ground-truth sampling ranges (uniform), plus the default observation noise.
TRUTH_GAMMA_RANGE = (-0.5, 0.5)
TRUTH_ALPHA_RANGE = (0.3, 3.0)
TRUTH_BETA_RANGE = (0.1, 1.0)
DEFAULT_TRUTH_SIGMA2 = 0.01


def link_apply(kind: str, z: np.ndarray) -> np.ndarray:
    """Elementwise link psi(z)."""
    if kind == "sigmoid":
        # exp(-logaddexp(0, -z)) is the numerically stable logistic.
        return np.exp(-np.logaddexp(0.0, -z))
    if kind == "sine":
        return np.sin(z)
    if kind == "sqrt":
        return np.sqrt(np.abs(z))
    if kind == "log1p":
        return np.log1p(np.abs(z))
    if kind == "identity":
        return np.asarray(z, dtype=float)
    raise ValueError(f"unknown link kind: {kind!r}")


def link_deriv(kind: str, z: np.ndarray) -> np.ndarray:
    """Elementwise derivative psi'(z). Subgradient 0 is used at the |.| kink."""
    z = np.asarray(z, dtype=float)
    if kind == "sigmoid":
        s = link_apply("sigmoid", z)
        return s * (1.0 - s)
    if kind == "sine":
        return np.cos(z)
    if kind == "sqrt":
        az = np.abs(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.sign(z) / (2.0 * np.sqrt(az))
        return np.where(az == 0.0, 0.0, d)
    if kind == "log1p":
        return np.sign(z) / (1.0 + np.abs(z))
    if kind == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown link kind: {kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Model family: feature count, link, and prior hyperparameters."""

    J: int
    link: str = "sigmoid"
    prior_alpha_mean: float = 1.5
    prior_alpha_var: float = 1.0
    prior_beta_mean: float = 0.5
    prior_beta_var: float = 0.25
    prior_gamma_mean: float = 0.0
    prior_gamma_var: float = 0.5
    prior_sigma2_scale: float = 1.0  # half-Gaussian scale for sigma2

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("J must be >= 1")
        if self.link not in VALID_LINKS:
            raise ValueError(f"link must be one of {VALID_LINKS}, got {self.link!r}")
        for name in ("prior_alpha_var", "prior_beta_var", "prior_gamma_var",
                     "prior_sigma2_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class ParamDraw:
    """One parameter vector (alpha, beta, gamma, sigma2) of the model."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: float
    sigma2: float

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        if self.alpha.ndim != 1 or self.beta.ndim != 1:
            raise ValueError("alpha and beta must be 1-D")
        if self.alpha.shape != self.beta.shape:
            raise ValueError("alpha and beta must have equal length")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")


@dataclass
class GroundTruth:
    """Pre-sampled true parameters used to generate observed data."""

    draw: ParamDraw


def _check_draw(spec: ModelSpec, draw: ParamDraw) -> None:
    if draw.alpha.shape[0] != spec.J:
        raise ValueError(f"draw has J={draw.alpha.shape[0]}, spec has J={spec.J}")


def eval_mean_batch(spec: ModelSpec, draw: ParamDraw, X: np.ndarray) -> np.ndarray:
    """E[Y | x, draw] for each row of X; shape (N,).

    The J-axis reduction uses np.sum on the contiguous last axis, so single-row
    and batched evaluation agree bitwise.
    """
    _check_draw(spec, draw)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.J:
        raise ValueError(f"X must be (N, {spec.J}), got {X.shape}")
    terms = link_apply(spec.link, X * draw.alpha) * draw.beta
    return draw.gamma + np.sum(terms, axis=1)


def eval_mean(spec: ModelSpec, draw: ParamDraw, x: np.ndarray) -> float:
    """E[Y | x, draw] for a single input x of length J."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != spec.J:
        raise ValueError(f"x must have length {spec.J}, got shape {x.shape}")
    return float(eval_mean_batch(spec, draw, x[None, :])[0])


def sample_ground_truth(
    spec: ModelSpec, rng: np.random.Generator, sigma2: float = DEFAULT_TRUTH_SIGMA2
) -> GroundTruth:
    """Draw true parameters: gamma ~ U(-0.5, 0.5), alpha_j ~ U(0.3, 3), beta_j ~ U(0.1, 1)."""
    gamma = rng.uniform(*TRUTH_GAMMA_RANGE)
    alpha = rng.uniform(*TRUTH_ALPHA_RANGE, size=spec.J)
    beta = rng.uniform(*TRUTH_BETA_RANGE, size=spec.J)
    return GroundTruth(ParamDraw(alpha=alpha, beta=beta, gamma=float(gamma), sigma2=float(sigma2)))


def generate_observed(
    spec: ModelSpec, truth: GroundTruth, N: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Observed dataset: X iid standard Gaussian, y = f(x) + N(0, sigma2) noise."""
    if N < 1:
        raise ValueError("N must be >= 1")
    X = rng.standard_normal((N, spec.J))
    y = eval_mean_batch(spec, truth.draw, X)
    if truth.draw.sigma2 > 0:
        y = y + rng.standard_normal(N) * math.sqrt(truth.draw.sigma2)
    return X, y
