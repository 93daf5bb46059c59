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


def link_apply(kind: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise link psi(z). out, when given, receives psi(z) and is
    returned; it may be z itself. The values are the same either way.

    Every step writes into one array, and out goes to the ufuncs by
    position: as a keyword it costs about 2 us per call on the (1000, 10)
    arrays of an HMC gradient evaluation.
    """
    if kind == "identity":
        if out is None:
            return np.asarray(z, dtype=float)
        if out is not z:
            np.copyto(out, z)
        return out
    if out is None:
        out = np.empty_like(z, dtype=float)
    if kind == "sigmoid":
        # for z < -709 exp(-z) overflows to inf and the quotient is the limit 0
        with np.errstate(over="ignore"):
            np.exp(np.negative(z, out), out)
            return np.divide(1.0, np.add(1.0, out, out), out)
    if kind == "sine":
        return np.sin(z, out)
    if kind == "sqrt":
        return np.sqrt(np.abs(z, out), out)
    if kind == "log1p":
        return np.log1p(np.abs(z, out), out)
    raise ValueError(f"unknown link kind: {kind!r}")


def sum_terms(terms: np.ndarray) -> np.ndarray:
    """The sum of a (J, ...) array over axis 0, by halving in place: with
    h = n // 2 the last h slabs are added onto the first h, until one slab
    is left, which is returned (a view of terms[0]).

    Every J-sum of the model goes through here. Only elementwise adds run,
    so the bits depend on J alone, not on the shape, the layout or a numpy
    reduction order; the rounding error grows with log J, not J. Pass a
    C-order array: numpy copies an operand when it cannot prove that the
    two slices do not overlap.
    """
    n = terms.shape[0]
    while n > 1:
        h = n // 2
        terms[:h] += terms[n - h:n]
        n -= h
    return terms[0]


def link_deriv(kind: str, z: np.ndarray, psi: np.ndarray | None = None) -> np.ndarray:
    """Elementwise derivative psi'(z). Subgradient 0 is used at the |.| kink.

    psi, when given, must be link_apply(kind, z); sigmoid then takes its
    derivative from that value instead of recomputing it. Other links ignore it.
    """
    z = np.asarray(z, dtype=float)
    if kind == "sigmoid":
        s = link_apply("sigmoid", z) if psi is None else psi
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


def _check_draw(spec: ModelSpec, draw: ParamDraw) -> None:
    if draw.alpha.shape[0] != spec.J:
        raise ValueError(f"draw has J={draw.alpha.shape[0]}, spec has J={spec.J}")


def eval_mean_batch(spec: ModelSpec, draw: ParamDraw, X: np.ndarray) -> np.ndarray:
    """E[Y | x, draw] for each row of X; shape (N,).

    The terms are built as a C-order (J, N) array and added by sum_terms, so
    a row's value does not depend on the batch it is in, and equals that
    draw's value from bm_predict bit for bit.
    """
    _check_draw(spec, draw)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.J:
        raise ValueError(f"X must be (N, {spec.J}), got {X.shape}")
    terms = np.multiply(X.T, draw.alpha[:, None], order="C")
    link_apply(spec.link, terms, out=terms)
    terms *= draw.beta[:, None]
    return draw.gamma + sum_terms(terms)


def eval_mean(spec: ModelSpec, draw: ParamDraw, x: np.ndarray) -> float:
    """E[Y | x, draw] for a single input x of length J."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != spec.J:
        raise ValueError(f"x must have length {spec.J}, got shape {x.shape}")
    return float(eval_mean_batch(spec, draw, x[None, :])[0])


def sample_ground_truth(
    spec: ModelSpec, rng: np.random.Generator, sigma2: float = DEFAULT_TRUTH_SIGMA2
) -> ParamDraw:
    """Draw true parameters: gamma ~ U(-0.5, 0.5), alpha_j ~ U(0.3, 3), beta_j ~ U(0.1, 1)."""
    gamma = rng.uniform(*TRUTH_GAMMA_RANGE)
    alpha = rng.uniform(*TRUTH_ALPHA_RANGE, size=spec.J)
    beta = rng.uniform(*TRUTH_BETA_RANGE, size=spec.J)
    return ParamDraw(alpha=alpha, beta=beta, gamma=float(gamma), sigma2=float(sigma2))


def generate_observed(
    spec: ModelSpec, truth: ParamDraw, N: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Observed dataset: X iid standard Gaussian, y = f(x) + N(0, sigma2) noise."""
    if N < 1:
        raise ValueError("N must be >= 1")
    X = rng.standard_normal((N, spec.J))
    y = eval_mean_batch(spec, truth, X)
    if truth.sigma2 > 0:
        y = y + rng.standard_normal(N) * math.sqrt(truth.sigma2)
    return X, y
