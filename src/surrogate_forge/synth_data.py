"""Surrogate training data synthesis.

Inputs are sampled from a configured distribution, coordinates are zeroed
by Bernoulli masks with keep-probability tau, and each row is labeled with
the per-draw expectation vector from the reference predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bm_predict import predict_batch
from .model_core import ModelSpec
from .posterior import PosteriorDraws
from .seeds import substream
from .serialize import ArtifactError, read_blob, read_manifest, write_blob, write_manifest

INPUT_DISTS = ("uniform01", "standard_gaussian")
_META_KEYS = ("I", "J", "M", "tau", "seed", "input_dist")


@dataclass(frozen=True)
class DataGenConfig:
    I: int
    tau: float = 0.8
    input_dist: str = "uniform01"
    seed: int = 0

    def __post_init__(self):
        if self.I < 1:
            raise ValueError("I must be >= 1")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.input_dist not in INPUT_DISTS:
            raise ValueError(f"input_dist must be one of {INPUT_DISTS}")


@dataclass
class LabeledSet:
    X: np.ndarray
    Y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValueError("X and Y must be 2-D")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("X and Y must have the same number of rows")

    def __len__(self) -> int:
        return self.X.shape[0]


def _draw_inputs(rng, dist: str, shape) -> np.ndarray:
    if dist == "uniform01":
        return rng.random(shape)
    return rng.standard_normal(shape)


def generate(spec: ModelSpec, draws: PosteriorDraws, cfg: DataGenConfig) -> LabeledSet:
    """New inputs with dropout masking, labeled by the reference predictor.

    Stream order is fixed: all masks first, then all inputs, so the same
    seed always yields the same set.
    """
    rng = substream(cfg.seed, "data-gen")
    J = spec.J
    mask = rng.random((cfg.I, J)) < cfg.tau
    X = _draw_inputs(rng, cfg.input_dist, (cfg.I, J))
    X = np.where(mask, X, 0.0)
    Y = predict_batch(spec, draws, X)
    meta = {"I": cfg.I, "J": J, "M": len(draws), "tau": cfg.tau,
            "seed": cfg.seed, "input_dist": cfg.input_dist}
    return LabeledSet(X, Y, meta)


def generate_at(spec: ModelSpec, draws: PosteriorDraws, X_fixed) -> LabeledSet:
    """Label caller-provided inputs as-is: no masking, no resampling."""
    X_fixed = np.asarray(X_fixed, dtype=float)
    if X_fixed.ndim != 2 or X_fixed.shape[1] != spec.J:
        raise ValueError(f"X_fixed must be (N, {spec.J})")
    if not np.all(np.isfinite(X_fixed)):
        raise ValueError("X_fixed must be finite")
    Y = predict_batch(spec, draws, X_fixed)
    meta = {"I": X_fixed.shape[0], "J": spec.J, "M": len(draws),
            "tau": None, "seed": None, "input_dist": "fixed"}
    return LabeledSet(X_fixed.copy(), Y, meta)


def save_labeled_set(ls: LabeledSet, directory) -> None:
    """Write manifest.json (dims, provenance, blob layout) and data.f64 (X then Y)."""
    directory = Path(directory)
    layout = write_blob(directory / "data.f64", {"X": ls.X, "Y": ls.Y})
    meta = {k: ls.meta.get(k) for k in _META_KEYS}
    meta.update(I=len(ls), J=ls.X.shape[1], M=ls.Y.shape[1])
    write_manifest(directory / "manifest.json", "labeled_set", {**meta, "layout": layout})


def load_labeled_set(directory) -> LabeledSet:
    directory = Path(directory)
    doc = read_manifest(directory / "manifest.json", "labeled_set", _META_KEYS + ("layout",))
    meta = {k: doc[k] for k in _META_KEYS}
    X, Y = read_blob(directory / "data.f64", doc["layout"], ("X", "Y")).values()
    if X.shape != (meta["I"], meta["J"]) or Y.shape != (meta["I"], meta["M"]):
        raise ArtifactError("labeled set blob layout disagrees with manifest dimensions")
    return LabeledSet(X, Y, meta)
