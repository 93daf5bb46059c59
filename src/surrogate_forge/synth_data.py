"""Surrogate training data synthesis.

Inputs are sampled from a configured distribution, coordinates are zeroed
by Bernoulli masks with keep-probability tau, and each row is labeled with
the per-draw expectation vector from the reference predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bm_predict import predict_batch
from .model_core import ModelSpec
from .posterior import PosteriorDraws
from .seeds import substream
from .serialize import ArtifactError, read_blob, read_manifest, write_blob, write_manifest

INPUT_DISTS = ("uniform01", "standard_gaussian")


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


def generate(spec: ModelSpec, draws: PosteriorDraws, cfg: DataGenConfig,
             threads: int = 1) -> LabeledSet:
    """New inputs with dropout masking, labeled by the reference predictor
    on `threads` threads.

    Stream order is fixed: all masks first, then all inputs, so the same
    seed always yields the same set, whatever the thread count.
    """
    rng = substream(cfg.seed, "data-gen")
    mask = rng.random((cfg.I, spec.J)) < cfg.tau
    X = _draw_inputs(rng, cfg.input_dist, (cfg.I, spec.J))
    return generate_at(spec, draws, np.where(mask, X, 0.0), threads)


def generate_at(spec: ModelSpec, draws: PosteriorDraws, X_fixed,
                threads: int = 1) -> LabeledSet:
    """Label caller-provided inputs as-is: no masking, no resampling."""
    X_fixed = np.asarray(X_fixed, dtype=float)
    if X_fixed.ndim != 2 or X_fixed.shape[1] != spec.J:
        raise ValueError(f"X_fixed must be (N, {spec.J})")
    if not np.all(np.isfinite(X_fixed)):
        raise ValueError("X_fixed must be finite")
    return LabeledSet(X_fixed.copy(), predict_batch(spec, draws, X_fixed, threads))


def save_labeled_set(ls: LabeledSet, directory, cfg: DataGenConfig,
                     posterior_sha256: str) -> None:
    """Write manifest.json (dims from the arrays, provenance from cfg and the
    digest of the posterior blob that labelled it, blob layout) and data.f64
    (X then Y)."""
    directory = Path(directory)
    layout = write_blob(directory / "data.f64", {"X": ls.X, "Y": ls.Y})
    write_manifest(directory / "manifest.json", "labeled_set", {
        "I": len(ls), "J": ls.X.shape[1], "M": ls.Y.shape[1], "tau": cfg.tau,
        "seed": cfg.seed, "input_dist": cfg.input_dist, "layout": layout,
        "posterior_sha256": posterior_sha256})


def load_labeled_set(directory, expect: dict | None = None) -> LabeledSet:
    """The stored set, refused unless its manifest holds expect's values."""
    directory = Path(directory)
    doc = read_manifest(directory / "manifest.json", "labeled_set",
                        ("I", "J", "M", "tau", "seed", "input_dist", "layout"), expect)
    X, Y = read_blob(directory / "data.f64", doc["layout"], ("X", "Y")).values()
    if X.shape != (doc["I"], doc["J"]) or Y.shape != (doc["I"], doc["M"]):
        raise ArtifactError("labeled set blob layout disagrees with manifest dimensions")
    return LabeledSet(X, Y)
