"""Strict JSON run configuration.

One file describes a whole pipeline run. Unknown keys anywhere are
rejected so typos fail loudly instead of silently using defaults. All
randomness flows from the single root seed; per-component seeds are
derived, never configured directly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .active_learning import ALConfig
from .bench import InvarianceConfig
from .model_core import ModelSpec
from .posterior import SamplerConfig
from .surrogate import NetConfig
from .synth_data import DataGenConfig

WORKDIR_ENV = "SURROGATE_FORGE_WORKDIR"


class ConfigError(Exception):
    """Raised for unreadable, malformed, or invalid configuration."""


_BENCH_DEFAULTS = {"J_list": [2, 5, 10, 20], "M": 200, "N_test": 5000,
                   "n_observed": 1000, "reps": 5, "warmup": 500,
                   "calibration_pool": 2000, "calibration_K": 50}
_INV_EXTRA_DEFAULTS = {"train_size": 10000, "val_size": 2000,
                       "intra_patience": 20, "max_epochs": 200}


def _fields(cls, *skip) -> set:
    """Config keys of a dataclass section: its fields minus the derived seed."""
    return {f.name for f in fields(cls)} - {"seed", *skip}


_SECTION_KEYS = {
    "model": _fields(ModelSpec) | {"n_observed", "truth_sigma2"},
    "sampler": _fields(SamplerConfig),
    "datagen": _fields(DataGenConfig),
    "net": _fields(NetConfig, "input_dim", "output_dim"),
    "al": _fields(ALConfig),
    "invariance": _fields(InvarianceConfig) | set(_INV_EXTRA_DEFAULTS),
    "bench": set(_BENCH_DEFAULTS),
    "paths": {"workdir", "artifacts"},
}
_TOP_KEYS = set(_SECTION_KEYS) | {"seed", "threads"}


@dataclass
class RunConfig:
    spec: ModelSpec
    n_observed: int
    truth_sigma2: float
    sampler: SamplerConfig
    datagen: DataGenConfig
    net_kwargs: dict
    al: ALConfig
    invariance: InvarianceConfig
    inv_extra: dict
    bench: dict
    workdir: Path
    artifacts: Path
    seed: int
    threads: int


def _check_keys(section: str, given: dict) -> None:
    unknown = set(given) - _SECTION_KEYS[section]
    if unknown:
        raise ConfigError(
            f"unknown keys in section {section!r}: {sorted(unknown)}; "
            f"allowed: {sorted(_SECTION_KEYS[section])}")


def _section(doc: dict, name: str) -> dict:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    _check_keys(name, raw)
    return dict(raw)


def load_config(path=None, *, seed=None, threads=None, out=None) -> RunConfig:
    """Build a RunConfig from a JSON file plus CLI overrides.

    path None means all defaults. seed/threads/out, when given, override
    the file. The workdir environment variable beats the file's workdir.
    """
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    else:
        doc = {}

    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}; "
                          f"allowed: {sorted(_TOP_KEYS)}")

    root_seed = doc.get("seed", 0)
    if seed is not None:
        root_seed = seed
    if not isinstance(root_seed, int):
        raise ConfigError("seed must be an integer")

    n_threads = doc.get("threads", os.cpu_count() or 1)
    if threads is not None:
        n_threads = threads
    if not isinstance(n_threads, int) or n_threads < 1:
        raise ConfigError("threads must be a positive integer")

    model_raw = _section(doc, "model")
    n_observed = model_raw.pop("n_observed", 1000)
    truth_sigma2 = model_raw.pop("truth_sigma2", 0.01)
    model_raw.setdefault("J", 5)
    try:
        spec = ModelSpec(**model_raw)
        sampler = SamplerConfig(**_section(doc, "sampler"), seed=root_seed)
        datagen_raw = _section(doc, "datagen")
        datagen_raw.setdefault("I", 10000)
        datagen = DataGenConfig(**datagen_raw, seed=root_seed)
        net_kwargs = _section(doc, "net")
        al = ALConfig(**_section(doc, "al"), seed=root_seed)
        inv_raw = _section(doc, "invariance")
        inv_extra = {k: inv_raw.pop(k, v) for k, v in _INV_EXTRA_DEFAULTS.items()}
        for key in ("tau_values", "c_values"):
            if key in inv_raw:
                inv_raw[key] = tuple(inv_raw[key])
        invariance = InvarianceConfig(**inv_raw)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    if not isinstance(n_observed, int) or n_observed < 1:
        raise ConfigError("model.n_observed must be a positive integer")
    if not truth_sigma2 >= 0:
        raise ConfigError("model.truth_sigma2 must be >= 0")

    bench = dict(_BENCH_DEFAULTS)
    bench.update(_section(doc, "bench"))

    paths = _section(doc, "paths")
    workdir = os.environ.get(WORKDIR_ENV) or paths.get("workdir", ".")
    workdir = Path(workdir)
    if not workdir.exists():
        raise ConfigError(f"workdir does not exist: {workdir}")
    artifacts = Path(out) if out is not None else Path(paths.get("artifacts", "artifacts"))
    if not artifacts.is_absolute():
        artifacts = workdir / artifacts

    return RunConfig(spec=spec, n_observed=n_observed, truth_sigma2=truth_sigma2,
                     sampler=sampler, datagen=datagen, net_kwargs=net_kwargs,
                     al=al, invariance=invariance, inv_extra=inv_extra,
                     bench=bench, workdir=workdir, artifacts=artifacts,
                     seed=root_seed, threads=n_threads)


def build_net_config(cfg: RunConfig, input_dim: int, output_dim: int) -> NetConfig:
    try:
        return NetConfig(input_dim=input_dim, output_dim=output_dim,
                         seed=cfg.seed, **cfg.net_kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
