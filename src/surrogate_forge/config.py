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
# least value of each integer bench key: a rank correlation needs 2 rows, a dropout σ 2 passes
_INT_MINIMUMS = {"M": 1, "N_test": 1, "n_observed": 1, "reps": 1, "warmup": 0,
                 "calibration_pool": 2, "calibration_K": 2}


def _fields(cls, *skip) -> set:
    """Config keys of a dataclass section: its fields minus the derived seed."""
    return {f.name for f in fields(cls)} - {"seed", *skip}


_SECTION_KEYS = {
    "model": _fields(ModelSpec) | {"n_observed", "truth_sigma2"},
    "sampler": _fields(SamplerConfig),
    "datagen": _fields(DataGenConfig),
    "net": _fields(NetConfig, "input_dim", "output_dim"),
    "al": _fields(ALConfig),
    "invariance": _fields(InvarianceConfig),
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


def _section(doc: dict, name: str, cls) -> dict:
    """The section called name, refused if it holds an unknown key or, when cls
    is its dataclass, a wrongly typed value for an int, float or tuple-of-numbers
    field (the dataclass checks the ranges); tuple fields come back as tuples."""
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    _check_keys(name, raw)
    out = dict(raw)
    for f in fields(cls) if cls else ():
        if f.name not in raw:
            continue
        key, value = f"{name}.{f.name}", raw[f.name]
        if f.type == "int" and type(value) is not int:
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if f.type == "float":
            _check_number(key, value)
        if f.type == "tuple":
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
            for v in value:
                _check_number(f"{key} entry", v)
            out[f.name] = tuple(value)
    return out


def _check_int(name: str, value, low: int) -> None:
    # type(...) is int also refuses a bool, which isinstance would let through
    if type(value) is not int or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_number(name: str, value) -> None:
    if type(value) not in (int, float):  # refuses a bool, as above
        raise ConfigError(f"{name} must be a number, got {value!r}")


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
    if type(root_seed) is not int:
        raise ConfigError("seed must be an integer")

    n_threads = doc.get("threads", os.cpu_count() or 1)
    if threads is not None:
        n_threads = threads
    _check_int("threads", n_threads, 1)

    model_raw = _section(doc, "model", ModelSpec)
    n_observed = model_raw.pop("n_observed", 1000)
    truth_sigma2 = model_raw.pop("truth_sigma2", 0.01)
    model_raw.setdefault("J", 5)
    try:
        spec = ModelSpec(**model_raw)
        sampler = SamplerConfig(**_section(doc, "sampler", SamplerConfig), seed=root_seed)
        datagen_raw = _section(doc, "datagen", DataGenConfig)
        datagen_raw.setdefault("I", 10000)
        datagen = DataGenConfig(**datagen_raw, seed=root_seed)
        net_kwargs = _section(doc, "net", NetConfig)
        al = ALConfig(**_section(doc, "al", ALConfig), seed=root_seed)
        invariance = InvarianceConfig(**_section(doc, "invariance", InvarianceConfig),
                                      seed=root_seed)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    _check_int("model.n_observed", n_observed, 1)
    if type(truth_sigma2) not in (int, float) or not truth_sigma2 >= 0:
        raise ConfigError("model.truth_sigma2 must be a number >= 0")

    bench = dict(_BENCH_DEFAULTS)
    bench.update(_section(doc, "bench", None))
    J_list = bench["J_list"]
    if not isinstance(J_list, list) or not J_list:
        raise ConfigError(f"bench.J_list must be a nonempty list of integers, got {J_list!r}")
    for J in J_list:
        _check_int("bench.J_list entry", J, 1)
    for key, minimum in _INT_MINIMUMS.items():
        _check_int(f"bench.{key}", bench[key], minimum)

    paths = _section(doc, "paths", None)
    workdir = os.environ.get(WORKDIR_ENV) or paths.get("workdir", ".")
    workdir = Path(workdir)
    if not workdir.exists():
        raise ConfigError(f"workdir does not exist: {workdir}")
    artifacts = Path(out) if out is not None else Path(paths.get("artifacts", "artifacts"))
    if not artifacts.is_absolute():
        artifacts = workdir / artifacts

    return RunConfig(spec=spec, n_observed=n_observed, truth_sigma2=truth_sigma2,
                     sampler=sampler, datagen=datagen, net_kwargs=net_kwargs,
                     al=al, invariance=invariance, bench=bench, workdir=workdir,
                     artifacts=artifacts, seed=root_seed, threads=n_threads)


def build_net_config(cfg: RunConfig, input_dim: int, output_dim: int) -> NetConfig:
    try:
        return NetConfig(input_dim=input_dim, output_dim=output_dim,
                         seed=cfg.seed, **cfg.net_kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
