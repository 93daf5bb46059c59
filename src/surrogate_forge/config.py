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
from .bench import BenchConfig, InvarianceConfig
from .model_core import ModelSpec
from .posterior import SamplerConfig
from .surrogate import NetConfig
from .synth_data import DataGenConfig

WORKDIR_ENV = "SURROGATE_FORGE_WORKDIR"


class ConfigError(Exception):
    """Raised for unreadable, malformed, or invalid configuration."""


@dataclass(frozen=True)
class PathsConfig:
    workdir: str = "."
    artifacts: str = "artifacts"


_SECTIONS = {"model": ModelSpec, "sampler": SamplerConfig, "datagen": DataGenConfig,
             "net": NetConfig, "al": ALConfig, "invariance": InvarianceConfig,
             "bench": BenchConfig, "paths": PathsConfig}
# config keys of each section: its dataclass's fields, less those derived from the root
# seed, the model or datagen (al's tau and input_dist), plus model's ground-truth settings
_SECTION_KEYS = {name: {f.name for f in fields(cls)} - {"seed", "input_dim", "output_dim"}
                 - ({"tau", "input_dist"} if cls is ALConfig else set())
                 | ({"n_observed", "truth_sigma2"} if cls is ModelSpec else set())
                 for name, cls in _SECTIONS.items()}
_TOP_KEYS = set(_SECTIONS) | {"seed", "threads"}


@dataclass
class RunConfig:
    spec: ModelSpec
    n_observed: int
    truth_sigma2: float
    sampler: SamplerConfig
    datagen: DataGenConfig
    net: NetConfig
    al: ALConfig
    invariance: InvarianceConfig
    bench: BenchConfig
    artifacts: Path
    seed: int
    threads: int


def _section(doc: dict, name: str) -> dict:
    """The section called name as keyword arguments for its dataclass, refused if
    it holds an unknown key or a wrongly typed value for an int, float, str or
    tuple-of-numbers field (the dataclass checks the ranges); tuple fields come
    back as tuples."""
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    unknown = set(raw) - _SECTION_KEYS[name]
    if unknown:
        raise ConfigError(
            f"unknown keys in section {name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(_SECTION_KEYS[name])}")
    out = dict(raw)
    for f in fields(_SECTIONS[name]):
        if f.name not in raw:
            continue
        key, value = f"{name}.{f.name}", raw[f.name]
        if f.type == "int" and type(value) is not int:
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if f.type == "float":
            _check_number(key, value)
        if f.type == "str" and not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        if f.type == "tuple":
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
            for v in value:
                _check_number(f"{key} entry", v)
            out[f.name] = tuple(value)
    return out


def _build(name: str, kwargs: dict, **derived):
    """The section's dataclass from its keys plus the fields derived from the root
    seed and the sections it follows; a range error it raises names the section."""
    try:
        return _SECTIONS[name](**kwargs, **derived)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{name}: {e}") from e


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

    model_raw = _section(doc, "model")
    n_observed = model_raw.pop("n_observed", 1000)
    truth_sigma2 = model_raw.pop("truth_sigma2", 0.01)
    spec = _build("model", {"J": 5, **model_raw})
    sampler = _build("sampler", _section(doc, "sampler"), seed=root_seed)
    datagen = _build("datagen", {"I": 10000, **_section(doc, "datagen")}, seed=root_seed)
    net = _build("net", _section(doc, "net"), input_dim=spec.J,
                 output_dim=sampler.samples, seed=root_seed)
    al = _build("al", _section(doc, "al"), seed=root_seed, tau=datagen.tau,
                input_dist=datagen.input_dist)
    invariance = _build("invariance", _section(doc, "invariance"), seed=root_seed)
    if invariance.j >= spec.J:
        raise ConfigError(f"invariance: j must be < model.J ({spec.J}), got {invariance.j}")
    bench = _build("bench", _section(doc, "bench"))
    _check_int("model.n_observed", n_observed, 1)
    _check_number("model.truth_sigma2", truth_sigma2)
    if not truth_sigma2 >= 0:
        raise ConfigError("model.truth_sigma2 must be a number >= 0")

    paths = _build("paths", _section(doc, "paths"))
    workdir = Path(os.environ.get(WORKDIR_ENV) or paths.workdir)
    if not workdir.exists():
        raise ConfigError(f"workdir does not exist: {workdir}")
    artifacts = Path(out if out is not None else paths.artifacts)
    if not artifacts.is_absolute():
        artifacts = workdir / artifacts

    return RunConfig(spec=spec, n_observed=n_observed, truth_sigma2=truth_sigma2,
                     sampler=sampler, datagen=datagen, net=net, al=al,
                     invariance=invariance, bench=bench, artifacts=artifacts,
                     seed=root_seed, threads=n_threads)
