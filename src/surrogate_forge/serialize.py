"""Versioned artifact persistence: JSON manifests plus raw float64 blobs,
and the CSV files the pipeline reports in.

All binary payloads are little-endian float64, row-major, written back to
back as named entries in the order the owning manifest's layout declares.
Loaders name the entries they expect and reject unknown format versions.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2


class ArtifactError(Exception):
    """Raised for missing, corrupt, or unsupported artifacts."""


def write_manifest(path: str | Path, kind: str, payload: dict) -> None:
    doc = {"format_version": FORMAT_VERSION, "kind": kind}
    doc.update(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # sort_keys keeps the byte stream reproducible across runs
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_manifest(path: str | Path, kind: str, keys: tuple[str, ...],
                  expect: dict | None = None) -> dict:
    """The manifest at path, refused unless it has this build's version, the
    given kind, every one of the given keys (those its caller reads) and, for
    each key of expect, the value expect gives: the run it must belong to."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ArtifactError(f"manifest {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ArtifactError(f"manifest {path} is not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"manifest {path} has format_version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    expect = {"kind": kind, **(expect or {})}
    for k, want in expect.items():
        # numbers match by value (a tau stored as 1 is tau 1.0), but a bool
        # only a bool, though Python counts True as 1
        if k in doc and (doc[k] != want or isinstance(doc[k], bool) != isinstance(want, bool)):
            raise ArtifactError(f"manifest {path} has {k} {doc[k]!r}, expected {want!r}")
    missing = [k for k in (*expect, *keys) if k not in doc]
    if missing:
        raise ArtifactError(f"manifest {path} lacks {', '.join(missing)}")
    return doc


def write_blob(path: str | Path, arrays: dict[str, np.ndarray]) -> list[dict]:
    """Write the named arrays back to back as <f8; returns one layout record
    (name, shape, offset) per array, in the mapping's order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    layout = []
    offset = 0
    with open(path, "wb") as fh:
        for name, arr in arrays.items():
            data = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(data.tobytes())
            layout.append({"name": name, "shape": list(data.shape), "offset": offset})
            offset += data.size * 8
    return layout


def read_blob(path: str | Path, layout: list[dict],
              names: tuple[str, ...] | list[str]) -> dict[str, np.ndarray]:
    """The arrays of a blob by name, refused unless its layout records name
    exactly names, in that order, and tile it back to back, as write_blob wrote it."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"blob not found: {path}")
    try:
        records = [(rec["name"], tuple(rec["shape"]), rec["offset"]) for rec in layout]
    except (KeyError, TypeError) as e:
        raise ArtifactError(f"blob {path} has a malformed layout: {e!r}") from e
    stored = [name for name, _, _ in records]
    if stored != list(names):
        raise ArtifactError(f"blob {path} holds {stored}; expected {list(names)}")
    raw = path.read_bytes()
    arrays = {}
    end = 0
    for name, shape, start in records:
        if not all(type(n) is int and n >= 0 for n in (*shape, start)):
            raise ArtifactError(f"blob {path} entry {name!r} has shape {list(shape)!r} "
                                f"and offset {start!r}; both must be nonnegative integers")
        if start != end:
            raise ArtifactError(f"blob {path} layout has offset {start} where {end} was expected")
        end = start + math.prod(shape) * 8
        if end > len(raw):
            raise ArtifactError(f"blob {path} truncated: need {end} bytes, have {len(raw)}")
        try:
            arrays[name] = np.frombuffer(raw[start:end], dtype="<f8").reshape(shape).copy()
        except ValueError as e:
            raise ArtifactError(f"blob {path} entry {name!r} has shape {list(shape)}: {e}") from e
    if end != len(raw):
        raise ArtifactError(f"blob {path} has {len(raw)} bytes; its layout covers {end}")
    return arrays


def write_csv(path: str | Path, columns: dict) -> None:
    """A header of the column names, then one line per row: integer columns
    as integers, every other value as %.17g, which round-trips float64.
    Refused unless every column is 1-D and all have one length."""
    cols = [np.asarray(c) for c in columns.values()]
    if any(c.ndim != 1 for c in cols) or len({c.size for c in cols}) > 1:
        raise ValueError(f"CSV columns must be 1-D and of one length, got shapes "
                         f"{[c.shape for c in cols]}")
    fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = (fmt % row for row in zip(*(c.tolist() for c in cols)))
    path.write_text("\n".join([",".join(columns), *rows]) + "\n")


def export_predictions_csv(path: str | Path, X, predictions) -> None:
    """Inputs x_0.., then y_0.. per draw of a matrix, or y_mean for a vector of means."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(predictions, dtype=float)
    ys = {"y_mean": Y} if Y.ndim == 1 else {f"y_{m}": Y[:, m] for m in range(Y.shape[1])}
    write_csv(path, {**{f"x_{j}": X[:, j] for j in range(X.shape[1])}, **ys})
