"""Versioned artifact persistence: JSON manifests plus raw float64 blobs.

All binary payloads are little-endian float64, row-major, written in the
order declared by the owning manifest. Loaders reject unknown format
versions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class ArtifactError(Exception):
    """Raised for missing, corrupt, or unsupported artifacts."""


def write_manifest(path: str | Path, kind: str, payload: dict) -> None:
    doc = {"format_version": FORMAT_VERSION, "kind": kind}
    doc.update(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # sort_keys keeps the byte stream reproducible across runs
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_manifest(path: str | Path, kind: str, keys: tuple[str, ...]) -> dict:
    """The manifest at path, refused unless it has this build's version, the
    given kind and every one of the given keys, which are those its caller reads."""
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
    if doc.get("kind") != kind:
        raise ArtifactError(f"manifest {path} has kind {doc.get('kind')!r}, expected {kind!r}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ArtifactError(f"manifest {path} lacks {', '.join(missing)}")
    return doc


def write_blob(path: str | Path, arrays: list[np.ndarray]) -> list[dict]:
    """Write arrays back to back as <f8; returns per-array layout records."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    layout = []
    offset = 0
    with open(path, "wb") as fh:
        for arr in arrays:
            data = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(data.tobytes())
            layout.append({"shape": list(data.shape), "offset": offset})
            offset += data.size * 8
    return layout


def read_blob(path: str | Path, layout: list[dict]) -> list[np.ndarray]:
    """Arrays of a blob whose layout records tile it back to back, as write_blob wrote it."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"blob not found: {path}")
    try:
        records = [(tuple(int(s) for s in rec["shape"]), int(rec["offset"])) for rec in layout]
    except (KeyError, TypeError, ValueError) as e:
        raise ArtifactError(f"blob {path} has a malformed layout: {e!r}") from e
    raw = path.read_bytes()
    arrays = []
    end = 0
    for shape, start in records:
        count = int(np.prod(shape)) if shape else 1
        if start != end:
            raise ArtifactError(f"blob {path} layout has offset {start} where {end} was expected")
        end = start + count * 8
        if end > len(raw):
            raise ArtifactError(f"blob {path} truncated: need {end} bytes, have {len(raw)}")
        arrays.append(np.frombuffer(raw[start:end], dtype="<f8").reshape(shape).copy())
    if end != len(raw):
        raise ArtifactError(f"blob {path} has {len(raw)} bytes; its layout covers {end}")
    return arrays


def write_csv(path: str | Path, header: str, lines) -> None:
    """Write a header line and the given rows, one per line, newline-terminated."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header, *lines]) + "\n")
