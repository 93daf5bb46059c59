import json

import numpy as np
import pytest

from surrogate_forge.serialize import (
    FORMAT_VERSION,
    ArtifactError,
    read_blob,
    read_manifest,
    write_blob,
    write_csv,
    write_manifest,
)


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "posterior", {"M": 5, "b": [1, 2]})
    doc = read_manifest(path, "posterior")
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["kind"] == "posterior"
    assert doc["M"] == 5 and doc["b"] == [1, 2]


def test_manifest_bytes_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"z": 1, "a": 2, "nested": {"y": 0, "x": 1}}
    write_manifest(a, "k", payload)
    write_manifest(b, "k", dict(reversed(payload.items())))
    assert a.read_bytes() == b.read_bytes()


def test_manifest_kind_mismatch(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "posterior", {})
    with pytest.raises(ArtifactError):
        read_manifest(path, "net")


def test_manifest_version_mismatch(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION + 1, "kind": "k"}))
    with pytest.raises(ArtifactError):
        read_manifest(path, "k")


def test_manifest_missing_or_corrupt(tmp_path):
    with pytest.raises(ArtifactError):
        read_manifest(tmp_path / "absent.json", "k")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ArtifactError):
        read_manifest(bad, "k")


def test_blob_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal(7),
              np.array([2.5])]
    path = tmp_path / "d.f64"
    layout = write_blob(path, arrays)
    assert [tuple(rec["shape"]) for rec in layout] == [(3, 4), (7,), (1,)]
    assert layout[0]["offset"] == 0
    assert layout[1]["offset"] == 3 * 4 * 8
    back = read_blob(path, layout)
    for got, want in zip(back, arrays):
        np.testing.assert_array_equal(got, np.asarray(want, dtype=float))


def test_blob_accepts_noncontiguous_input(tmp_path):
    base = np.arange(24, dtype=float).reshape(4, 6)
    view = base[:, ::2]  # stride-2 view
    path = tmp_path / "d.f64"
    layout = write_blob(path, [view])
    np.testing.assert_array_equal(read_blob(path, layout)[0], view)


def test_blob_truncation_detected(tmp_path):
    path = tmp_path / "d.f64"
    layout = write_blob(path, [np.ones(10)])
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ArtifactError):
        read_blob(path, layout)


def test_blob_missing_file(tmp_path):
    with pytest.raises(ArtifactError):
        read_blob(tmp_path / "absent.f64", [{"shape": [1], "offset": 0}])


def test_write_csv_layout(tmp_path):
    path = tmp_path / "new" / "dir" / "t.csv"
    write_csv(path, "a,b", (f"{i},{i * i}" for i in range(3)))
    assert path.read_text() == "a,b\n0,0\n1,1\n2,4\n"
    write_csv(path, "a,b", [])
    assert path.read_text() == "a,b\n"
