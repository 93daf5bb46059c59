import json

import numpy as np
import pytest

from surrogate_forge import predict_batch
from surrogate_forge.serialize import (
    FORMAT_VERSION,
    ArtifactError,
    export_predictions_csv,
    read_blob,
    read_manifest,
    write_blob,
    write_csv,
    write_manifest,
)

from draw_sets import make_draws


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "posterior", {"M": 5, "b": [1, 2]})
    doc = read_manifest(path, "posterior", ("M", "b"))
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
        read_manifest(path, "net", ())


def test_manifest_version_mismatch(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION + 1, "kind": "k"}))
    with pytest.raises(ArtifactError):
        read_manifest(path, "k", ())


def test_manifest_missing_key(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "k", {"M": 5})
    with pytest.raises(ArtifactError, match="lacks layout, J"):
        read_manifest(path, "k", ("M", "layout", "J"))


def test_manifest_expect_refuses_another_value(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "k", {"seed": 3, "tau": 0.8, "digest": "ab"})
    doc = read_manifest(path, "k", ("tau",), {"seed": 3, "digest": "ab"})
    assert doc["seed"] == 3 and doc["tau"] == 0.8
    with pytest.raises(ArtifactError, match=r"has seed 3, expected 4$"):
        read_manifest(path, "k", (), {"seed": 4})
    with pytest.raises(ArtifactError, match=r"has digest 'ab', expected 'cd'$"):
        read_manifest(path, "k", (), {"tau": 0.8, "digest": "cd"})
    with pytest.raises(ArtifactError, match=r"lacks I$"):
        read_manifest(path, "k", (), {"I": 64})
    # the kind is refused first, under the same rule
    with pytest.raises(ArtifactError, match=r"has kind 'k', expected 'net'$"):
        read_manifest(path, "net", (), {"seed": 4})


def test_manifest_expect_matches_a_bool_only_with_a_bool(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "k", {"seed": True, "flag": 1})
    assert read_manifest(path, "k", (), {"seed": True})["seed"] is True
    with pytest.raises(ArtifactError, match=r"has seed True, expected 1$"):
        read_manifest(path, "k", (), {"seed": 1})
    with pytest.raises(ArtifactError, match=r"has flag 1, expected True$"):
        read_manifest(path, "k", (), {"flag": True})


def test_manifest_expect_matches_int_and_float_by_value(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "k", {"tau": 1, "I": 64.0})
    assert read_manifest(path, "k", (), {"tau": 1.0, "I": 64})["tau"] == 1
    with pytest.raises(ArtifactError, match=r"has tau 1, expected 1.5$"):
        read_manifest(path, "k", (), {"tau": 1.5})


def test_manifest_missing_or_corrupt(tmp_path):
    with pytest.raises(ArtifactError):
        read_manifest(tmp_path / "absent.json", "k", ())
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[1, 2]"):
        bad.write_text(text)
        with pytest.raises(ArtifactError):
            read_manifest(bad, "k", ())


def test_blob_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(7),
              "c": np.array([2.5])}
    path = tmp_path / "d.f64"
    layout = write_blob(path, arrays)
    assert [rec["name"] for rec in layout] == ["a", "b", "c"]
    assert [tuple(rec["shape"]) for rec in layout] == [(3, 4), (7,), (1,)]
    assert layout[0]["offset"] == 0
    assert layout[1]["offset"] == 3 * 4 * 8
    back = read_blob(path, layout, ("a", "b", "c"))
    assert list(back) == ["a", "b", "c"]
    for name, want in arrays.items():
        np.testing.assert_array_equal(back[name], np.asarray(want, dtype=float))


def test_blob_accepts_noncontiguous_input(tmp_path):
    base = np.arange(24, dtype=float).reshape(4, 6)
    view = base[:, ::2]  # stride-2 view
    path = tmp_path / "d.f64"
    layout = write_blob(path, {"v": view})
    np.testing.assert_array_equal(read_blob(path, layout, ("v",))["v"], view)


@pytest.mark.parametrize("names", [("x", "z"), ("y", "x"), ("x",), ("x", "y", "z")],
                         ids=["renamed", "swapped", "one_dropped", "one_extra"])
def test_blob_names_must_match_exactly(tmp_path, names):
    path = tmp_path / "d.f64"
    layout = write_blob(path, {"x": np.ones(2), "y": np.ones(2)})
    with pytest.raises(ArtifactError, match="expected"):
        read_blob(path, layout, names)


def test_blob_truncation_detected(tmp_path):
    path = tmp_path / "d.f64"
    layout = write_blob(path, {"a": np.ones(10)})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ArtifactError):
        read_blob(path, layout, ("a",))


def test_blob_trailing_bytes_detected(tmp_path):
    path = tmp_path / "d.f64"
    layout = write_blob(path, {"a": np.ones(10)})
    path.write_bytes(path.read_bytes() + bytes(64))
    with pytest.raises(ArtifactError, match="covers"):
        read_blob(path, layout, ("a",))


def test_blob_layout_with_a_gap_detected(tmp_path):
    path = tmp_path / "d.f64"
    write_blob(path, {"a": np.ones(10)})
    layout = [{"name": "a", "shape": [4], "offset": 0},
              {"name": "b", "shape": [5], "offset": 40}]
    with pytest.raises(ArtifactError, match="offset"):
        read_blob(path, layout, ("a", "b"))


@pytest.mark.parametrize("layout", [
    [{"name": "a", "shape": [2]}], [{"name": "a", "offset": 0}], [{"shape": [2], "offset": 0}],
    [{"name": "a", "shape": ["a"], "offset": 0}], [{"name": "a", "shape": [2.0], "offset": 0}],
    [{"name": "a", "shape": [-2], "offset": 0}], [{"name": "a", "shape": [2], "offset": 0.0}],
    [{"name": "a", "shape": [0, 2 ** 64], "offset": 0}], [[2, 0]], 5,
], ids=["no_offset", "no_shape", "no_name", "bad_shape", "float_shape", "negative_shape",
        "float_offset", "huge_empty_shape", "record_not_object", "not_a_list"])
def test_blob_malformed_layout_detected(tmp_path, layout):
    path = tmp_path / "b.f64"
    write_blob(path, {"a": np.zeros(2)})
    with pytest.raises(ArtifactError):
        read_blob(path, layout, ("a",))


def test_blob_missing_file(tmp_path):
    with pytest.raises(ArtifactError):
        read_blob(tmp_path / "absent.f64", [{"name": "a", "shape": [1], "offset": 0}], ("a",))


def test_write_csv_layout(tmp_path):
    path = tmp_path / "new" / "dir" / "t.csv"
    write_csv(path, {"a": np.arange(3), "b": np.arange(3) ** 2})
    assert path.read_text() == "a,b\n0,0\n1,1\n2,4\n"
    write_csv(path, {"a": np.arange(0), "b": np.zeros(0)})
    assert path.read_text() == "a,b\n"


@pytest.mark.parametrize("columns", [
    {"a": np.zeros(3), "b": np.zeros(2)},
    {"a": np.zeros((3, 1))},
], ids=["unequal_lengths", "two_dimensional"])
def test_write_csv_refuses_misshapen_columns(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", columns)
    assert not (tmp_path / "t.csv").exists()


def test_write_csv_prints_int_columns_as_integers(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"n": np.array([0, 2**60, -7]), "x": np.array([1.0, 2.5, -3.0])})
    assert path.read_text() == f"n,x\n0,1\n{2**60},2.5\n-7,-3\n"


def test_write_csv_floats_round_trip_bitwise(tmp_path):
    x = np.array([1e-320, -0.0, 0.1, 1e300])
    path = tmp_path / "t.csv"
    write_csv(path, {"x": x})
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.tobytes() == x.tobytes()


class TestExportCsv:
    def test_draw_matrix_round_trip(self, tmp_path, spec3):
        draws = make_draws(spec3, M=4, seed=9)
        X = np.random.default_rng(8).random((6, 3))
        preds = predict_batch(spec3, draws, X)
        path = tmp_path / "p.csv"
        export_predictions_csv(path, X, preds)
        header = path.read_text().splitlines()[0]
        assert header == "x_0,x_1,x_2,y_0,y_1,y_2,y_3"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, :3], X)
        np.testing.assert_array_equal(back[:, 3:], preds)

    def test_mean_vector_header(self, tmp_path, spec3):
        draws = make_draws(spec3, M=4, seed=9)
        X = np.random.default_rng(8).random((5, 3))
        means = predict_batch(spec3, draws, X).mean(axis=1)
        path = tmp_path / "p.csv"
        export_predictions_csv(path, X, means)
        assert path.read_text().splitlines()[0] == "x_0,x_1,x_2,y_mean"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 3], means)
