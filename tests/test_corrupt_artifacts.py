"""Property tests over corrupt artifacts. Whatever shorter length a blob is
cut to, and whichever layout entry is renamed, dropped, swapped with
another, reshaped or moved, the posterior, labeled-set and net loaders
refuse with ArtifactError and raise nothing else."""

import copy
import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surrogate_forge import ModelSpec
from surrogate_forge.posterior import load_posterior, save_posterior
from surrogate_forge.serialize import ArtifactError
from surrogate_forge.surrogate import NetConfig, init_net, load_net, save_net
from surrogate_forge.synth_data import (DataGenConfig, LabeledSet, load_labeled_set,
                                         save_labeled_set)

from draw_sets import make_draws

SPEC = ModelSpec(J=3)
POSTERIOR_SHA256 = "0" * 64


def _save_posterior(d):
    save_posterior(make_draws(SPEC, M=5, seed=1), d / "manifest.json", d / "data.f64")


def _save_labeled_set(d):
    rng = np.random.default_rng(0)
    save_labeled_set(LabeledSet(rng.random((6, 3)), rng.random((6, 5))), d,
                     DataGenConfig(I=6), POSTERIOR_SHA256)


def _save_net(d):
    # batch norm stores every kind of entry: weights, norm affine, running statistics
    net = init_net(NetConfig(input_dim=3, hidden_width=4, output_dim=5, norm="batch"))
    save_net(net, d / "manifest.json", d / "data.f64", POSTERIOR_SHA256)


# kind: (writer, loader, manifest key of the layout); every artifact is a
# manifest.json plus a data.f64 in one directory
ARTIFACTS = {
    "posterior": (_save_posterior,
                  lambda d: load_posterior(d / "manifest.json", d / "data.f64", SPEC), "layout"),
    "labeled_set": (_save_labeled_set, load_labeled_set, "layout"),
    "net": (_save_net, lambda d: load_net(d / "manifest.json", d / "data.f64"), "parameters"),
}
KINDS = pytest.mark.parametrize("kind", list(ARTIFACTS))


@functools.cache
def _stored(kind):
    """Manifest document and blob bytes of one valid artifact of kind."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        ARTIFACTS[kind][0](d)
        return json.loads((d / "manifest.json").read_text()), (d / "data.f64").read_bytes()


def _load(kind, doc, blob):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "manifest.json").write_text(json.dumps(doc))
        (d / "data.f64").write_bytes(blob)
        return ARTIFACTS[kind][1](d)


def _refused(kind, doc, blob):
    with pytest.raises(ArtifactError):
        _load(kind, doc, blob)


def _layout(kind):
    """A copy of the stored manifest and the layout list inside it."""
    doc = copy.deepcopy(_stored(kind)[0])
    return doc, doc[ARTIFACTS[kind][2]]


@KINDS
def test_untouched_artifact_loads(kind):
    _load(kind, *_stored(kind))


@KINDS
@given(data=st.data())
def test_truncated_blob_refused(kind, data):
    doc, blob = _stored(kind)
    _refused(kind, doc, blob[:data.draw(st.integers(0, len(blob) - 1))])


@KINDS
@given(data=st.data())
def test_renamed_entry_refused(kind, data):
    doc, layout = _layout(kind)
    rec = layout[data.draw(st.integers(0, len(layout) - 1))]
    rec["name"] = data.draw(st.text().filter(lambda n: n != rec["name"]))
    _refused(kind, doc, _stored(kind)[1])


@KINDS
@given(data=st.data())
def test_dropped_entry_refused(kind, data):
    doc, layout = _layout(kind)
    del layout[data.draw(st.integers(0, len(layout) - 1))]
    _refused(kind, doc, _stored(kind)[1])


@KINDS
@given(data=st.data())
def test_swapped_entry_names_refused(kind, data):
    # shapes and offsets stay put, so the blob still tiles; only the names moved
    doc, layout = _layout(kind)
    i, j = data.draw(st.lists(st.integers(0, len(layout) - 1), min_size=2, max_size=2,
                              unique=True))
    layout[i]["name"], layout[j]["name"] = layout[j]["name"], layout[i]["name"]
    _refused(kind, doc, _stored(kind)[1])


@KINDS
@given(data=st.data())
def test_reshaped_entry_refused(kind, data):
    # any other shape, or one with the same element count, which still tiles the blob
    doc, layout = _layout(kind)
    rec = layout[data.draw(st.integers(0, len(layout) - 1))]
    rec["shape"] = data.draw((st.lists(st.integers(0, 2 ** 64), max_size=3)
                              | st.permutations(rec["shape"] + [1])
                              | st.just([math.prod(rec["shape"])]))
                             .filter(lambda s: s != rec["shape"]))
    _refused(kind, doc, _stored(kind)[1])


@KINDS
@given(data=st.data())
def test_moved_entry_refused(kind, data):
    doc, layout = _layout(kind)
    rec = layout[data.draw(st.integers(0, len(layout) - 1))]
    rec["offset"] = data.draw(st.integers().filter(lambda o: o != rec["offset"]))
    _refused(kind, doc, _stored(kind)[1])
