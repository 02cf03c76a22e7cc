import base64
import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_separable
from reckoner.checkpoint import load_checkpoint, save_checkpoint
from reckoner.data import SplitSpec, split_dataset, standardize, synth_schema
from reckoner.errors import ConfigError
from reckoner.models import FeedForwardClassifier, NoiseWrapper
from reckoner.pipeline import ReckonerModel, TrainConfig, predict, train


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    d = make_separable(n=240, seed=42, m=3)
    tr, va, te = split_dataset(d, SplitSpec(0.6, 0.2, 0.2, seed=1))
    (tr, va, te), mean, std = standardize(tr, [va, te])
    cfg = TrainConfig(total_iterations=80, batch_size=32, hidden1=8, hidden2=4,
                      identifier_epochs=40, learning_rate=0.01, seed=5)
    model = train(tr, va, cfg)
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_checkpoint(path, model, d.schema, mean, std, manifest_sha256="abc123")
    return model, d.schema, te, path


def wide_model(m: int = 130) -> ReckonerModel:
    """An untrained model at width ``m`` with the default widths."""
    return ReckonerModel(FeedForwardClassifier.initialized(m, 64, 32, 1),
                         FeedForwardClassifier(m, 64, 32),
                         NoiseWrapper.initialized(m, m, 3), TrainConfig())


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """``trained``'s tuple for an untrained model at m = 130."""
    model = wide_model()
    rows = make_separable(n=64, seed=3, m=model.m)
    rng = np.random.default_rng(0)
    mean, std = rng.standard_normal(model.m), rng.uniform(0.5, 2.0, model.m)
    path = tmp_path_factory.mktemp("wide") / "model.json"
    save_checkpoint(path, model, rows.schema, mean, std)
    return model, rows.schema, rows, path


BLOB_KEYS = [("models", "high", "values"), ("models", "noise", "values"),
             ("models", "noise", "eta")]
PARAMETER_KEYS = BLOB_KEYS + [("standardize", "mean"), ("standardize", "std")]


def node_at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def decoded(blob: str) -> list[float]:
    """A version 3 blob's floats."""
    return np.frombuffer(base64.b64decode(blob), "<f8").tolist()


def as_v2(doc: dict) -> dict:
    """A copy of version 3 document ``doc`` as version 2: its blobs decoded
    to lists of floats."""
    doc = json.loads(json.dumps(doc))
    doc["format_version"] = 2
    for keys in BLOB_KEYS:
        parent = node_at(doc, keys[:-1])
        parent[keys[-1]] = decoded(parent[keys[-1]])
    return doc


@pytest.fixture(scope="module")
def trained_v2(trained, tmp_path_factory):
    """``trained``'s checkpoint turned back into version 2."""
    path = tmp_path_factory.mktemp("ckpt-v2") / "model.json"
    path.write_text(json.dumps(as_v2(json.loads(trained[3].read_text()))))
    return path


def edited(path, tmp_path, keys, value):
    """A copy of the checkpoint at ``path`` with the node at ``keys`` set;
    a callable ``value`` maps the node's old value to its new one."""
    doc = json.loads(path.read_text())
    parent = node_at(doc, keys[:-1])
    parent[keys[-1]] = value(parent[keys[-1]]) if callable(value) else value
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    return bad


def blob_edit(edit):
    """An ``edited`` value that applies ``edit`` to a blob's decoded bytes."""
    return lambda blob: base64.b64encode(edit(base64.b64decode(blob))).decode("ascii")


class TestCheckpointRoundtrip:
    def test_scores_are_bit_identical_after_reload(self, trained):
        model, _, te, path = trained
        loaded = load_checkpoint(path)
        _, before = predict(model, te.x)
        _, after = predict(loaded.model, te.x)
        np.testing.assert_array_equal(before, after)

    def test_config_and_metadata_survive(self, trained):
        model, schema, _, path = trained
        loaded = load_checkpoint(path)
        assert loaded.model.config == model.config
        assert loaded.manifest_sha256 == "abc123"
        assert loaded.schema == schema

    def test_standardization_stats_survive(self, trained):
        model, _, _, path = trained
        loaded = load_checkpoint(path)
        assert loaded.mean.shape == (model.m,)
        assert loaded.std.shape == (model.m,)

    def test_v3_holds_exactly_the_serving_keys(self, trained):
        _, _, _, path = trained
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 3
        assert set(doc) == {"format_version", "kind", "config", "config_hash", "m",
                            "models", "standardize", "schema", "manifest_sha256"}
        assert set(doc["models"]) == {"high", "noise"}
        assert all(type(node_at(doc, keys)) is str for keys in BLOB_KEYS)

    @pytest.mark.parametrize("which", ["trained", "wide"], ids=["m3", "m130"])
    def test_v2_document_loads_bit_for_bit(self, request, which, tmp_path):
        """A version 3 document turned back into version 2 (its blobs as
        float lists) loads every parameter's bits and scores alike."""
        model, _, rows, path = request.getfixturevalue(which)
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps(as_v2(json.loads(path.read_text()))))
        loaded = load_checkpoint(v2).model
        for got, want in ((loaded.high.params.values, model.high.params.values),
                          (loaded.noise.params.values, model.noise.params.values),
                          (loaded.noise.eta, model.noise.eta)):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(predict(loaded, rows.x)[1], predict(model, rows.x)[1])

    def test_v1_document_loads_and_predicts_bit_identically(self, trained, tmp_path):
        model, _, te, path = trained
        doc = as_v2(json.loads(path.read_text()))
        doc["format_version"] = 1
        doc["seed"] = model.config.seed
        doc["models"]["low"] = {"layout": doc["models"]["high"]["layout"],
                                "values": model.low.params.values.tolist()}
        doc["models"]["identifier"] = {
            "layout": {"segments": [["w", [model.m]], ["b", [1]]]},
            "values": [0.0] * (model.m + 1),
        }
        doc["low_snapshot"] = model.low_snapshot.values.tolist()
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(doc))
        loaded = load_checkpoint(v1)
        np.testing.assert_array_equal(predict(loaded.model, te.x)[1],
                                      predict(model, te.x)[1])

    @pytest.mark.parametrize("version", [99, True, 1.0, 2.0, 3.0])
    def test_version_mismatch_rejected(self, trained, tmp_path, version):
        """Only the JSON integers 1, 2 and 3 are versions: Python's ``in``
        would take ``true`` for 1 and ``2.0`` for 2."""
        _, _, _, path = trained
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="unsupported checkpoint version"):
            load_checkpoint(bad)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path / "missing.json")

    @pytest.mark.parametrize("keys", PARAMETER_KEYS, ids=".".join)
    def test_null_parameter_rejected(self, trained_v2, tmp_path, keys):
        """``null`` reads as NaN; a model holding one would still score rows.
        On a version 2 document, whose parameters are lists."""
        bad = edited(trained_v2, tmp_path, keys + (0,), None)
        with pytest.raises(ConfigError, match=f"non-finite value in {'.'.join(keys)}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("value", ["0.49", True], ids=["string", "true"])
    @pytest.mark.parametrize("keys", PARAMETER_KEYS, ids=".".join)
    def test_non_number_parameter_rejected(self, trained_v2, tmp_path, keys, value):
        """numpy would read ``"0.49"`` as 0.49 and ``true`` as 1.0. On a
        version 2 document, whose parameters are lists."""
        bad = edited(trained_v2, tmp_path, keys + (0,), value)
        with pytest.raises(ConfigError, match=f"non-numeric value in {'.'.join(keys)}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit", [lambda n: n + 0.7, float, str, lambda n: True],
                             ids=["fraction", "integral-float", "string", "true"])
    @pytest.mark.parametrize("keys", [("m",), ("models", "noise", "hidden")],
                             ids=".".join)
    def test_non_integer_width_rejected(self, trained, tmp_path, keys, edit):
        """``int()`` would truncate 3.7 to 3 and accept ``"3"``."""
        model = trained[0]
        bad = edited(trained[3], tmp_path, keys, edit(model.m))
        with pytest.raises(ConfigError, match="must be a JSON integer"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("value", [None, True, 0, 1.5, {}], ids=repr)
    @pytest.mark.parametrize("keys", BLOB_KEYS, ids=".".join)
    def test_blob_that_is_not_a_string_rejected(self, trained, tmp_path, keys, value):
        bad = edited(trained[3], tmp_path, keys, value)
        with pytest.raises(ConfigError, match=f"{'.'.join(keys)} must be a base64 string"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("keys", BLOB_KEYS, ids=".".join)
    def test_list_in_a_v3_document_rejected(self, trained, tmp_path, keys):
        """The version 2 form of a vector, its exact floats, in a version 3
        document."""
        bad = edited(trained[3], tmp_path, keys, decoded)
        with pytest.raises(ConfigError, match=f"{'.'.join(keys)} must be a base64 string"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("keys", BLOB_KEYS, ids=".".join)
    def test_blob_in_a_v1_or_v2_document_rejected(self, trained, trained_v2, tmp_path,
                                                  keys, version):
        doc = json.loads(trained_v2.read_text())
        doc["format_version"] = version
        node_at(doc, keys[:-1])[keys[-1]] = node_at(json.loads(trained[3].read_text()), keys)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"non-numeric value in {'.'.join(keys)}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit", [
        lambda blob: "not base64!",
        lambda blob: blob[:-1],
        lambda blob: "AA",
        lambda blob: blob + "====",
        lambda blob: blob + "==",
        lambda blob: blob[:8] + "\n" + blob[8:],
        lambda blob: "é" + blob[1:],
    ], ids=["punctuation", "truncated", "missing-padding", "excess-padding",
            "padding-after-the-last-quantum", "newline", "non-ascii"])
    @pytest.mark.parametrize("keys", BLOB_KEYS, ids=".".join)
    def test_invalid_base64_rejected(self, trained, tmp_path, keys, edit):
        bad = edited(trained[3], tmp_path, keys, edit)
        with pytest.raises(ConfigError, match=f"invalid base64 in {'.'.join(keys)}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: raw[:-3], "not a whole number of float64s"),
        (lambda raw: raw + b"\0", "not a whole number of float64s"),
        (lambda raw: raw[:-8], "values, expected"),
        (lambda raw: raw + raw[:8], "values, expected"),
        (lambda raw: b"", "values, expected"),
    ], ids=["3-bytes-short", "1-byte-long", "1-float-short", "1-float-long", "empty"])
    @pytest.mark.parametrize("keys", BLOB_KEYS, ids=".".join)
    def test_blob_of_the_wrong_size_rejected(self, trained, tmp_path, keys, edit, match):
        """A blob's bytes must be whole float64s, as many as the layout's
        size (``m`` for ``eta``)."""
        bad = edited(trained[3], tmp_path, keys, blob_edit(edit))
        with pytest.raises(ConfigError, match=f"{'.'.join(keys)} holds .*{match}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("keys", BLOB_KEYS, ids=".".join)
    def test_non_finite_blob_value_rejected(self, trained, tmp_path, keys, x):
        first = blob_edit(lambda raw: np.array([x], "<f8").tobytes() + raw[8:])
        bad = edited(trained[3], tmp_path, keys, first)
        with pytest.raises(ConfigError, match=f"non-finite value in {'.'.join(keys)}"):
            load_checkpoint(bad)


def test_save_peak_stays_under_1_4_mb(tmp_path):
    """Saving a checkpoint at m = 130 with the default widths allocates less
    than 1.4 MB at its peak (tracemalloc): each vector is encoded from its
    array's buffer and the encoder's chunks stream to the file, never joined
    into one string. Measured: 1.28 MB for a 0.49 MB file; 1.58 MB with the
    document joined into one string, and 1.58 MB for version 2's 1.15 MB
    of float lists, streamed."""
    m = 130
    model = wide_model(m)
    rng = np.random.default_rng(0)
    mean, std = rng.standard_normal(m), rng.uniform(0.5, 2.0, m)
    path = tmp_path / "checkpoint.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_checkpoint(path, model, synth_schema(m), mean, std, manifest_sha256="abc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 400_000
    assert peak - before < 1_400_000, peak - before
