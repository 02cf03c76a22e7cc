import base64
import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_separable, v3_checkpoint_dict
from reckoner.checkpoint import load_checkpoint, save_checkpoint
from reckoner.data import SplitSpec, split_dataset, standardize, synth_schema
from reckoner.errors import ConfigError
from reckoner.models import FeedForwardClassifier, NoiseWrapper
from reckoner.pipeline import ReckonerModel, ServingModel, TrainConfig, predict, train
from reckoner.serial import write_json


def v3_of(path):
    """Where ``save_both`` writes the version 3 document of ``path``'s model."""
    return path.with_name("v3-" + path.name)


def save_both(path, model, schema, mean, std, manifest_sha256=None):
    """Save ``model`` to ``path``, and as version 3 to ``v3_of(path)``."""
    save_checkpoint(path, model, schema, mean, std, manifest_sha256=manifest_sha256)
    write_json(v3_of(path), v3_checkpoint_dict(model, schema, mean, std, manifest_sha256))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    d = make_separable(n=240, seed=42, m=3)
    tr, va, te = split_dataset(d, SplitSpec(0.6, 0.2, 0.2, seed=1))
    (tr, va, te), mean, std = standardize(tr, [va, te])
    cfg = TrainConfig(total_iterations=80, batch_size=32, hidden1=8, hidden2=4,
                      identifier_epochs=40, learning_rate=0.01, seed=5)
    model = train(tr, va, cfg)
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_both(path, model, d.schema, mean, std, manifest_sha256="abc123")
    return model, d.schema, te, path


def wide_model(m: int = 130, use_noise: bool = True) -> ReckonerModel:
    """An untrained model at width ``m`` with the default widths."""
    return ReckonerModel(FeedForwardClassifier.initialized(m, 64, 32, 1),
                         FeedForwardClassifier(m, 64, 32),
                         NoiseWrapper.initialized(m, m, 3), TrainConfig(use_noise=use_noise))


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """``trained``'s tuple for an untrained model at m = 130."""
    model = wide_model()
    rows = make_separable(n=64, seed=3, m=model.m)
    rng = np.random.default_rng(0)
    mean, std = rng.standard_normal(model.m), rng.uniform(0.5, 2.0, model.m)
    path = tmp_path_factory.mktemp("wide") / "model.json"
    save_both(path, model, rows.schema, mean, std)
    return model, rows.schema, rows, path


@pytest.fixture(scope="module")
def documents(trained):
    """``trained``'s checkpoint path per format version, 3 and 4."""
    return {3: v3_of(trained[3]), 4: trained[3]}


V3_BLOB_KEYS = [("models", "high", "values"), ("models", "noise", "values"),
                ("models", "noise", "eta")]
V4_BLOB_KEYS = [("models", "high", "values"), ("models", "perturbation")]
BLOBS = [(3, keys) for keys in V3_BLOB_KEYS] + [(4, keys) for keys in V4_BLOB_KEYS]
BLOB_IDS = [f"v{version}-{'.'.join(keys)}" for version, keys in BLOBS]
PARAMETER_KEYS = V3_BLOB_KEYS + [("standardize", "mean"), ("standardize", "std")]
PERTURBATION = ("models", "perturbation")


def node_at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def decoded(blob: str) -> list[float]:
    """A blob's floats."""
    return np.frombuffer(base64.b64decode(blob), "<f8").tolist()


def as_v2(doc: dict) -> dict:
    """A copy of version 3 document ``doc`` as version 2: its blobs decoded
    to lists of floats."""
    doc = json.loads(json.dumps(doc))
    doc["format_version"] = 2
    for keys in V3_BLOB_KEYS:
        parent = node_at(doc, keys[:-1])
        parent[keys[-1]] = decoded(parent[keys[-1]])
    return doc


@pytest.fixture(scope="module")
def trained_v2(trained, tmp_path_factory):
    """``trained``'s checkpoint as version 2."""
    path = tmp_path_factory.mktemp("ckpt-v2") / "model.json"
    path.write_text(json.dumps(as_v2(json.loads(v3_of(trained[3]).read_text()))))
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


def assert_serves_as(loaded: ServingModel, model: ReckonerModel, rows) -> None:
    """``loaded`` holds ``model``'s high classifier and perturbation bits,
    and scores ``rows`` to the same bytes."""
    assert loaded.high.params.values.tobytes() == model.high.params.values.tobytes()
    assert loaded.perturbation.tobytes() == model.noise.perturbation().tobytes()
    assert predict(loaded, rows)[1].tobytes() == predict(model, rows)[1].tobytes()


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

    def test_v4_holds_exactly_the_serving_keys(self, trained):
        model, _, _, path = trained
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 4
        assert set(doc) == {"format_version", "kind", "config", "config_hash", "m",
                            "models", "standardize", "schema", "manifest_sha256"}
        assert set(doc["models"]) == {"high", "perturbation"}
        assert all(type(node_at(doc, keys)) is str for keys in V4_BLOB_KEYS)
        assert base64.b64decode(doc["models"]["perturbation"]) \
            == model.noise.perturbation().astype("<f8").tobytes()

    @pytest.mark.parametrize("version", [3, 4])
    def test_loaded_model_builds_no_training_state(self, documents, version):
        """A load gives what ``predict`` reads and nothing else: no low
        classifier, snapshot, Adam state or noise wrapper."""
        loaded = load_checkpoint(documents[version]).model
        assert type(loaded) is ServingModel
        assert set(vars(loaded)) == {"config", "high", "perturbation", "_inputs"}

    def test_perturbation_is_null_with_the_noise_off(self, tmp_path):
        model = wide_model(use_noise=False)
        rows = make_separable(n=64, seed=3, m=model.m)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, rows.schema, np.zeros(model.m), np.ones(model.m))
        assert json.loads(path.read_text())["models"]["perturbation"] is None
        loaded = load_checkpoint(path).model
        assert loaded.perturbation is None
        assert predict(loaded, rows.x)[1].tobytes() == predict(model, rows.x)[1].tobytes()

    @pytest.mark.parametrize("which", ["trained", "wide"], ids=["m3", "m130"])
    def test_v3_document_loads_bit_for_bit(self, request, which):
        """A version 3 document, which holds the noise wrapper, loads to the
        perturbation the trained wrapper gives, to the bit."""
        model, _, rows, path = request.getfixturevalue(which)
        assert_serves_as(load_checkpoint(v3_of(path)).model, model, rows.x)

    @pytest.mark.parametrize("which", ["trained", "wide"], ids=["m3", "m130"])
    def test_v2_document_loads_bit_for_bit(self, request, which, tmp_path):
        """A version 3 document turned back into version 2 (its blobs as
        float lists) loads the high classifier's bits, the trained wrapper's
        perturbation bits and scores alike."""
        model, _, rows, path = request.getfixturevalue(which)
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps(as_v2(json.loads(v3_of(path).read_text()))))
        assert_serves_as(load_checkpoint(v2).model, model, rows.x)

    def test_v1_document_loads_and_predicts_bit_identically(self, trained, tmp_path):
        model, _, te, path = trained
        doc = as_v2(json.loads(v3_of(path).read_text()))
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
        assert_serves_as(load_checkpoint(v1).model, model, te.x)

    @pytest.mark.parametrize("which", ["trained", "wide"], ids=["m3", "m130"])
    def test_v3_document_saves_as_the_v4_file(self, request, which, tmp_path):
        """A loaded version 3 checkpoint, saved again, is the version 4 file
        that its trained model saves, byte for byte."""
        _, _, _, path = request.getfixturevalue(which)
        loaded = load_checkpoint(v3_of(path))
        again = tmp_path / "again.json"
        save_checkpoint(again, loaded.model, loaded.schema, loaded.mean, loaded.std,
                        manifest_sha256=loaded.manifest_sha256)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("version", [99, 5, True, 1.0, 2.0, 3.0, 4.0])
    def test_version_mismatch_rejected(self, trained, tmp_path, version):
        """Only the JSON integers 1 to 4 are versions: Python's ``in`` would
        take ``true`` for 1 and ``2.0`` for 2."""
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
    @pytest.mark.parametrize("version, keys", [(4, ("m",)), (3, ("models", "noise", "hidden"))],
                             ids=["m", "models.noise.hidden"])
    def test_non_integer_width_rejected(self, trained, documents, tmp_path, version, keys,
                                        edit):
        """``int()`` would truncate 3.7 to 3 and accept ``"3"``."""
        model = trained[0]
        bad = edited(documents[version], tmp_path, keys, edit(model.m))
        with pytest.raises(ConfigError, match="must be a JSON integer"):
            load_checkpoint(bad)

    def test_wrapper_layout_that_does_not_match_rejected(self, documents, tmp_path):
        """A version 3 wrapper whose layout lacks a segment (``c2``)."""
        bad = edited(documents[3], tmp_path, ("models", "noise", "layout", "segments"),
                     lambda segments: segments[:-1])
        with pytest.raises(ConfigError, match="models.noise.values holds"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("value", [None, True, 0, 1.5, {}], ids=repr)
    @pytest.mark.parametrize("version, keys", BLOBS, ids=BLOB_IDS)
    def test_blob_that_is_not_a_string_rejected(self, documents, tmp_path, version, keys,
                                                value):
        """A null perturbation has a message of its own: with the noise off,
        null is its one valid value."""
        bad = edited(documents[version], tmp_path, keys, value)
        name = ".".join(keys)
        match = f"{name} is null with use_noise on" if value is None and keys == PERTURBATION \
            else f"{name} must be a base64 string"
        with pytest.raises(ConfigError, match=match):
            load_checkpoint(bad)

    @pytest.mark.parametrize("version, keys", BLOBS, ids=BLOB_IDS)
    def test_list_in_a_blob_document_rejected(self, documents, tmp_path, version, keys):
        """The version 2 form of a vector, its exact floats, in a version 3
        or 4 document."""
        bad = edited(documents[version], tmp_path, keys, decoded)
        with pytest.raises(ConfigError, match=f"{'.'.join(keys)} must be a base64 string"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("keys", V3_BLOB_KEYS, ids=".".join)
    def test_blob_in_a_v1_or_v2_document_rejected(self, documents, trained_v2, tmp_path,
                                                  keys, version):
        doc = json.loads(trained_v2.read_text())
        doc["format_version"] = version
        node_at(doc, keys[:-1])[keys[-1]] = node_at(json.loads(documents[3].read_text()), keys)
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
    @pytest.mark.parametrize("version, keys", BLOBS, ids=BLOB_IDS)
    def test_invalid_base64_rejected(self, documents, tmp_path, version, keys, edit):
        bad = edited(documents[version], tmp_path, keys, edit)
        with pytest.raises(ConfigError, match=f"invalid base64 in {'.'.join(keys)}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: raw[:-3], "not a whole number of float64s"),
        (lambda raw: raw + b"\0", "not a whole number of float64s"),
        (lambda raw: raw[:-8], "values, expected"),
        (lambda raw: raw + raw[:8], "values, expected"),
        (lambda raw: b"", "values, expected"),
    ], ids=["3-bytes-short", "1-byte-long", "1-float-short", "1-float-long", "empty"])
    @pytest.mark.parametrize("version, keys", BLOBS, ids=BLOB_IDS)
    def test_blob_of_the_wrong_size_rejected(self, documents, tmp_path, version, keys, edit,
                                             match):
        """A blob's bytes must be whole float64s, as many as the layout's
        size (``m`` for ``eta`` and the perturbation)."""
        bad = edited(documents[version], tmp_path, keys, blob_edit(edit))
        with pytest.raises(ConfigError, match=f"{'.'.join(keys)} holds .*{match}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("version, keys", BLOBS, ids=BLOB_IDS)
    def test_non_finite_blob_value_rejected(self, documents, tmp_path, version, keys, x):
        first = blob_edit(lambda raw: np.array([x], "<f8").tobytes() + raw[8:])
        bad = edited(documents[version], tmp_path, keys, first)
        with pytest.raises(ConfigError, match=f"non-finite value in {'.'.join(keys)}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("x", [1.0, -1.0, 1.5], ids=str)
    def test_perturbation_outside_the_open_interval_rejected(self, trained, tmp_path, x):
        """A wrapper's clamped tanh keeps every entry inside (-1, 1)."""
        last = blob_edit(lambda raw: raw[:-8] + np.array([x], "<f8").tobytes())
        bad = edited(trained[3], tmp_path, PERTURBATION, last)
        with pytest.raises(ConfigError, match=r"models.perturbation holds a value outside"):
            load_checkpoint(bad)

    def test_perturbation_with_the_noise_off_rejected(self, trained, tmp_path):
        bad = edited(trained[3], tmp_path, ("config", "use_noise"), False)
        with pytest.raises(ConfigError,
                           match="models.perturbation must be null with use_noise off"):
            load_checkpoint(bad)

    def test_wrapper_in_a_v4_document_rejected(self, documents, tmp_path):
        """Version 4 has no ``models.noise``, whatever the perturbation."""
        noise = json.loads(documents[3].read_text())["models"]["noise"]
        bad = edited(documents[4], tmp_path, ("models", "noise"), noise)
        with pytest.raises(ConfigError, match="models.noise is not a format version 4 key"):
            load_checkpoint(bad)


def test_save_peak_stays_under_500_kb(tmp_path):
    """Saving a checkpoint at m = 130 with the default widths allocates less
    than 500 KB at its peak (tracemalloc): the high classifier's vector is
    encoded from its array's buffer, the noise wrapper is stored as its m
    perturbation values, and the encoder's chunks stream to the file, never
    joined into one string. Measured: 0.41 MB for a 0.13 MB file; 1.28 MB
    for format 3's 0.49 MB file, which held the wrapper's blobs."""
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
    assert path.stat().st_size > 100_000  # the high classifier is still in it
    assert peak - before < 500_000, peak - before


def test_load_keeps_under_256_kb(wide):
    """A loaded m = 130 checkpoint keeps less than 256 KB (tracemalloc):
    the high classifier's 84 KB of parameters, the perturbation, schema and
    statistics. Measured: 0.14 MB; 1.56 MB at format 3, whose load also
    built the noise wrapper, a zeroed low classifier, its snapshot and
    ``best_low``, and three Adam states."""
    path = wide[3]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_checkpoint(path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loaded.model.m == 130
    assert kept - before < 256_000, kept - before
