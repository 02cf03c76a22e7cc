import json

import numpy as np
import pytest

from conftest import make_separable
from reckoner.checkpoint import load_checkpoint, save_checkpoint
from reckoner.data import SplitSpec, split_dataset, standardize
from reckoner.errors import ConfigError
from reckoner.pipeline import TrainConfig, predict, train


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


PARAMETER_KEYS = [("models", "high", "values"), ("models", "noise", "values"),
                  ("models", "noise", "eta"), ("standardize", "mean"),
                  ("standardize", "std")]


def edited(path, tmp_path, keys, value):
    """A copy of the checkpoint at ``path`` with the node at ``keys`` set."""
    doc = json.loads(path.read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    return bad


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

    def test_v2_holds_exactly_the_serving_keys(self, trained):
        _, _, _, path = trained
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2
        assert set(doc) == {"format_version", "kind", "config", "config_hash", "m",
                            "models", "standardize", "schema", "manifest_sha256"}
        assert set(doc["models"]) == {"high", "noise"}

    def test_v1_document_loads_and_predicts_bit_identically(self, trained, tmp_path):
        model, _, te, path = trained
        doc = json.loads(path.read_text())
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

    @pytest.mark.parametrize("version", [99, True, 1.0, 2.0])
    def test_version_mismatch_rejected(self, trained, tmp_path, version):
        """Only the JSON integers 1 and 2 are versions: Python's ``in``
        would take ``true`` for 1 and ``1.0`` for 1."""
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
    def test_null_parameter_rejected(self, trained, tmp_path, keys):
        """``null`` reads as NaN; a model holding one would still score rows."""
        bad = edited(trained[3], tmp_path, keys + (0,), None)
        with pytest.raises(ConfigError, match=f"non-finite value in {'.'.join(keys)}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("value", ["0.49", True], ids=["string", "true"])
    @pytest.mark.parametrize("keys", PARAMETER_KEYS, ids=".".join)
    def test_non_number_parameter_rejected(self, trained, tmp_path, keys, value):
        """numpy would read ``"0.49"`` as 0.49 and ``true`` as 1.0."""
        bad = edited(trained[3], tmp_path, keys + (0,), value)
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

