import csv
import dataclasses
import errno
import json
import os
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reckoner.serial
from reckoner.cli import _write_csv
from reckoner.data import Schema, SplitSpec, SynthConfig
from reckoner.errors import ConfigError
from reckoner.pipeline import TrainConfig
from reckoner.serial import read_json, write_json, write_jsonl

VALID_DOCS = {
    TrainConfig: {},
    SplitSpec: {"train_fraction": 0.7, "valid_fraction": 0.15, "test_fraction": 0.15},
    SynthConfig: {"n": 10},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def has_annotated_types(cfg) -> bool:
    hints = typing.get_type_hints(type(cfg))
    return all(
        type(getattr(cfg, f.name)) in (typing.get_args(hints[f.name]) or (hints[f.name],))
        for f in dataclasses.fields(cfg)
    )


class TestReadWriteJson:
    def test_write_format(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": 1, "a": [1.5, None]})
        assert path.read_text() == '{\n "a": [\n  1.5,\n  null\n ],\n "b": 1\n}\n'
        assert read_json(path, "test") == {"a": [1.5, None], "b": 1}

    DOC = {"z": [{"b": [1.5, -0.0, 1e-300, None], "a": {}}, []], "métrique": "café ✓",
           "n": None, "x": {"y": {"w": [0.1, 2.5e17, True, "\u2028"]}}}

    @settings(max_examples=50, deadline=None)
    @given(doc=st.just(DOC) | json_values)
    def test_streamed_bytes_match_dumps(self, tmp_path_factory, doc):
        """The chunks ``write_json`` streams join to the bytes of one
        ``json.dumps`` string, nested documents, floats, nulls and non-ASCII
        strings included."""
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        write_json(path, doc)
        want = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_value_that_cannot_be_encoded_keeps_old_bytes(self, tmp_path):
        """A value JSON cannot encode, deep in the document, fails only once
        the temp file is open and partly written: the TypeError still
        reaches the caller, the old target keeps its bytes and the temp
        file is gone."""
        target = tmp_path / "doc.json"
        target.write_bytes(b"old bytes\n")
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(target, {"a": [1.0, object()]})
        assert target.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.parametrize("content", [b"{not json", b'{"a": "\xff"}', b"[" * 100_000],
                             ids=["malformed", "not-utf8", "too-deep"])
    def test_bad_file_is_config_error(self, tmp_path, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot read test file"):
            read_json(path, "test")

    def test_missing_file_and_directory_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            read_json(tmp_path / "missing.json", "test")
        with pytest.raises(ConfigError):
            read_json(tmp_path, "test")


class _FullDiskFile:
    """A temp file opened for real whose every write fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


WRITERS = {
    "json": (write_json, {"a": [1.5, None]}),
    "jsonl": (write_jsonl, [{"epoch": 0}, {"epoch": 1}]),
    "csv": (_write_csv, [["a", "b,c"], ['"q"', "line\nbreak"]]),
}


class TestAtomicWrite:
    def test_csv_bytes_match_a_direct_write(self, tmp_path):
        rows = WRITERS["csv"][1]
        direct = tmp_path / "direct.csv"
        with direct.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        atomic = tmp_path / "atomic.csv"
        atomic.write_bytes(b"old bytes, replaced\n")
        _write_csv(atomic, rows)
        assert atomic.read_bytes() == direct.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["atomic.csv", "direct.csv"]

    @pytest.mark.parametrize("fails", ["write", "replace"])
    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
    def test_failed_write_keeps_old_bytes_and_no_temp_file(self, tmp_path, monkeypatch,
                                                           writer, fails):
        write, payload = writer
        target = tmp_path / "artifact"
        target.write_bytes(b"old bytes\n")
        if fails == "write":
            monkeypatch.setattr(reckoner.serial, "open",
                                lambda *a, **k: _FullDiskFile(open(*a, **k)),
                                raising=False)
        else:
            def no_replace(src, dst):
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(ConfigError, match="No space left|Invalid cross-device"):
            write(target, payload)
        assert target.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["artifact"]

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
    def test_temp_file_that_cannot_be_opened_is_a_config_error(self, tmp_path, writer):
        write, payload = writer
        with pytest.raises(ConfigError, match="No such file or directory"):
            write(tmp_path / "missing" / "artifact", payload)
        assert os.listdir(tmp_path) == []


class TestJsonConfig:
    @pytest.mark.parametrize("cls", list(VALID_DOCS), ids=lambda c: c.__name__)
    def test_roundtrip(self, cls):
        cfg = cls.from_dict(VALID_DOCS[cls])
        assert cls.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_int_is_stored_as_float_and_hashes_alike(self):
        as_int = TrainConfig.from_dict({"alpha": 1, "learning_rate": 1})
        as_float = TrainConfig.from_dict({"alpha": 1.0, "learning_rate": 1.0})
        assert type(as_int.alpha) is float and type(as_int.learning_rate) is float
        assert as_int.config_hash() == as_float.config_hash()

    @pytest.mark.parametrize("doc, match", [
        ({"seed": 1.5}, "'seed' must be int, got float"),
        ({"batch_size": True}, "'batch_size' must be int, got bool"),
        ({"use_noise": "no"}, "'use_noise' must be bool, got str"),
        ({"use_noise": 1}, "'use_noise' must be bool, got int"),
        ({"alpha": None}, "'alpha' must be float, got NoneType"),
        ({"alpha": 10 ** 400}, "'alpha' must be float, got int"),
        ({"noise_hidden": 2.5}, "'noise_hidden' must be int | None, got float"),
        ({"turbo": True}, r"unknown TrainConfig keys: \['turbo'\]"),
        ({"seed": -1}, "seed must be non-negative"),
        (json.loads('{"learning_rate": NaN}'),
         "TrainConfig key 'learning_rate' must be finite, got nan"),
        (json.loads('{"identifier_lr": Infinity}'),
         "TrainConfig key 'identifier_lr' must be finite, got inf"),
        (json.loads('{"alpha": 1e400}'), "TrainConfig key 'alpha' must be finite, got inf"),
    ])
    def test_train_config_rejects(self, doc, match):
        with pytest.raises(ConfigError, match=match):
            TrainConfig.from_dict(doc)

    def test_none_where_allowed(self):
        assert TrainConfig.from_dict({"noise_hidden": None}).noise_hidden is None

    def test_missing_required_key_and_non_object(self):
        with pytest.raises(ConfigError, match="SynthConfig is missing key 'n'"):
            SynthConfig.from_dict({"seed": 1})
        with pytest.raises(ConfigError, match="SplitSpec must be a JSON object, got list"):
            SplitSpec.from_dict([0.7, 0.15, 0.15])

    @pytest.mark.parametrize("cls", list(VALID_DOCS), ids=lambda c: c.__name__)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_json_value_under_any_key(self, cls, data):
        keys = st.sampled_from([f.name for f in dataclasses.fields(cls)]) | st.text(max_size=8)
        doc = {**VALID_DOCS[cls],
               **data.draw(st.dictionaries(keys, json_values, max_size=3))}
        try:
            cfg = cls.from_dict(doc)
        except ConfigError:
            return
        assert has_annotated_types(cfg)


class TestSchemaDocument:
    COLUMNS = [{"name": "f0", "kind": "numeric"}, {"name": "y", "kind": "label"},
               {"name": "s", "kind": "sensitive"}]

    @pytest.mark.parametrize("doc", [
        5,
        {"columns": "f0"},
        {"columns": COLUMNS, "hash_buckets": "64"},
        {"columns": COLUMNS, "hash_buckets": 2.5},
        {"columns": COLUMNS, "buckets": 64},
        {"columns": [{"name": ["f0"], "kind": "numeric"}] + COLUMNS[1:]},
        {"columns": [{"name": "f0"}] + COLUMNS[1:]},
    ])
    def test_malformed_is_config_error(self, doc):
        with pytest.raises(ConfigError):
            Schema.from_dict(doc)

    def test_roundtrip(self):
        schema = Schema.from_dict({"columns": self.COLUMNS, "hash_buckets": 8})
        assert Schema.from_dict(schema.to_dict()) == schema
